#include "brute.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>

namespace perfbench {
namespace {

template <typename T>
void SortUnique(std::vector<T>* items) {
  std::sort(items->begin(), items->end());
  items->erase(std::unique(items->begin(), items->end()), items->end());
}

std::map<Value, std::vector<Value>> Groups(const Pairs& pairs) {
  std::map<Value, std::vector<Value>> groups;
  for (const auto& [a, b] : pairs) groups[a].push_back(b);
  for (auto& [a, elements] : groups) SortUnique(&elements);
  return groups;
}

}  // namespace

Pairs PairsOf(const setalg::core::Relation& relation) {
  Pairs pairs;
  pairs.reserve(relation.size());
  for (std::size_t i = 0; i < relation.size(); ++i) {
    const auto t = relation.tuple(i);
    pairs.emplace_back(t[0], t[1]);
  }
  SortUnique(&pairs);
  return pairs;
}

std::vector<Value> ValuesOf(const setalg::core::Relation& relation) {
  std::vector<Value> values;
  values.reserve(relation.size());
  for (std::size_t i = 0; i < relation.size(); ++i) {
    values.push_back(relation.tuple(i)[0]);
  }
  SortUnique(&values);
  return values;
}

Rows RowsOf(const setalg::core::Relation& relation) {
  Rows rows;
  rows.reserve(relation.size());
  for (std::size_t i = 0; i < relation.size(); ++i) {
    const auto t = relation.tuple(i);
    Row row;
    for (std::size_t j = 0; j < t.size(); ++j) row.push_back(t[j]);
    rows.push_back(std::move(row));
  }
  SortUnique(&rows);
  return rows;
}

Rows BruteDivide(const Pairs& r, const std::vector<Value>& s, bool equality) {
  Rows out;
  for (const auto& [a, elements] : Groups(r)) {
    const bool keep = equality ? elements == s
                               : std::includes(elements.begin(), elements.end(),
                                               s.begin(), s.end());
    if (keep) out.push_back({a});
  }
  return out;
}

Rows BruteContainment(const Pairs& r, const Pairs& s) {
  const auto r_groups = Groups(r);
  const auto s_groups = Groups(s);
  Rows out;
  for (const auto& [a, a_set] : r_groups) {
    for (const auto& [c, c_set] : s_groups) {
      if (std::includes(a_set.begin(), a_set.end(), c_set.begin(), c_set.end())) {
        out.push_back({a, c});
      }
    }
  }
  return out;
}

Rows BruteEquality(const Pairs& r, const Pairs& s) {
  const auto r_groups = Groups(r);
  const auto s_groups = Groups(s);
  Rows out;
  for (const auto& [a, a_set] : r_groups) {
    for (const auto& [c, c_set] : s_groups) {
      if (a_set == c_set) out.push_back({a, c});
    }
  }
  return out;
}

Rows BruteTriangle(const Pairs& r, const Pairs& s, const Pairs& t) {
  const auto s_by_b = Groups(s);
  const std::set<std::pair<Value, Value>> t_set(t.begin(), t.end());
  Rows out;
  for (const auto& [a, b] : r) {
    const auto it = s_by_b.find(b);
    if (it == s_by_b.end()) continue;
    for (Value c : it->second) {
      if (t_set.count({c, a}) != 0) out.push_back({a, b, b, c, c, a});
    }
  }
  SortUnique(&out);
  return out;
}

setalg::core::Relation ToRelation(const Rows& rows, std::size_t arity) {
  setalg::core::Relation relation(arity);
  relation.Reserve(rows.size());
  for (const Row& row : rows) relation.AddRows(row.data(), 1);
  return relation;
}

bool SameRows(const setalg::core::Relation& relation, const Rows& rows) {
  return relation.size() == rows.size() && RowsOf(relation) == rows;
}

bool ParseCsvRows(const std::vector<std::string>& lines, Rows* rows) {
  rows->clear();
  rows->reserve(lines.size());
  for (const std::string& line : lines) {
    Row row;
    const char* p = line.data();
    const char* end = p + line.size();
    while (p <= end) {
      const char* comma = std::find(p, end, ',');
      Value v = 0;
      const auto [ptr, ec] = std::from_chars(p, comma, v);
      if (ec != std::errc() || ptr != comma) return false;
      row.push_back(v);
      p = comma + 1;
    }
    rows->push_back(std::move(row));
  }
  SortUnique(rows);
  return true;
}

}  // namespace perfbench
