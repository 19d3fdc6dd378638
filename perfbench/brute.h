// Independent evaluations the benchmark checks the library's outputs
// against: division, set joins and the triangle written directly with
// standard containers (no library operator, planner or kernel), plus the
// comparisons of a relation or a served CSV response with such a result.
#ifndef PERFBENCH_BRUTE_H_
#define PERFBENCH_BRUTE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/relation.h"

namespace perfbench {

using Value = setalg::core::Value;
using Row = std::vector<Value>;
/// A relation's contents as sorted, duplicate-free rows.
using Rows = std::vector<Row>;
using Pairs = std::vector<std::pair<Value, Value>>;

/// The tuples of a binary relation, sorted and unique.
Pairs PairsOf(const setalg::core::Relation& relation);
/// The values of a unary relation, sorted and unique.
std::vector<Value> ValuesOf(const setalg::core::Relation& relation);
/// Any relation's tuples, sorted and unique.
Rows RowsOf(const setalg::core::Relation& relation);

/// { a | {b | r(a,b)} ⊇ s } (or = s with `equality`), over the a's of r.
Rows BruteDivide(const Pairs& r, const std::vector<Value>& s, bool equality);
/// { (a,c) | {b | r(a,b)} ⊇ {d | s(c,d)} }.
Rows BruteContainment(const Pairs& r, const Pairs& s);
/// { (a,c) | {b | r(a,b)} = {d | s(c,d)} }.
Rows BruteEquality(const Pairs& r, const Pairs& s);
/// r(a,b) ⋈ s(b,c) ⋈ t(c,a) as rows (a,b,b,c,c,a) — the SELECT * shape.
Rows BruteTriangle(const Pairs& r, const Pairs& s, const Pairs& t);

/// A relation holding `rows` (what the server's digest is computed over).
setalg::core::Relation ToRelation(const Rows& rows, std::size_t arity);

/// True when `relation` holds exactly `rows`.
bool SameRows(const setalg::core::Relation& relation, const Rows& rows);

/// Parses the CSV data rows of a response into sorted, unique rows.
/// Returns false on a field that is not an integer.
bool ParseCsvRows(const std::vector<std::string>& lines, Rows* rows);

}  // namespace perfbench

#endif  // PERFBENCH_BRUTE_H_
