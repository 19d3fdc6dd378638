#include "trace.h"

#include <cstdio>

namespace perfbench {

std::uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::uint64_t statement, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.statement = statement;
  span.start_us = Micros(origin_, start);
  span.end_us = Micros(origin_, end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"statement\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.statement), span.start_us,
                 span.end_us);
  }
  return std::fclose(out) == 0;
}

double ScopedSpan::End() {
  if (ended_) return duration_us_;
  ended_ = true;
  const Clock::time_point end = Clock::now();
  duration_us_ = Micros(start_, end);
  if (tracer_ != nullptr) {
    tracer_->Record(name_, id_, parent_, statement_, start_, end);
  }
  return duration_us_;
}

}  // namespace perfbench
