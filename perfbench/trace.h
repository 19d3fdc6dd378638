// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a module of the library, made from the
// benchmark's own code: a name ("engine.run", "sql.compile", ...), a start
// and an end on the steady clock, the span that caused it, and the id of
// the statement it belongs to (0 when it belongs to none). Spans are kept
// in memory and written out once, when the run ends. A disabled tracer
// still times calls (the metrics need the durations) but keeps nothing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds from `from` to `to`.
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;     // 0: a root span.
  std::uint64_t statement = 0;  // Shared by every span of one statement.
  double start_us = 0.0;        // Relative to the tracer's creation.
  double end_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh id for a statement or a span (never 0). Thread-safe.
  std::uint64_t NextId();

  /// Records a finished span; a no-op unless enabled.
  void Record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t statement, Clock::time_point start,
              Clock::time_point end);

  /// Writes every span as one JSON object per line. Returns false when
  /// the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;  // Guarded by mu_.
  std::vector<Span> spans_;    // Guarded by mu_.
};

/// Times one call; records the span on End() (or destruction).
///
///   ScopedSpan span(tracer, "engine.run", parent, statement);
///   auto result = engine.Run(expr, *snapshot);
///   const double us = span.End();
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t statement = 0)
      : tracer_(tracer), name_(name), parent_(parent), statement_(statement),
        id_(tracer != nullptr && tracer->enabled() ? tracer->NextId() : 0),
        start_(Clock::now()) {}

  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

  /// Ends the span (once) and returns its duration in microseconds.
  double End();

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t statement_;
  std::uint64_t id_;
  Clock::time_point start_;
  bool ended_ = false;
  double duration_us_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
