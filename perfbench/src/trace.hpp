// In-memory span recorder for the benchmark's traced run.
//
// A span is one interval the benchmark timed around a call into the program
// (Simulator::step, MonitoringEngine::step, one Transport::send/recv on a
// coordinator link, ...). Spans live in a preallocated vector and are written
// out as JSON when the run ends; nothing is formatted while steps run.
//
// Self time of a span is its duration minus the durations of its direct
// children. Children are recorded on the same thread inside the parent's
// interval, so they never overlap each other.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list; -1 = root
  std::int64_t step = -1;    ///< time step the span belongs to; -1 = none
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span under the innermost open span, starting now or at
  /// `start_ns`; returns its id (-1 when the buffer is full — the span is
  /// then counted as dropped).
  int open(const char* name, std::int64_t step, std::uint64_t start_ns = 0);
  void close(int id);

  /// Records a finished interval under the innermost open span.
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int64_t step);

  std::size_t size() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }

  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes {"spans": [...], "totals": {...}, "dropped": n}; false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
  std::size_t dropped_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t step)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name, step) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
