#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// A span left open (the run failed mid-interval) counts as empty.
std::uint64_t duration(const Span& s) {
  return s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
}

}  // namespace

int Tracer::open(const char* name, std::int64_t step, std::uint64_t start_ns) {
  int id = -1;
  if (spans_.size() < spans_.capacity()) {
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, start_ns != 0 ? start_ns : now_ns(), 0,
                          open_.empty() ? -1 : open_.back(), step});
  } else {
    ++dropped_;
  }
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty()) open_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::int64_t step) {
  if (spans_.size() < spans_.capacity()) {
    spans_.push_back(
        Span{name, start_ns, end_ns, open_.empty() ? -1 : open_.back(), step});
  } else {
    ++dropped_;
  }
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += duration(s);
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = duration(s);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  out << "{\"dropped\": " << dropped_ << ", \"totals\": {";
  bool first = true;
  for (const auto& [name, t] : totals()) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"count\": " << t.count
        << ", \"total_ns\": " << t.total_ns << ", \"self_ns\": " << t.self_ns << '}';
    first = false;
  }
  out << "},\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns - t0
        << ", \"end_ns\": " << s.start_ns - t0 + duration(s)
        << ", \"parent\": " << s.parent << ", \"step\": " << s.step << '}';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
