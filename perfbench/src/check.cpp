#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "model/oracle.hpp"

namespace perfbench {

using topkmon::Oracle;
using topkmon::QueryCapabilities;
using topkmon::QueryKind;

void AnswerChecker::check(const topkmon::MonitoringProtocol& protocol, std::size_t k,
                          double epsilon, Value threshold,
                          std::span<const Value> values, TimeStep t) {
  ++attempted_;
  std::uint64_t fp = 1469598103934665603ull;  // FNV-1a over every answer
  const auto mix = [&fp](std::uint64_t v) {
    fp ^= v;
    fp *= 1099511628211ull;
  };
  const bool topk = topkmon::serves_topk(protocol);
  if (topk) {
    mix(protocol.output().size());
    for (const topkmon::NodeId id : protocol.output()) mix(id);
  }
  const QueryCapabilities* caps = protocol.capabilities();
  const auto serves = [caps](QueryKind kind) {
    return caps != nullptr && caps->supports(kind);
  };
  const std::size_t jmax =
      serves(QueryKind::kKSelect) ? std::min(caps->kselect_max_rank(), k) : 0;
  for (std::size_t j = 1; j <= jmax; ++j) mix(caps->kselect(j));
  if (serves(QueryKind::kThreshold)) {
    mix(caps->above_count());
    mix(caps->alert_active() ? 1 : 0);
  }
  if (serves(QueryKind::kCountDistinct)) mix(caps->distinct_count());

  std::string bad;
  if (validating_) {
    if (topk && !Oracle::output_valid(values, k, epsilon, protocol.output())) {
      bad = Oracle::explain_invalid(values, k, epsilon, protocol.output());
    }
    if (jmax > 0) {
      // The j-th largest of the jmax largest values is the j-th largest of
      // all of them (j ≤ jmax), so the oracle runs on that short prefix.
      top_.resize(jmax);
      std::partial_sort_copy(values.begin(), values.end(), top_.begin(), top_.end(),
                             std::greater<Value>());
      for (std::size_t j = 1; j <= jmax; ++j) {
        if (!Oracle::kselect_valid(top_, j, epsilon, caps->kselect(j))) {
          bad = "k-select estimate of rank " + std::to_string(j) + " invalid";
        }
      }
    }
    if (serves(QueryKind::kThreshold)) {
      const std::uint64_t expect = Oracle::count_above(values, threshold);
      if (caps->above_count() != expect || caps->alert_active() != (expect > 0)) {
        bad = "threshold count " + std::to_string(caps->above_count()) +
              ", oracle says " + std::to_string(expect);
      }
    }
    if (serves(QueryKind::kCountDistinct) &&
        caps->distinct_count() != Oracle::distinct_count(values, epsilon)) {
      bad = "count-distinct answer differs from the oracle";
    }
    reference_.push_back(fp);
  } else {
    if (cursor_ >= reference_.size() || reference_[cursor_] != fp) {
      bad = "answer differs from the oracle-checked answer of the same seed";
    }
    ++cursor_;
  }
  if (!bad.empty()) {
    ++failed_;
    if (first_failure_.empty()) {
      first_failure_ = "t=" + std::to_string(t) + " [" + std::string(protocol.name()) +
                       "]: " + bad;
    }
  }
}

void AnswerChecker::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (first_failure_.empty()) first_failure_ = why;
}

}  // namespace perfbench
