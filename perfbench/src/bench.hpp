// Shared types of the benchmark driver.
//
// An *episode* builds the system from scratch (generator, fleet,
// protocol(s); for net workloads the node-hosts and the Hello/Config
// handshake), answers step 0 — that interval is one set-up sample — and then
// drives a fixed number of steady steps in a closed loop, each issued as soon
// as the previous answer is out. A *pass* is a fixed number of episodes, each
// with its own seed derived from the run's seed. A run repeats the pass
// until its time is up, so passes replay the same steps: model counters must
// repeat exactly, and each step's time is the fastest of its repeats.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "model/types.hpp"
#include "sim/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

using topkmon::TimeStep;
using topkmon::Value;

/// Sums of per-layer quantities over the steady steps of traced episodes,
/// keyed by per-layer metric name (normalised when the run ends).
class Layers {
 public:
  void add(const std::string& name, double v) { sums_[name] += v; }
  double get(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> sums_;
};

/// Validates every served answer after every step, outside the timed
/// intervals. The first pass of a run checks each answer against the exact
/// oracle and records a fingerprint of it; later passes replay the same
/// seeds, so each of their answers must reproduce the fingerprint of the
/// oracle-checked answer at the same position bit for bit.
class AnswerChecker {
 public:
  void begin_pass() { cursor_ = 0; }
  void end_pass() { validating_ = false; }

  /// True while answers are checked against the oracle (callers gather the
  /// monitored values only then).
  bool validating() const { return validating_; }

  /// Checks every kind `protocol` serves. `values` is the vector the query
  /// monitored this step; it is read only while validating().
  void check(const topkmon::MonitoringProtocol& protocol, std::size_t k,
             double epsilon, Value threshold, std::span<const Value> values,
             TimeStep t);

  /// Records a failed run-level guard as a failed check.
  void fail(const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  bool validating_ = true;
  std::vector<std::uint64_t> reference_;  ///< fingerprints, in check order
  std::size_t cursor_ = 0;
  std::vector<Value> top_;  ///< scratch: largest values for k-select checks
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

/// What an episode is asked to do.
struct EpisodeOptions {
  std::uint64_t seed = 1;     ///< the episode's seed
  std::size_t threads = 1;    ///< engine worker threads
  Tracer* tracer = nullptr;   ///< non-null = traced episode (spans + profiler)
  Layers* layers = nullptr;   ///< per-layer sums; set iff tracer is
  AnswerChecker* checker = nullptr;
};

/// What an episode measured.
struct Episode {
  double setup_s = 0.0;            ///< construction → first answer F(0)
  std::vector<double> step_ms;     ///< one per steady step (t ≥ 1)
  std::uint64_t messages = 0;      ///< model messages, step 0 included
  std::uint64_t wire_bytes = 0;    ///< net: coordinator-link bytes, steady steps
  bool profiler_attached = false;  ///< did a StepProfiler run during the steps?
};

/// One named workload: its parameters and how to run an episode of it.
struct Workload {
  std::string name;
  std::string params;  ///< human-readable parameter summary
  std::size_t episodes;  ///< episodes per pass
  TimeStep steps;        ///< steps per episode, step 0 included
  double tail_pct;       ///< the step_tail_ms percentile
  bool engine;         ///< has a thread count (engine.parallel_speedup)
  bool net;            ///< reports the net.* layer
  Episode (*run)(const Workload&, const EpisodeOptions&);
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
