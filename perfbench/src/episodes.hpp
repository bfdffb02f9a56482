// One episode of each system the benchmark drives, through public APIs only.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/query.hpp"
#include "net/wire.hpp"
#include "sim/simulator.hpp"
#include "sim/stats_snapshot.hpp"
#include "streams/registry.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

struct EngineWorkload {
  topkmon::StreamSpec stream;
  std::vector<topkmon::QuerySpec> queries;
  std::string fault_preset;
};

/// Per-phase totals of a StepProfiler at one instant.
struct PhaseTotals {
  std::array<std::uint64_t, topkmon::telemetry::kNumPhases> ns{};

  static PhaseTotals of(const topkmon::telemetry::StepProfiler& p);
  std::uint64_t operator[](topkmon::telemetry::Phase p) const {
    return ns[static_cast<std::size_t>(p)];
  }
};

/// Adds the simulator-internal phases (profiler deltas) and the message
/// counters (snapshot deltas) of the steady steps to `layers`.
void add_simulator_layers(Layers& layers, const PhaseTotals& before,
                          const PhaseTotals& after,
                          const topkmon::StatsSnapshot& comm_before,
                          const topkmon::StatsSnapshot& comm_after);

/// The values a query monitored at the last step, as its nodes hold them.
void monitored_values(const topkmon::Simulator& sim, std::vector<Value>& out);

Episode run_engine(const EngineWorkload& w, TimeStep steps, const EpisodeOptions& opt);
/// `spec.seed` and `spec.steps` are set per episode.
Episode run_networked(const topkmon::net::RunSpec& spec, TimeStep steps,
                      const EpisodeOptions& opt);

}  // namespace perfbench
