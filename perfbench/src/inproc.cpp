// Episodes of the in-process workload: a MonitoringEngine serving a mixed
// query set over one fleet. The simulator helpers here serve the networked
// episodes too (the coordinator drives a Simulator).
#include <algorithm>
#include <array>
#include <map>
#include <memory>

#include "engine/engine.hpp"
#include "episodes.hpp"
#include "faults/registry.hpp"
#include "model/window.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using namespace topkmon;
using telemetry::Phase;
using telemetry::StepProfiler;

namespace {

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

void monitored_values(const Simulator& sim, std::vector<Value>& out) {
  const std::span<const Node> nodes = sim.context().nodes();
  out.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) out[i] = nodes[i].value();
}

PhaseTotals PhaseTotals::of(const StepProfiler& p) {
  PhaseTotals out;
  for (std::size_t i = 0; i < telemetry::kNumPhases; ++i) {
    out.ns[i] = p.total_ns(static_cast<Phase>(i));
  }
  return out;
}

void add_simulator_layers(Layers& layers, const PhaseTotals& before,
                          const PhaseTotals& after, const StatsSnapshot& comm_before,
                          const StatsSnapshot& comm_after) {
  const auto d = [&](Phase p) { return ms(after[p] - before[p]); };
  layers.add("streams.gen_ms_per_step", d(Phase::kGenerator));
  layers.add("sim.advance_time_ms_per_step", d(Phase::kAdvanceTime));
  layers.add("sim.violation_collect_ms_per_step", d(Phase::kViolationCollect));
  layers.add("model.order_update_ms_per_step", d(Phase::kOrderUpdate));
  layers.add("model.sigma_ms_per_step", d(Phase::kSigma));
  layers.add("protocols.ms", d(Phase::kProtocol));
  layers.add("protocols.self_ms_per_step",
             d(Phase::kProtocol) - d(Phase::kViolationCollect));
  layers.add("messages", static_cast<double>(comm_after.messages - comm_before.messages));
  layers.add("sim.rounds_per_step",
             static_cast<double>(comm_after.rounds - comm_before.rounds));
  static constexpr std::array<const char*, kNumMessageTags> kTagMetric = {
      "protocols.msgs_per_step.existence",      "protocols.msgs_per_step.violation",
      "protocols.msgs_per_step.probe",          "protocols.msgs_per_step.filter_broadcast",
      "protocols.msgs_per_step.filter_unicast", "protocols.msgs_per_step.other"};
  for (std::size_t t = 0; t < kNumMessageTags; ++t) {
    layers.add(kTagMetric[t],
               static_cast<double>(comm_after.by_tag[t] - comm_before.by_tag[t]));
  }
}

Episode run_engine(const EngineWorkload& w, TimeStep steps, const EpisodeOptions& opt) {
  Episode ep;
  AnswerChecker& checker = *opt.checker;
  const bool traced = opt.tracer != nullptr;
  telemetry::TelemetrySink sink;  // outlives the engine

  const std::uint64_t t0 = now_ns();
  EngineConfig cfg;
  cfg.threads = opt.threads;
  cfg.seed = opt.seed;
  FaultConfig faults = fault_preset(w.fault_preset);
  faults.seed = opt.seed;
  cfg.faults = make_fleet_schedule(faults, w.stream.n);
  MonitoringEngine engine(cfg, make_stream(w.stream));
  for (const QuerySpec& q : w.queries) engine.add_query(q);
  if (traced) engine.attach_telemetry(&sink);
  {
    ScopedSpan span(opt.tracer, "engine.step", 0);
    engine.step();
  }
  ep.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  // Every query of one window length monitors the same windowed view of the
  // shared snapshot, so the values are gathered once per length and step.
  std::map<std::size_t, std::vector<Value>> values_by_window;
  const auto check_all = [&](TimeStep t) {
    for (auto& gathered : values_by_window) gathered.second.clear();
    for (QueryHandle h = 0; h < w.queries.size(); ++h) {
      const Simulator& sim = engine.query_sim(h);
      std::vector<Value>& values = values_by_window[w.queries[h].window];
      if (checker.validating() && values.empty()) monitored_values(sim, values);
      const SimConfig& c = sim.config();
      checker.check(sim.protocol(), c.k, c.epsilon, c.threshold, values, t);
    }
  };
  check_all(0);

  // Traced episodes re-time the merge of the first windowed query's W on the
  // step's effective vector, read off an unwindowed query (the engine runs
  // the merge inside its snapshot phase).
  const auto is_windowed = [](const QuerySpec& q) { return q.window != kInfiniteWindow; };
  const auto windowed = std::find_if(w.queries.begin(), w.queries.end(), is_windowed);
  const auto unwindowed = std::find_if_not(w.queries.begin(), w.queries.end(), is_windowed);
  const QueryHandle effective_query =
      static_cast<QueryHandle>(unwindowed - w.queries.begin());
  std::unique_ptr<WindowedValueModel> window;
  std::vector<Value> effective;
  if (traced && windowed != w.queries.end() && unwindowed != w.queries.end()) {
    window = std::make_unique<WindowedValueModel>(w.stream.n, windowed->window);
    monitored_values(engine.query_sim(effective_query), effective);
    window->push(0, effective);
  }
  const std::size_t shards = sink.shard_profiler_count();
  std::vector<std::uint64_t> shard_prev(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_prev[s] = sink.shard_profiler(s).total_ns(Phase::kShardAdvance);
  }
  PhaseTotals loop_prev = PhaseTotals::of(sink.profiler());
  const PhaseTotals loop0 = loop_prev;
  const PhaseTotals inner0 = PhaseTotals::of(sink.merged_profiler());
  const EngineStats stats0 = engine.stats();
  const StatsSnapshot comm0 = stats0.totals();

  ep.step_ms.reserve(static_cast<std::size_t>(steps));
  for (TimeStep t = 1; t < steps; ++t) {
    const std::uint64_t a = now_ns();
    {
      ScopedSpan span(opt.tracer, "engine.step", t);
      engine.step();
    }
    const std::uint64_t wall = now_ns() - a;
    ep.step_ms.push_back(ms(wall));
    if (traced) {
      std::uint64_t slowest = 0, sum = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::uint64_t now = sink.shard_profiler(s).total_ns(Phase::kShardAdvance);
        slowest = std::max(slowest, now - shard_prev[s]);
        sum += now - shard_prev[s];
        shard_prev[s] = now;
      }
      const PhaseTotals loop = PhaseTotals::of(sink.profiler());
      const std::uint64_t serial = loop[Phase::kGenerator] - loop_prev[Phase::kGenerator] +
                                   loop[Phase::kFaultInject] - loop_prev[Phase::kFaultInject] +
                                   loop[Phase::kSnapshotBegin] - loop_prev[Phase::kSnapshotBegin];
      loop_prev = loop;
      Layers& layers = *opt.layers;
      layers.add("engine.shard_ms_per_step.max", ms(slowest));
      layers.add("engine.shard_ms_per_step.mean", ms(sum) / static_cast<double>(shards));
      layers.add("engine.pool_wait_ms_per_step",
                 wall > serial + slowest ? ms(wall - serial - slowest) : 0.0);

      if (window) {
        monitored_values(engine.query_sim(effective_query), effective);
        const std::uint64_t m = now_ns();
        window->push(t, effective);
        layers.add("model.window_merge_ms_per_step", ms(now_ns() - m));
      }
    }
    check_all(t);
  }
  const EngineStats stats = engine.stats();
  ep.messages = stats.total_messages;
  ep.profiler_attached = engine.query_sim(0).profiler() != nullptr;
  if (traced) {
    Layers& layers = *opt.layers;
    const StatsSnapshot comm = stats.totals();
    add_simulator_layers(layers, inner0, PhaseTotals::of(sink.merged_profiler()), comm0,
                         comm);
    // The merged profiler sums the engine loop (generator, fault injection,
    // snapshot) and every shard (the per-query simulator phases).
    const PhaseTotals loop = PhaseTotals::of(sink.profiler());
    const auto d = [&](Phase p) { return ms(loop[p] - loop0[p]); };
    layers.add("faults.inject_ms_per_step", d(Phase::kFaultInject));
    layers.add("engine.snapshot_ms_per_step", d(Phase::kSnapshotBegin));
    layers.add("faults.stale_reads_per_step",
               static_cast<double>(stats.stale_reads - stats0.stale_reads));
    layers.add("model.window_expirations_per_step",
               static_cast<double>(stats.window_expirations - stats0.window_expirations));
    layers.add("engine.shared_probe_msgs_per_step",
               static_cast<double>(stats.shared_probe_messages -
                                   stats0.shared_probe_messages));
    layers.add("engine.probe_calls", static_cast<double>(stats.probe_calls -
                                                         stats0.probe_calls));
    layers.add("engine.probe_ranks", static_cast<double>(stats.probe_ranks_computed -
                                                         stats0.probe_ranks_computed));
  }
  return ep;
}

}  // namespace perfbench
