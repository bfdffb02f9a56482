// topkmon_perfbench — the repository benchmark.
//
//   topkmon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with no profiler attached.
// --trace 1 measures the per-layer metrics: an untraced part, a traced part
// (StepProfiler attached through the public hooks, spans recorded around the
// benchmark's calls into the program) and, for the engine, a one-thread
// part; the spans are written to --spans as JSON.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero when any answer or guard check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "telemetry/profiler.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr double kHardCapSeconds = 120.0;  ///< measuring stops here regardless
constexpr std::size_t kMinPasses = 3;      ///< repeats per step in a gated run
/// Engine worker threads, fixed below nproc: with one thread per core, a
/// core taken by another process stalls the slowest shard and so the step.
constexpr std::size_t kEngineThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "topkmon_perfbench: %s\nusage: topkmon_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double quantile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Everything the passes of one part of a run measured.
struct Measurement {
  std::vector<double> step_ms;  ///< per distinct step: the fastest of its repeats
  std::vector<double> setups;   ///< every episode's set-up time
  std::size_t passes = 0;
  std::uint64_t messages = 0;    ///< one pass
  std::uint64_t wire_bytes = 0;  ///< one pass
  bool profiler_attached = false;

  double steps_per_s() const {
    double total_ms = 0.0;
    for (double m : step_ms) total_ms += m;
    return ratio(static_cast<double>(step_ms.size()) * 1e3, total_ms);
  }
};

/// Runs passes until `budget_s` has passed and at least `min_passes` ran.
Measurement measure(const Workload& w, const EpisodeOptions& opt, double budget_s,
                    std::size_t min_passes) {
  Measurement m;
  AnswerChecker& checker = *opt.checker;
  std::vector<std::vector<double>> passes;  ///< step times, pass-major
  const std::uint64_t start = now_ns();
  const auto elapsed = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };
  for (;;) {
    checker.begin_pass();
    std::vector<double> steps;
    std::uint64_t messages = 0, wire_bytes = 0;
    for (std::size_t e = 0; e < w.episodes; ++e) {
      EpisodeOptions episode = opt;
      episode.seed = topkmon::splitmix_combine(opt.seed, e);
      const Episode ep = w.run(w, episode);
      m.setups.push_back(ep.setup_s);
      steps.insert(steps.end(), ep.step_ms.begin(), ep.step_ms.end());
      messages += ep.messages;
      wire_bytes += ep.wire_bytes;
      m.profiler_attached |= ep.profiler_attached;
    }
    checker.end_pass();
    if (passes.empty()) {
      m.messages = messages;
      m.wire_bytes = wire_bytes;
    } else if (messages != m.messages || wire_bytes != m.wire_bytes) {
      checker.fail("a replayed pass sent different message or byte counts");
    }
    double pass_ms = 0.0;
    for (double step : steps) pass_ms += step;
    std::fprintf(stderr, "pass %zu: %.2f steps/s\n", passes.size() + 1,
                 ratio(static_cast<double>(steps.size()) * 1e3, pass_ms));
    passes.push_back(std::move(steps));
    const double spent = elapsed();
    if ((spent >= budget_s && passes.size() >= min_passes) ||
        spent >= kHardCapSeconds || checker.failed() != 0) {
      break;
    }
  }
  m.passes = passes.size();
  std::size_t steps = passes.front().size();
  for (const std::vector<double>& pass : passes) steps = std::min(steps, pass.size());
  m.step_ms.resize(steps);  // a failed episode stops early
  for (std::size_t i = 0; i < steps; ++i) {
    double fastest = passes[0][i];
    for (const std::vector<double>& pass : passes) fastest = std::min(fastest, pass[i]);
    m.step_ms[i] = fastest;
  }
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const AnswerChecker& checker, const std::vector<Metric>& metrics) {
  std::printf("invalid_step_ratio = %.6g (%llu of %llu checked answers)\n",
              ratio(static_cast<double>(checker.failed()),
                    static_cast<double>(checker.attempted())),
              static_cast<unsigned long long>(checker.failed()),
              static_cast<unsigned long long>(checker.attempted()));
  if (!checker.first_failure().empty()) {
    std::printf("first failed check: %s\n", checker.first_failure().c_str());
  }
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("%s = %.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(), note.c_str());
}

std::vector<Metric> end_to_end(const Workload& w, const Measurement& m) {
  char tail_note[128];
  std::snprintf(tail_note, sizeof tail_note,
                " (p%g of %zu steps, each the fastest of its %zu repeats)", w.tail_pct,
                m.step_ms.size(), m.passes);
  const double steps = static_cast<double>(w.episodes) * static_cast<double>(w.steps);
  // step_p50_ms is printed but not gated: on engine_mix_16k about half the
  // steps take under 5 ms and the rest over 10 ms, so the median jumps
  // between the two from seed to seed.
  print_metric({"step_p50_ms", quantile(m.step_ms, 50.0), "ms"});
  std::vector<Metric> out = {
      {"steps_per_s", m.steps_per_s(), "1/s"},
      {"step_tail_ms", quantile(m.step_ms, w.tail_pct), "ms"},
      {"messages_per_step", static_cast<double>(m.messages) / steps, "count"},
      {"setup_s", quantile(m.setups, 50.0), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const Metric& metric : out) {
    print_metric(metric, metric.name == "step_tail_ms" ? tail_note : "");
  }
  if (w.net) {
    print_metric({"wire_bytes_per_step",
                  static_cast<double>(m.wire_bytes) / static_cast<double>(m.step_ms.size()),
                  "B"});
  }
  std::printf("step_ms deciles:");
  for (int d = 1; d <= 9; ++d) std::printf(" %.4g", quantile(m.step_ms, 10.0 * d));
  std::printf("\n");
  return out;
}

std::vector<Metric> per_layer(const Layers& l, double steps, double traced_rate,
                              double untraced_rate, double one_thread_rate) {
  const auto per_step = [&](const char* name) { return ratio(l.get(name), steps); };
  std::vector<Metric> out;
  for (const char* name :
       {"streams.gen_ms_per_step", "faults.inject_ms_per_step", "model.window_merge_ms_per_step",
        "model.order_update_ms_per_step", "model.sigma_ms_per_step",
        "sim.advance_time_ms_per_step", "sim.violation_collect_ms_per_step",
        "protocols.self_ms_per_step", "engine.snapshot_ms_per_step",
        "engine.shard_ms_per_step.max", "engine.shard_ms_per_step.mean",
        "engine.pool_wait_ms_per_step", "net.host_wait_ms_per_step",
        "net.coord_ms_per_step", "net.ack_wait_ms_per_step"}) {
    out.push_back({name, per_step(name), "ms"});
  }
  for (const char* name :
       {"faults.stale_reads_per_step", "model.window_expirations_per_step",
        "model.order_rebuilds_per_step", "sim.rounds_per_step",
        "protocols.msgs_per_step.existence", "protocols.msgs_per_step.violation",
        "protocols.msgs_per_step.probe", "protocols.msgs_per_step.filter_broadcast",
        "protocols.msgs_per_step.filter_unicast", "protocols.msgs_per_step.other",
        "engine.shared_probe_msgs_per_step", "net.frames_per_step"}) {
    out.push_back({name, per_step(name), "count"});
  }
  for (const char* name :
       {"net.bytes_up_per_step", "net.bytes_down_per_step", "net.wire_bytes_per_step"}) {
    out.push_back({name, per_step(name), "B"});
  }
  out.push_back({"protocols.us_per_message",
                 ratio(l.get("protocols.ms") * 1e3, l.get("messages")), "us"});
  out.push_back({"engine.shard_skew", ratio(l.get("engine.shard_ms_per_step.max"),
                                            l.get("engine.shard_ms_per_step.mean")),
                 "ratio"});
  out.push_back({"engine.probe_calls_per_rank",
                 ratio(l.get("engine.probe_calls"), l.get("engine.probe_ranks")), "ratio"});
  out.push_back({"engine.parallel_speedup", ratio(untraced_rate, one_thread_rate), "ratio"});
  out.push_back({"net.host_wait_skew", ratio(l.get("net.host_wait_ms_per_step"),
                                             l.get("net.host_wait_mean_ms")),
                 "ratio"});
  out.push_back({"net.encode_us_per_frame.shard_values",
                 ratio(l.get("net.encode_us"), l.get("net.values_frames")), "us"});
  out.push_back({"net.decode_us_per_frame.shard_values",
                 ratio(l.get("net.decode_us"), l.get("net.values_frames")), "us"});
  out.push_back({"net.bytes_per_changed_value",
                 ratio(l.get("net.wire_bytes_per_step"), l.get("net.changed_values")), "B"});
  out.push_back({"bench.trace_overhead_pct",
                 100.0 * ratio(untraced_rate - traced_rate, untraced_rate), "%"});
  for (const Metric& m : out) print_metric(m);
  return out;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *found;

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("workload %s seed=%llu: %s; passes of %zu episodes x %lld steps\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), w.params.c_str(),
              w.episodes, static_cast<long long>(w.steps));
  AnswerChecker checker;
  EpisodeOptions opt;
  opt.seed = args.seed;
  opt.threads = std::min<std::size_t>(kEngineThreads, nproc);
  opt.checker = &checker;
  std::printf("env: build_type=%s compiler=\"%s\" isa=%s telemetry=%s nproc=%u "
              "engine_threads=%zu "
              "load=closed-loop (one driver, next step after the previous answer)\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, topkmon::simd::active_isa(),
              topkmon::telemetry::kTelemetryEnabled ? "ON" : "OFF", nproc, opt.threads);
  const double distinct_steps =
      static_cast<double>(w.episodes) * static_cast<double>(w.steps - 1);
  if (distinct_steps * (1.0 - w.tail_pct / 100.0) < 10.0) {
    usage("the workload has too few steps for 10 to lie beyond its tail percentile");
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const Measurement m = measure(w, opt, args.seconds, kMinPasses);
    std::printf("profiler attached in timed runs: %s\n", m.profiler_attached ? "yes" : "no");
    if (m.profiler_attached) checker.fail("a profiler was attached to a timed run");
    metrics = end_to_end(w, m);
  } else {
    const double part = args.seconds / (w.engine ? 3.0 : 2.0);
    const Measurement untraced = measure(w, opt, part, 1);
    Tracer tracer(std::size_t{1} << 18);
    Layers layers;
    EpisodeOptions traced_opt = opt;
    traced_opt.tracer = &tracer;
    traced_opt.layers = &layers;
    const Measurement traced = measure(w, traced_opt, part, 1);
    double one_thread_rate = 0.0;
    if (w.engine) {
      EpisodeOptions serial = opt;
      serial.threads = 1;
      one_thread_rate = measure(w, serial, part, 1).steps_per_s();
    }
    std::printf("traced: %zu spans (%zu dropped) over %zu passes\n", tracer.size(),
                tracer.dropped(), traced.passes);
    const std::string path = args.spans.empty()
                                 ? "spans-" + w.name + "-" + std::to_string(args.seed) + ".json"
                                 : args.spans;
    if (!tracer.write_json(path)) checker.fail("cannot write spans to " + path);
    std::printf("spans: %s\n", path.c_str());
    metrics = per_layer(layers, static_cast<double>(traced.passes) * distinct_steps,
                        traced.steps_per_s(), untraced.steps_per_s(), one_thread_rate);
  }
  print_result(checker, metrics);
  return checker.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "topkmon_perfbench: %s\n", e.what());
    return 1;
  }
}
