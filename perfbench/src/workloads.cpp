// The benchmark's named workloads (BENCHMARK.json says why each is there).
// Δ = 2^20 throughout.
#include "episodes.hpp"

namespace perfbench {

using namespace topkmon;

namespace {

StreamSpec stream(const char* kind, std::size_t n, std::size_t k, double epsilon) {
  StreamSpec s;
  s.kind = kind;
  s.n = n;
  s.k = k;
  s.epsilon = epsilon;
  s.delta = Value{1} << 20;
  return s;
}

EngineWorkload engine_mix() {
  EngineWorkload w;
  w.stream = stream("zipf_bursty", 16384, 8, 0.1);
  const auto query = [](QueryKind kind, std::size_t k, double epsilon, Value bound) {
    QuerySpec q;
    q.kind = kind;
    q.protocol = default_protocol_for(kind);
    q.k = k;
    q.epsilon = epsilon;
    q.threshold = bound;
    return q;
  };
  const QuerySpec cycle[] = {
      query(QueryKind::kTopK, 8, 0.1, 0),
      query(QueryKind::kKSelect, 8, 0.1, 0),
      query(QueryKind::kThreshold, 3, 0.1, 700000),
      query(QueryKind::kTopK, 4, 0.05, 0),
      query(QueryKind::kTopK, 16, 0.2, 0),
  };
  for (std::size_t i = 0; i < 16; ++i) {
    QuerySpec q = cycle[i % 5];
    if (i % 3 == 2) q.window = 64;  // every third query is windowed
    w.queries.push_back(q);
  }
  w.fault_preset = "stragglers";
  return w;
}

net::RunSpec net(StreamSpec s) {
  net::RunSpec spec;
  spec.protocol_epsilon = s.epsilon;
  spec.stream = std::move(s);
  spec.protocol = "combined";
  return spec;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"engine_mix_16k",
       "MonitoringEngine, zipf_bursty, n=16384, 16 queries cycling topk(8,.1) "
       "kselect(8,.1) threshold(700000) topk(4,.05) topk(16,.2), every third W=64, "
       "stragglers, 2 worker threads",
       8, 100, 90.0, true, false,
       [](const Workload& w, const EpisodeOptions& o) {
         static const EngineWorkload mix = engine_mix();
         return run_engine(mix, w.steps, o);
       }},
      {"net_dense_65k",
       "NetCoordinator + 2 NodeHosts over loopback, random_walk, n=65536, k=8, "
       "eps=0.01, protocol combined",
       1, 600, 98.0, false, true,
       [](const Workload& w, const EpisodeOptions& o) {
         static const net::RunSpec spec = net(stream("random_walk", 65536, 8, 0.01));
         return run_networked(spec, w.steps, o);
       }},
  };
  return all;
}

}  // namespace perfbench
