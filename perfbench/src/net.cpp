// Episodes of the networked workloads: a NetCoordinator and NodeHost threads
// over in-process loopback Transports, as run_networked_inproc wires them,
// with a timing wrapper between each Link and its Transport.
//
// The coordinator runs every step inside NetCoordinator::run(), so step
// boundaries are read off the frames on its links: a step starts when the
// first StepBegin goes out and its answer is out when the last StepAck comes
// back. Every coordinator-link send and receive happens on the coordinator's
// (the calling) thread, and so does the between-steps hook.
#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "episodes.hpp"
#include "model/oracle.hpp"
#include "net/coordinator.hpp"
#include "net/node_host.hpp"
#include "net/transport.hpp"
#include "protocols/registry.hpp"

namespace perfbench {

using namespace topkmon;
using net::MsgType;

namespace {

/// Node-hosts per networked run.
constexpr std::uint32_t kHosts = 2;

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// The type field of a wire frame: [u32 length][u16 version][u16 type]...
MsgType frame_type(const std::vector<std::uint8_t>& frame) {
  if (frame.size() < 8) return MsgType{0};
  return static_cast<MsgType>(frame[6] | (frame[7] << 8));
}

const char* span_name(bool sent, MsgType type) {
  switch (type) {
    case MsgType::kHello: return "net.recv.hello";
    case MsgType::kConfig: return "net.send.config";
    case MsgType::kStepBegin: return "net.send.step_begin";
    case MsgType::kShardValues: return "net.recv.shard_values";
    case MsgType::kFilterUpdate: return "net.send.filter_update";
    case MsgType::kStepAck: return "net.recv.step_ack";
    case MsgType::kShutdown: return "net.send.shutdown";
  }
  return sent ? "net.send.other" : "net.recv.other";
}

bool step_frame(MsgType t) {
  return t == MsgType::kStepBegin || t == MsgType::kShardValues ||
         t == MsgType::kFilterUpdate || t == MsgType::kStepAck;
}

/// The coordinator's lockstep exchange as its links see it.
class StepClock {
 public:
  StepClock(std::uint32_t hosts, Tracer* tracer)
      : values_ready_ns(hosts), values_frame(hosts), hosts_(hosts), tracer_(tracer) {}

  /// Runs after step t's last StepAck, outside every timed interval.
  std::function<void(TimeStep)> on_step_end;

  void sent(MsgType type, std::size_t bytes, std::uint64_t start, std::uint64_t end) {
    if (type == MsgType::kStepBegin && begins_++ == 0) {
      begin_ns = start;
      if (tracer_ != nullptr) step_span_ = tracer_->open("net.step", t_, start);
    }
    if (type == MsgType::kFilterUpdate) last_update_ns = end;
    count(type, bytes, /*up=*/false);
    if (tracer_ != nullptr) tracer_->add(span_name(true, type), start, end, t_);
  }

  void received(std::uint32_t host, const std::vector<std::uint8_t>& frame,
                std::uint64_t start, std::uint64_t end) {
    const MsgType type = frame_type(frame);
    count(type, frame.size(), /*up=*/true);
    if (tracer_ != nullptr) tracer_->add(span_name(false, type), start, end, t_);
    if (type == MsgType::kShardValues) {
      last_values_ns = end;
      if (tracer_ != nullptr) values_frame[host] = frame;
    }
    if (type == MsgType::kStepAck && ++acks_ == hosts_) {
      end_ns = end;
      if (tracer_ != nullptr) tracer_->close(step_span_);
      if (on_step_end) on_step_end(t_);
      ++t_;
      begins_ = acks_ = 0;
    }
  }

  // Timestamps of the step that just ended (read by on_step_end).
  std::uint64_t begin_ns = 0;        ///< first StepBegin about to go out
  std::uint64_t last_values_ns = 0;  ///< last ShardValues received
  std::uint64_t last_update_ns = 0;  ///< last FilterUpdate sent
  std::uint64_t end_ns = 0;          ///< last StepAck received

  /// Traced runs: when each host's ShardValues frame was ready to send,
  /// stamped on the host's thread before the frame is queued (the queue's
  /// lock orders the stamp before the coordinator receives the frame).
  std::vector<std::atomic<std::uint64_t>> values_ready_ns;
  /// Traced runs: each host's last ShardValues frame, re-timed between steps.
  std::vector<std::vector<std::uint8_t>> values_frame;

  // Frame counters. `steady` ones cover the step frames after step 0;
  // `all_bytes` covers every frame but Shutdown, which NetChannelStats in
  // RunResult::net also leaves out.
  std::uint64_t steady_bytes_up = 0, steady_bytes_down = 0, steady_frames = 0;
  std::uint64_t all_bytes = 0;

 private:
  void count(MsgType type, std::size_t bytes, bool up) {
    if (type != MsgType::kShutdown) all_bytes += bytes;
    if (t_ == 0 || !step_frame(type)) return;
    (up ? steady_bytes_up : steady_bytes_down) += bytes;
    ++steady_frames;
  }

  std::uint32_t hosts_;
  Tracer* tracer_;
  TimeStep t_ = 0;
  std::uint32_t begins_ = 0, acks_ = 0;
  int step_span_ = -1;
};

/// A Transport that timestamps each frame for the StepClock. On the
/// coordinator side it reports every frame; on a node-host side (traced runs
/// only) it stamps when the host's ShardValues frame is ready.
class TimingTransport final : public net::Transport {
 public:
  TimingTransport(std::unique_ptr<net::Transport> inner, StepClock* clock,
                  std::uint32_t host, bool coordinator_side)
      : inner_(std::move(inner)), clock_(clock), host_(host),
        coordinator_side_(coordinator_side) {}

  bool send(const std::vector<std::uint8_t>& frame) override {
    const MsgType type = frame_type(frame);
    if (!coordinator_side_) {
      if (type == MsgType::kShardValues) {
        clock_->values_ready_ns[host_].store(now_ns(), std::memory_order_relaxed);
      }
      return inner_->send(frame);
    }
    const std::uint64_t start = now_ns();
    const bool ok = inner_->send(frame);
    if (ok) clock_->sent(type, frame.size(), start, now_ns());
    return ok;
  }

  bool recv(std::vector<std::uint8_t>& frame) override {
    if (!coordinator_side_) return inner_->recv(frame);
    const std::uint64_t start = now_ns();
    if (!inner_->recv(frame)) return false;
    clock_->received(host_, frame, start, now_ns());
    return true;
  }

  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  StepClock* clock_;
  std::uint32_t host_;
  bool coordinator_side_;
};

/// The standalone in-process Simulator on the same spec: the networked run
/// must reproduce its model counters exactly.
RunResult standalone_run(const net::RunSpec& spec, std::vector<Value>& final_values) {
  SimConfig cfg;
  cfg.k = spec.stream.k;
  cfg.epsilon = spec.protocol_epsilon;
  cfg.seed = spec.seed;
  cfg.window = spec.window;
  cfg.threshold = spec.threshold;
  cfg.faults = make_fleet_schedule(spec.faults, spec.stream.n);
  Simulator sim(cfg, make_stream(spec.stream), make_protocol(spec.protocol));
  const RunResult result = sim.run(spec.steps);
  monitored_values(sim, final_values);
  return result;
}

/// Re-times the full-fleet generator each node-host runs per step, and
/// counts the values that change per step.
void retime_generator(const net::RunSpec& spec, TimeStep steps, Layers& layers) {
  const std::unique_ptr<StreamGenerator> gen = make_stream(spec.stream);
  Rng rng = Rng::derive(spec.seed, /*stream_id=*/0x5EED);  // as the hosts seed it
  ValueVector cur(spec.stream.n, 0), prev;
  const OutputSet none;
  const AdversaryView view{{}, &none, spec.stream.k, spec.protocol_epsilon};
  gen->init(cur, rng);
  std::uint64_t gen_ns = 0, changed = 0;
  for (TimeStep t = 1; t < steps; ++t) {
    prev = cur;
    const std::uint64_t a = now_ns();
    gen->step(t, view, cur, rng);
    gen_ns += now_ns() - a;
    for (std::size_t i = 0; i < cur.size(); ++i) changed += cur[i] != prev[i];
  }
  layers.add("streams.gen_ms_per_step", ms(gen_ns));
  layers.add("net.changed_values", static_cast<double>(changed));
}

}  // namespace

Episode run_networked(const net::RunSpec& base, TimeStep steps, const EpisodeOptions& opt) {
  Episode ep;
  AnswerChecker& checker = *opt.checker;
  const bool traced = opt.tracer != nullptr;
  net::RunSpec spec = base;
  spec.seed = opt.seed;
  spec.steps = steps;
  RunResult result;
  OutputSet output;

  // The networked system lives in this scope only, so the reference
  // Simulator of the bit-identity guard below does not add to its peak memory.
  {
    StepClock clock(kHosts, opt.tracer);
    telemetry::StepProfiler profiler;
    std::vector<Value> values;

    const std::uint64_t t0 = now_ns();
    std::vector<std::unique_ptr<net::Link>> coord_links, node_links;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      net::TransportPair pair = net::make_loopback_pair();
      coord_links.push_back(std::make_unique<net::Link>(
          std::make_unique<TimingTransport>(std::move(pair.a), &clock, h, true)));
      std::unique_ptr<net::Transport> node_side = std::move(pair.b);
      if (traced) {
        node_side = std::make_unique<TimingTransport>(std::move(node_side), &clock, h, false);
      }
      node_links.push_back(std::make_unique<net::Link>(std::move(node_side)));
    }
    net::NetCoordinator coordinator(spec, std::move(coord_links));
    if (traced) coordinator.sim().set_profiler(&profiler);
    std::vector<std::unique_ptr<net::NodeHost>> hosts;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      hosts.push_back(std::make_unique<net::NodeHost>(std::move(node_links[h]), h, kHosts));
    }

    PhaseTotals phases0;
    StatsSnapshot comm0;
    std::uint64_t rebuilds0 = 0;
    clock.on_step_end = [&](TimeStep t) {
      const Simulator& sim = coordinator.sim();
      if (t == 0) {
        ep.setup_s = static_cast<double>(clock.end_ns - t0) * 1e-9;
        phases0 = PhaseTotals::of(profiler);
        comm0 = StatsSnapshot::from(sim.context().stats());
        rebuilds0 = sim.fleet().order_if_ready()->rebuilds();
      } else {
        ep.step_ms.push_back(ms(clock.end_ns - clock.begin_ns));
        if (traced) {
          Layers& layers = *opt.layers;
          std::uint64_t slowest = 0, sum = 0;
          for (std::uint32_t h = 0; h < kHosts; ++h) {
            const std::uint64_t ready =
                clock.values_ready_ns[h].load(std::memory_order_relaxed);
            const std::uint64_t wait = ready > clock.begin_ns ? ready - clock.begin_ns : 0;
            slowest = std::max(slowest, wait);
            sum += wait;
          }
          layers.add("net.host_wait_ms_per_step", ms(slowest));
          layers.add("net.host_wait_mean_ms", ms(sum) / kHosts);
          layers.add("net.coord_ms_per_step", ms(clock.last_update_ns - clock.last_values_ns));
          layers.add("net.ack_wait_ms_per_step", ms(clock.end_ns - clock.last_update_ns));
          // Re-time the codec on the frames this step actually carried.
          for (const std::vector<std::uint8_t>& frame : clock.values_frame) {
            const std::uint64_t a = now_ns();
            const net::ShardValuesMsg msg = net::decode_shard_values(net::parse_frame(frame));
            const std::uint64_t b = now_ns();
            const std::vector<std::uint8_t> again = net::encode(msg);
            const std::uint64_t c = now_ns();
            if (again != frame) checker.fail("ShardValues frame does not re-encode identically");
            layers.add("net.decode_us", static_cast<double>(b - a) * 1e-3);
            layers.add("net.encode_us", static_cast<double>(c - b) * 1e-3);
            layers.add("net.values_frames", 1.0);
          }
        }
      }
      if (checker.validating()) monitored_values(sim, values);
      checker.check(sim.protocol(), sim.config().k, sim.config().epsilon,
                    sim.config().threshold, values, t);
    };

    std::vector<int> exits(kHosts, -1);
    std::vector<std::thread> threads;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      threads.emplace_back([&exits, &hosts, h] { exits[h] = hosts[h]->run(); });
    }
    try {
      result = coordinator.run();
    } catch (const std::exception& e) {
      checker.fail(std::string("networked run failed: ") + e.what());
    }
    for (std::thread& th : threads) th.join();

    for (std::uint32_t h = 0; h < kHosts; ++h) {
      if (exits[h] != 0) {
        checker.fail("node-host " + std::to_string(h) + " exited " +
                     std::to_string(exits[h]) + ": " + hosts[h]->error());
      }
    }
    if (coordinator.quiescence_errors() != 0) {
      checker.fail(std::to_string(coordinator.quiescence_errors()) + " quiescence errors");
    }
    if (clock.all_bytes != result.net.bytes_sent + result.net.bytes_recv) {
      checker.fail("timed frames disagree with NetChannelStats");
    }
    ep.messages = result.messages;
    ep.wire_bytes = clock.steady_bytes_up + clock.steady_bytes_down;
    ep.profiler_attached = coordinator.sim().profiler() != nullptr;
    output = coordinator.output();

    if (traced) {
      Layers& layers = *opt.layers;
      const Simulator& sim = coordinator.sim();
      add_simulator_layers(layers, phases0, PhaseTotals::of(profiler), comm0,
                           StatsSnapshot::from(sim.context().stats()));
      layers.add("model.order_rebuilds_per_step",
                 static_cast<double>(sim.fleet().order_if_ready()->rebuilds() - rebuilds0));
      layers.add("net.bytes_up_per_step", static_cast<double>(clock.steady_bytes_up));
      layers.add("net.bytes_down_per_step", static_cast<double>(clock.steady_bytes_down));
      layers.add("net.frames_per_step", static_cast<double>(clock.steady_frames));
      layers.add("net.wire_bytes_per_step", static_cast<double>(ep.wire_bytes));
    }
  }

  if (checker.validating()) {
    // Bit-identity guard: the wire must not change the paper's cost.
    std::vector<Value> final_values;
    StatsSnapshot model = result;
    model.net = NetChannelStats{};
    const RunResult expect = standalone_run(spec, final_values);
    if (!(model == static_cast<const StatsSnapshot&>(expect)) ||
        result.max_rounds_per_step != expect.max_rounds_per_step ||
        result.max_sigma != expect.max_sigma) {
      checker.fail("networked model counters differ from the in-process Simulator");
    }
    if (!Oracle::output_valid(final_values, spec.stream.k, spec.protocol_epsilon, output)) {
      checker.fail("final output F(T) invalid against the in-process values");
    }
  }
  if (traced) retime_generator(spec, steps, *opt.layers);
  return ep;
}

}  // namespace perfbench
