// Microbenchmarks: incremental Network::reset vs fresh construction —
// the acceptance configs of the O(touched)-cost reset change. Every case
// runs the SAME simulation and readies the network for the next point
// either by building a new one at the same config (arg 0, the reference
// reset() must match, old network's destruction included) or by
// reset() (arg 1, the dirty-list path); the two are bit-identical
// (enforced by test_sim), so the timings compare pure rewind cost.
//
// Regimes:
//   ResetCost      PF q=13 UGAL-PF at load 0.05 with a SHORT measure
//                  window — each iteration runs one point then times
//                  ONLY the reset back to the same load (PauseTiming
//                  around the run). Short windows are exactly where
//                  reset cost used to dominate many-point sweeps.
//   SweepQ13       PF q=13: whole points (reset + run) end to end, the
//                  cycles/s counter reporting sweep throughput.
//   SweepQ31       PF q=31 p=16 (993 routers at radix 32, the paper's
//                  Tab. V scale) on the auto-selected compact oracle:
//                  one sweep point per iteration at low load.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/polarfly.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"

namespace {

bool fresh_construction_of(const benchmark::State& state) {
  return state.range(0) == 0;
}

void set_reset_label(benchmark::State& state) {
  state.SetLabel(fresh_construction_of(state) ? "fresh-construction"
                                              : "incremental");
}

pf::sim::SimConfig short_window_config(int warmup, int measure, int drain) {
  pf::sim::SimConfig config;
  config.packet_size = 64;
  config.warmup_cycles = warmup;
  config.measure_cycles = measure;
  config.drain_cycles = drain;
  return config;
}

/// The network under test plus what it takes to build another one.
struct Bench {
  Bench(int q, int endpoints_per, const pf::sim::SimConfig& sim_config)
      : pf(q),
        oracle(pf.graph()),
        routing(pf.graph(), oracle, true, 2.0 / 3.0),
        endpoints(pf::sim::uniform_endpoints(pf.num_vertices(),
                                             endpoints_per)),
        pattern(pf::sim::terminal_routers(endpoints)),
        config(sim_config) {}

  std::unique_ptr<pf::sim::Network> build(double load) const {
    return std::make_unique<pf::sim::Network>(pf.graph(), endpoints, routing,
                                              pattern, config, load);
  }
  /// Readies `net` for the next point at `load` the way arg 0/1 asks.
  void rewind(const benchmark::State& state,
              std::unique_ptr<pf::sim::Network>& net, double load) const {
    if (fresh_construction_of(state)) {
      net = build(load);
    } else {
      net->reset(load);
    }
  }

  const pf::core::PolarFly pf;
  const pf::sim::DistanceOracle oracle;
  const pf::sim::UgalRouting routing;
  const std::vector<int> endpoints;
  const pf::sim::UniformTraffic pattern;
  const pf::sim::SimConfig config;
};

/// Pure reset cost: run one point outside the timer, time the rewind.
void bm_reset_cost(benchmark::State& state, int q, int endpoints_per,
                   double load, int warmup, int measure, int drain) {
  const Bench bench(q, endpoints_per,
                    short_window_config(warmup, measure, drain));
  set_reset_label(state);
  auto net = bench.build(load);
  for (auto _ : state) {
    state.PauseTiming();
    net->run_phases();  // dirty the state like a real sweep point
    benchmark::DoNotOptimize(net->accepted_load());
    state.ResumeTiming();
    bench.rewind(state, net, load);
  }
}

void BM_ResetCostQ13(benchmark::State& state) {
  bm_reset_cost(state, 13, 1, 0.05, 200, 500, 4000);
}
BENCHMARK(BM_ResetCostQ13)->Arg(0)->Arg(1);

void BM_ResetCostQ31(benchmark::State& state) {
  bm_reset_cost(state, 31, 16, 0.02, 200, 500, 4000);
}
BENCHMARK(BM_ResetCostQ31)->Arg(0)->Arg(1);

/// Whole sweep points (reset + run), counting simulated cycles per wall
/// second — end-to-end sweep throughput with short measure windows.
void bm_sweep(benchmark::State& state, int q, int endpoints_per,
              double load, int warmup, int measure, int drain) {
  const Bench bench(q, endpoints_per,
                    short_window_config(warmup, measure, drain));
  set_reset_label(state);
  auto net = bench.build(load);
  std::int64_t cycles = 0;
  bool first = true;
  for (auto _ : state) {
    if (!first) bench.rewind(state, net, load);
    first = false;
    net->run_phases();
    benchmark::DoNotOptimize(net->accepted_load());
    cycles += net->current_cycle();
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_SweepQ13(benchmark::State& state) {
  bm_sweep(state, 13, 1, 0.05, 200, 500, 4000);
}
BENCHMARK(BM_SweepQ13)->Arg(0)->Arg(1);

void BM_SweepQ31(benchmark::State& state) {
  bm_sweep(state, 31, 16, 0.02, 200, 500, 4000);
}
BENCHMARK(BM_SweepQ31)->Arg(0)->Arg(1);

}  // namespace
