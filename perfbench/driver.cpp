// End-to-end benchmark driver for the PolarFly simulator.
//
// One process runs one named workload: it builds the simulated system
// fresh several times (set-up), then simulates the workload's points
// again and again until the time budget is spent, timing every call into
// the library from outside. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it carry
// the simulated-statistics digest and the per-point statistics.
//
// Timing runs (--trace 0) keep tracing off and report the end-to-end
// metrics. The traced run (--trace 1) wraps the same calls in spans,
// keeps them in memory, writes them to --spans at exit, and reports the
// per-layer metrics, including each layer's self time and the tracing
// overhead (traced minus untraced pass time, measured in this process).
//
// An operation is one simulated point. A point fails when it stalls,
// does not converge (faulted points: leaves a measured packet neither
// delivered nor accounted as lost), leaves its application workload
// unfinished, or loses packets without a fault schedule. Every pass of a
// run must reproduce the first pass's digest exactly.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "exp/scenario.hpp"
#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "topo/registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace pf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, i == 0 ? 0 : i - 1)];
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double resident_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder. Disabled, span() just calls through.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  bool enabled = false;

  template <class F>
  void span(const std::string& name, F&& body) {
    if (!enabled) {
      body();
      return;
    }
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, current_});
    const int saved = current_;
    current_ = id;
    body();
    current_ = saved;
    spans_[static_cast<std::size_t>(id)].end = now();
  }

  /// Duration summed over spans with this exact name.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  }

  /// Self time (duration minus direct children) summed per layer, the
  /// layer being the span name up to its first '.'.
  std::map<std::string, double> self_by_layer() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "[\n";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                    "\"end\": %.9f, \"parent\": %d}%s\n",
                    i, s.name.c_str(), s.start, s.end, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Counts route() calls into the wrapped algorithm (traced run only).
class CountingRouting final : public sim::RoutingAlgorithm {
 public:
  explicit CountingRouting(std::unique_ptr<sim::RoutingAlgorithm> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  int max_hops() const override { return inner_->max_hops(); }
  void route(const sim::Network& net, int src, int dst, util::Rng& rng,
             sim::Route& out) const override {
    ++calls;
    inner_->route(net, src, dst, rng, out);
  }
  void route_degraded(const sim::Network& net, const graph::Graph& g,
                      const sim::DistanceOracle& oracle, int src, int dst,
                      util::Rng& rng, sim::Route& out) const override {
    ++calls;
    inner_->route_degraded(net, g, oracle, src, dst, rng, out);
  }

  mutable std::int64_t calls = 0;

 private:
  std::unique_ptr<sim::RoutingAlgorithm> inner_;
};

// ---- workloads -----------------------------------------------------------

/// One routing's points: simulated back to back on one network.
struct Segment {
  std::string routing;
  std::vector<double> loads;
};

struct WorkloadDef {
  std::string name;
  std::string topology;           ///< spec with p=, e.g. "pf:q=13,p=7"
  std::vector<Segment> segments;
  bool sweep = false;             ///< segments go through run_sweep_shard
  std::string app;                ///< Workload spec; "" = Bernoulli traffic
  bool flaps = false;             ///< seeded link-flap schedule, reinject
  int warmup = 0;
  int measure = 0;
  int drain = 0;
};

std::vector<double> load_grid(double lo, double hi, int count) {
  std::vector<double> loads;
  for (int i = 0; i < count; ++i) {
    loads.push_back(lo + (hi - lo) * i / (count - 1));
  }
  return loads;
}

/// The four workloads; `smoke` shrinks every one to PF q=7 with short
/// windows, keeping its shape (routings, sweep, app workload, flaps).
WorkloadDef workload_def(const std::string& name, bool smoke) {
  WorkloadDef w;
  w.name = name;
  if (name == "pf31_ugalpf_uniform") {
    w.topology = "pf:q=31,p=16";
    w.segments = {{"UGALPF", {0.3}}};
    w.warmup = 150, w.measure = 300, w.drain = 3000;
  } else if (name == "pf13_load_sweep") {
    w.topology = "pf:q=13,p=7";
    const auto loads = load_grid(0.05, 0.8, 12);
    w.segments = {{"MIN", loads}, {"UGALPF", loads}};
    w.sweep = true;
    w.warmup = 300, w.measure = 300, w.drain = 3000;
  } else if (name == "pf13_alltoall_replay") {
    w.topology = "pf:q=13,p=7";
    w.segments = {{"UGALPF", {0.5}}};
    w.app = "alltoall";
    w.warmup = 1000, w.measure = 4000, w.drain = 200000;
  } else if (name == "pf13_min_flaps") {
    w.topology = "pf:q=13,p=7";
    w.segments = {{"MIN", {0.3}}};
    w.flaps = true;
    w.warmup = 300, w.measure = 1500, w.drain = 3000;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (known: pf31_ugalpf_uniform pf13_load_sweep "
        "pf13_alltoall_replay pf13_min_flaps)");
  }
  if (smoke) {
    w.topology = "pf:q=7,p=4";
    for (Segment& s : w.segments) {
      if (s.loads.size() > 1) s.loads = load_grid(0.1, 0.9, 4);
    }
    w.warmup = std::min(w.warmup, 100);
    w.measure = std::min(w.measure, 300);
  }
  return w;
}

struct Seeds {
  std::uint64_t sim = 0;
  std::uint64_t pattern = 0;
  std::uint64_t workload = 0;
  std::uint64_t flap = 0;
};

/// The flap schedule: a seeded set of links that goes down and comes
/// back every `period` cycles through warmup and measurement.
exp::FailureSchedule flap_schedule(const WorkloadDef& w, std::uint64_t seed) {
  exp::FailureSchedule schedule;
  schedule.policy = "reinject";
  exp::FailureSchedule::Flap flap;
  flap.count = 8;
  flap.seed = seed;
  flap.down_at = 100;
  flap.up_after = 100;
  flap.period = 250;
  flap.repeats = (w.warmup + w.measure - 100) / 250;
  schedule.flaps.push_back(flap);
  return schedule;
}

// ---- set-up --------------------------------------------------------------

/// Everything a pass needs, built fresh (never through the scenario
/// registry's oracle cache, which would make a repeat set-up free).
struct System {
  exp::NetSetup net;
  /// One per segment.
  std::vector<std::unique_ptr<sim::RoutingAlgorithm>> routings;
  std::unique_ptr<sim::TrafficPattern> pattern;
  std::shared_ptr<const sim::Workload> app;
  std::size_t trace_bytes = 0;
  sim::SimConfig config;
  std::vector<std::unique_ptr<sim::Network>> networks;  ///< non-sweep only
};

std::unique_ptr<System> build_system(const WorkloadDef& w, const Seeds& seeds,
                                     Tracer& tr, bool count_routes) {
  auto sys = std::make_unique<System>();
  tr.span("bench.setup", [&] {
    topo::TopologySpec spec = topo::parse_topology_spec(w.topology);
    const int p = static_cast<int>(topo::extract_endpoints(spec));
    tr.span("topo.make_topology", [&] {
      topo::TopologyInstance inst =
          topo::make_topology(spec.family, spec.params);
      sys->net.name = inst.label;
      sys->net.endpoints = inst.endpoints(p);
      sys->net.polarfly = inst.polarfly;
      sys->net.graph = std::move(inst.graph);
    });
    tr.span("oracle.build", [&] {
      sys->net.oracle = std::make_shared<sim::DistanceOracle>(sys->net.graph);
    });
    tr.span("routing.make", [&] {
      for (const Segment& s : w.segments) {
        auto r = exp::make_routing(sys->net, s.routing);
        if (count_routes) r = std::make_unique<CountingRouting>(std::move(r));
        sys->routings.push_back(std::move(r));
      }
    });
    tr.span("workload.pattern", [&] {
      sys->pattern = exp::make_pattern(sys->net, "uniform", seeds.pattern);
    });
    if (!w.app.empty()) {
      std::shared_ptr<const sim::Workload> compiled;
      std::string text;
      tr.span("workload.compile", [&] {
        compiled = sim::Workload::make(w.app, sys->pattern->num_terminals(),
                                       seeds.workload);
      });
      tr.span("workload.capture", [&] { text = compiled->to_trace(); });
      compiled.reset();
      sys->trace_bytes = text.size();
      tr.span("workload.parse", [&] {
        sys->app = sim::Workload::from_trace(text, w.name);
      });
    }
    sys->config.warmup_cycles = w.warmup;
    sys->config.measure_cycles = w.measure;
    sys->config.drain_cycles = w.drain;
    sys->config.seed = seeds.sim;
    if (w.flaps) {
      tr.span("faults.compile", [&] {
        sys->config.faults =
            flap_schedule(w, seeds.flap).compile(sys->net.graph);
      });
    }
    if (!w.sweep) {
      tr.span("network.construct", [&] {
        for (std::size_t i = 0; i < w.segments.size(); ++i) {
          sys->networks.push_back(std::make_unique<sim::Network>(
              sys->net.graph, sys->net.endpoints, *sys->routings[i],
              *sys->pattern, sys->config, w.segments[i].loads.front(),
              sys->app.get()));
        }
      });
    }
  });
  return sys;
}

// ---- passes --------------------------------------------------------------

/// One point's statistics plus the accounting the failure checks need.
struct Point {
  exp::RunPoint run;
  std::int64_t lost = 0;  ///< measured packets lost (Network accessor)
  double seconds = 0.0;   ///< run_phases wall time (non-sweep points)
};

struct Pass {
  double wall = 0.0;
  std::vector<double> segment_wall;
  std::vector<Point> points;
  std::int64_t delivered = 0;
  std::int64_t hops = 0;
  std::int64_t cycles = 0;
  int peak_vc = 0;
  double reset_s = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  double drain_s = 0.0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void mix(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

exp::RunPoint read_point(const sim::Network& net) {
  exp::RunPoint p;
  p.offered = net.offered_load();
  p.accepted = net.accepted_load();
  p.avg_latency = net.avg_latency();
  p.p99_latency = net.p99_latency();
  p.converged = net.converged();
  p.mean_hops = net.mean_hops();
  p.cycles = net.current_cycle();
  p.stalled = net.stalled();
  if (net.workload_active()) {
    p.has_workload = true;
    p.workload_done = net.workload_done();
    p.workload_completion = net.workload_completion_cycles();
    p.workload_lost = net.workload_lost();
  }
  if (net.has_faults()) {
    const sim::DegradationStats& d = net.degradation();
    p.has_degradation = true;
    p.dropped = d.dropped;
    p.reinjected = d.reinjected;
    p.rerouted = d.rerouted;
    p.unreachable_dropped = d.unreachable_dropped;
    p.unreachable_pairs = net.unreachable_pairs();
  }
  return p;
}

void digest_point(Pass& pass, const exp::RunPoint& p) {
  pass.mix(p.offered);
  pass.mix(p.accepted);
  pass.mix(p.avg_latency);
  pass.mix(p.p99_latency);
  pass.mix(p.mean_hops);
  pass.mix(p.cycles);
  pass.mix(static_cast<std::int64_t>(p.converged) << 1 | p.stalled);
  pass.mix(p.workload_completion);
  pass.mix(p.workload_lost);
  pass.mix(p.dropped);
  pass.mix(p.reinjected);
  pass.mix(p.rerouted);
  pass.mix(p.unreachable_dropped);
  pass.mix(p.unreachable_pairs);
}

/// Simulates every point of the workload once on `sys` with `config`
/// (the set-up's config, or a variant for the comparison reruns).
Pass run_pass(const WorkloadDef& w, System& sys, const sim::SimConfig& config,
              Tracer& tr) {
  Pass pass;
  // A comparison rerun with another config needs networks of its own,
  // built before the clock starts; timed passes reuse the set-up's
  // networks via reset().
  std::vector<std::unique_ptr<sim::Network>> own(sys.networks.size());
  const bool variant = config.engine != sys.config.engine ||
                       config.telemetry.enabled !=
                           sys.config.telemetry.enabled ||
                       config.faults.empty() != sys.config.faults.empty();
  for (std::size_t s = 0; variant && s < own.size(); ++s) {
    own[s] = std::make_unique<sim::Network>(
        sys.net.graph, sys.net.endpoints, *sys.routings[s], *sys.pattern,
        config, w.segments[s].loads.front(), sys.app.get());
  }
  tr.span("bench.pass", [&] {
    for (std::size_t s = 0; s < w.segments.size(); ++s) {
      const auto seg_start = Clock::now();
      const std::vector<double>& loads = w.segments[s].loads;
      if (w.sweep) {
        std::vector<exp::RunPoint> points(loads.size());
        exp::SweepCounters counters;
        tr.span("sweep.run_sweep_shard", [&] {
          exp::run_sweep_shard(sys.net, *sys.routings[s], *sys.pattern,
                               config, loads, 0, 1, points, counters);
        });
        for (const exp::RunPoint& p : points) {
          pass.points.push_back({p, 0, 0.0});
        }
        pass.delivered += counters.delivered;
        pass.hops += counters.hops;
        pass.peak_vc = std::max(pass.peak_vc, counters.peak_vc);
        pass.reset_s += counters.reset_seconds;
        pass.warmup_s += counters.warmup_seconds;
        pass.measure_s += counters.measure_seconds;
        pass.drain_s += counters.drain_seconds;
      } else {
        sim::Network* net = variant ? own[s].get() : sys.networks[s].get();
        for (double load : loads) {
          const auto reset_start = Clock::now();
          tr.span("network.reset", [&] { net->reset(load); });
          pass.reset_s += seconds_since(reset_start);
          const auto run_start = Clock::now();
          tr.span("network.run_phases", [&] { net->run_phases(); });
          const double run_s = seconds_since(run_start);
          pass.points.push_back(
              {read_point(*net), net->measured_lost(), run_s});
          pass.delivered += net->delivered_packets();
          pass.hops += net->measured_hops();
          pass.peak_vc = std::max(pass.peak_vc, net->peak_vc_packets());
          pass.warmup_s += net->warmup_seconds();
          pass.measure_s += net->measure_seconds();
          pass.drain_s += net->drain_seconds();
        }
      }
      pass.segment_wall.push_back(seconds_since(seg_start));
    }
  });
  for (double t : pass.segment_wall) pass.wall += t;
  for (const Point& p : pass.points) {
    digest_point(pass, p.run);
    pass.cycles += p.run.cycles;
  }
  pass.mix(pass.delivered);
  pass.mix(pass.hops);
  return pass;
}

bool point_failed(const Point& p, const WorkloadDef& w, bool faulted) {
  const exp::RunPoint& r = p.run;
  if (r.stalled) return true;
  if (r.has_workload && !r.workload_done) return true;
  if (!faulted) return !r.converged || p.lost > 0 || r.workload_lost > 0;
  // Under faults a measured packet may be lost for good (no live path);
  // the point converged when every measured packet was delivered or
  // accounted as lost, i.e. the drain ended before its budget.
  const std::int64_t budget = std::int64_t{w.warmup} + w.measure + w.drain;
  return !r.converged && r.cycles >= budget;
}

bool saturated(const exp::RunPoint& p) { return p.accepted < p.offered - 0.02; }

// ---- probes (traced run) -------------------------------------------------

/// Per-call cost of fn() in ns: `batches` batches of `per_batch` calls,
/// percentiles over the batch means.
template <class F>
std::vector<double> time_calls(int batches, int per_batch, F&& fn) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < per_batch; ++i) fn();
    ns.push_back(seconds_since(start) * 1e9 / per_batch);
  }
  return ns;
}

std::vector<std::pair<int, int>> router_pairs(int n, std::uint64_t seed,
                                              std::size_t count) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> pairs;
  while (pairs.size() < count) {
    const int s = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int d = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (s != d) pairs.emplace_back(s, d);
  }
  return pairs;
}

// ---- output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_points(const Pass& pass) {
  std::printf("digest %016" PRIx64 "\n", pass.digest);
  std::printf("points offered accepted avg_latency p99_latency mean_hops "
              "cycles completion\n");
  for (const Point& p : pass.points) {
    std::printf("point %.6g %.9g %.9g %.9g %.9g %" PRId64 " %" PRId64 "\n",
                p.run.offered, p.run.accepted, p.run.avg_latency,
                p.run.p99_latency, p.run.mean_hops, p.run.cycles,
                p.run.workload_completion);
  }
  std::printf("totals delivered %" PRId64 " hops %" PRId64 " cycles %" PRId64
              "\n",
              pass.delivered, pass.hops, pass.cycles);
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  std::string spans;
  Seeds seeds;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  std::uint64_t seed = 0;
  // Unset seeds default to splitmix64(seed ^ (salt << 56)).
  struct SeedOption {
    const char* flag;
    std::uint64_t* slot;
    std::uint64_t salt;
    bool set;
  };
  SeedOption seed_options[] = {
      {"--flap-seed", &a.seeds.flap, 1, false},
      {"--pattern-seed", &a.seeds.pattern, 2, false},
      {"--sim-seed", &a.seeds.sim, 3, false},
      {"--workload-seed", &a.seeds.workload, 4, false}};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    SeedOption* option = nullptr;
    for (SeedOption& o : seed_options) {
      if (key == o.flag) option = &o;
    }
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans = value;
    } else if (option != nullptr) {
      *option->slot = std::stoull(value);
      option->set = true;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  for (const SeedOption& o : seed_options) {
    if (!o.set) *o.slot = splitmix(seed ^ (o.salt << 56));
  }
  return a;
}

int run(const Args& args) {
  const WorkloadDef w = workload_def(args.workload, args.smoke);
  std::printf("workload %s topology %s seeds sim=%" PRIu64 " pattern=%" PRIu64
              " workload=%" PRIu64 " flap=%" PRIu64 "\n",
              w.name.c_str(), w.topology.c_str(), args.seeds.sim,
              args.seeds.pattern, args.seeds.workload, args.seeds.flap);
  std::printf("compiler %s\n", __VERSION__);
  Tracer tr;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  auto check = [&](const Pass& pass, const Pass& reference) {
    for (const Point& p : pass.points) {
      ++attempted;
      if (point_failed(p, w, w.flaps)) ++failed;
    }
    if (pass.digest != reference.digest) {
      std::printf("digest mismatch %016" PRIx64 " != %016" PRIx64 "\n",
                  pass.digest, reference.digest);
      correct = false;
    }
  };

  if (!args.trace) {
    // Set-up: fresh each repetition until >= 3 reps and >= 2 s, at most
    // 200; the median is reported. The last one is kept for the passes.
    std::vector<double> setup_times;
    std::unique_ptr<System> sys;
    const auto setup_start = Clock::now();
    while (setup_times.size() < 200 &&
           (setup_times.size() < 3 || seconds_since(setup_start) < 2.0)) {
      sys.reset();
      const auto start = Clock::now();
      sys = build_system(w, args.seeds, tr, false);
      setup_times.push_back(seconds_since(start));
    }
    // Passes until the budget is spent; each segment's median wall time.
    std::vector<std::vector<double>> seg_times(w.segments.size());
    const auto run_start = Clock::now();
    const Pass first = run_pass(w, *sys, sys->config, tr);
    check(first, first);
    for (std::size_t s = 0; s < w.segments.size(); ++s) {
      seg_times[s].push_back(first.segment_wall[s]);
    }
    while (seconds_since(run_start) + first.wall <= args.seconds) {
      const Pass pass = run_pass(w, *sys, sys->config, tr);
      check(pass, first);
      for (std::size_t s = 0; s < w.segments.size(); ++s) {
        seg_times[s].push_back(pass.segment_wall[s]);
      }
    }
    print_points(first);
    double run_s = 0.0;
    for (const auto& t : seg_times) run_s += median(t);
    std::printf("setups %zu", setup_times.size());
    for (std::size_t s = 0; s < seg_times.size(); ++s) {
      std::printf("\n%s_s", w.segments[s].routing.c_str());
      for (double t : seg_times[s]) std::printf(" %.6g", t);
    }
    std::printf("\n");
    print_result(correct && failed == 0, attempted, failed,
                 {{"setup_s", median(setup_times), "s"},
                  {"run_s", run_s, "s"},
                  {"cycles_per_s", static_cast<double>(first.cycles) / run_s,
                   "1/s"},
                  {"hops_per_s", static_cast<double>(first.hops) / run_s,
                   "1/s"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}});
    return 0;
  }

  // ---- traced run ----
  tr.enabled = true;
  auto sys = build_system(w, args.seeds, tr, true);
  const double rss_setup = resident_mb();
  auto routes = [&] {
    std::int64_t n = 0;
    for (const auto& r : sys->routings) {
      n += static_cast<const CountingRouting&>(*r).calls;
    }
    return n;
  };
  // A warm-up pass (packet pools grow, caches fill), then an untraced and
  // a traced pass: their difference is the tracing overhead.
  tr.enabled = false;
  const Pass warm = run_pass(w, *sys, sys->config, tr);
  check(warm, warm);
  const Pass plain = run_pass(w, *sys, sys->config, tr);
  check(plain, warm);
  tr.enabled = true;
  const std::int64_t routes_before = routes();
  const Pass traced = run_pass(w, *sys, sys->config, tr);
  check(traced, plain);
  const std::int64_t route_calls = routes() - routes_before;
  tr.enabled = false;

  // Comparison reruns: cycle engine, telemetry on, faults off.
  sim::SimConfig cycle_cfg = sys->config;
  cycle_cfg.engine = sim::SimEngine::Cycle;
  const Pass cycle = run_pass(w, *sys, cycle_cfg, tr);
  check(cycle, plain);  // the engines must agree bit for bit
  sim::SimConfig telem_cfg = sys->config;
  telem_cfg.telemetry.enabled = true;
  const Pass telem = run_pass(w, *sys, telem_cfg, tr);
  check(telem, plain);  // telemetry never perturbs the statistics
  double faults_overhead = 0.0;
  if (w.flaps) {
    sim::SimConfig calm_cfg = sys->config;
    calm_cfg.faults = {};
    const Pass calm = run_pass(w, *sys, calm_cfg, tr);
    for (const Point& p : calm.points) {
      ++attempted;
      if (point_failed(p, w, false)) ++failed;
    }
    faults_overhead = plain.wall - calm.wall;
  }

  // Per-point time split by saturation, from per-point timings (a sweep
  // shard is opaque, so sweeps are re-run point by point here).
  double sat_s = 0.0;
  double unsat_s = 0.0;
  {
    std::vector<Point> timed = plain.points;
    if (w.sweep) {
      timed.clear();
      for (std::size_t s = 0; s < w.segments.size(); ++s) {
        sim::Network net(sys->net.graph, sys->net.endpoints, *sys->routings[s],
                         *sys->pattern, sys->config,
                         w.segments[s].loads.front(), sys->app.get());
        for (double load : w.segments[s].loads) {
          net.reset(load);
          const auto start = Clock::now();
          net.run_phases();
          timed.push_back({read_point(net), net.measured_lost(),
                           seconds_since(start)});
        }
      }
    }
    for (const Point& p : timed) {
      (saturated(p.run) ? sat_s : unsat_s) += p.seconds;
      if (w.sweep) {
        ++attempted;
        if (point_failed(p, w, false)) ++failed;
      }
    }
  }

  // Oracle probe: sample_min_path over a fixed pair sample.
  const int routers = sys->net.graph.num_vertices();
  const auto pairs = router_pairs(routers, args.seeds.sim, 4096);
  util::Rng probe_rng(args.seeds.sim);
  sim::Route route;
  std::size_t k = 0;
  const auto sample_ns = time_calls(2000, 16, [&] {
    const auto& [s, d] = pairs[k++ % pairs.size()];
    route.clear();
    route.push(s);
    sys->net.oracle->sample_min_path(sys->net.graph, s, d, probe_rng, route);
  });
  // Routing probe: route() on a live network stepped through warmup at
  // the segment's middle load.
  const std::size_t rs = w.segments.size() - 1;
  const std::vector<double>& probe_loads = w.segments[rs].loads;
  sim::Network live(sys->net.graph, sys->net.endpoints, *sys->routings[rs],
                    *sys->pattern, sys->config,
                    probe_loads[probe_loads.size() / 2], sys->app.get());
  for (int c = 0; c < w.warmup; ++c) live.step();
  const auto route_ns = time_calls(2000, 16, [&] {
    const auto& [s, d] = pairs[k++ % pairs.size()];
    route.clear();
    sys->routings[rs]->route(live, s, d, probe_rng, route);
  });

  const auto self = tr.self_by_layer();
  auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  std::int64_t rerouted = 0, reinjected = 0, dropped = 0, unreachable = 0;
  for (const Point& p : plain.points) {
    rerouted += p.run.rerouted;
    reinjected += p.run.reinjected;
    dropped += p.run.dropped + p.run.unreachable_dropped;
    unreachable += p.run.unreachable_pairs;
  }
  const double route_p50 = percentile(route_ns, 0.5);
  const double hops = static_cast<double>(plain.hops);
  print_points(plain);
  if (!args.spans.empty()) tr.write(args.spans);

  print_result(
      correct && failed == 0, attempted, failed,
      {{"topo.build_s", tr.total("topo.make_topology"), "s"},
       {"oracle.build_s", tr.total("oracle.build"), "s"},
       {"oracle.bytes", static_cast<double>(sys->net.oracle->matrix_bytes()),
        "B"},
       {"oracle.sample_ns.p50", percentile(sample_ns, 0.5), "ns"},
       {"oracle.sample_ns.p99", percentile(sample_ns, 0.99), "ns"},
       {"routing.route_ns.p50", route_p50, "ns"},
       {"routing.route_ns.p99", percentile(route_ns, 0.99), "ns"},
       {"routing.routes", static_cast<double>(route_calls), "count"},
       {"routing.share",
        route_p50 * 1e-9 * static_cast<double>(route_calls) / traced.wall,
        "ratio"},
       {"workload.compile_s", tr.total("workload.compile"), "s"},
       {"workload.capture_s", tr.total("workload.capture"), "s"},
       {"workload.parse_s", tr.total("workload.parse"), "s"},
       {"workload.trace_mb", static_cast<double>(sys->trace_bytes) / 1e6, "MB"},
       {"workload.packets",
        sys->app ? static_cast<double>(sys->app->total_packets()) : 0.0,
        "count"},
       {"network.construct_s", tr.total("network.construct"), "s"},
       {"network.reset_s", plain.reset_s, "s"},
       {"network.warmup_s", plain.warmup_s, "s"},
       {"network.measure_s", plain.measure_s, "s"},
       {"network.drain_s", plain.drain_s, "s"},
       {"network.ns_per_hop", hops > 0 ? plain.wall * 1e9 / hops : 0.0, "ns"},
       {"network.rss_setup_mb", rss_setup, "MB"},
       {"network.cycles", static_cast<double>(plain.cycles), "count"},
       {"network.delivered", static_cast<double>(plain.delivered), "count"},
       {"network.hops", hops, "count"},
       {"network.peak_vc_packets", static_cast<double>(plain.peak_vc),
        "count"},
       {"sweep.unsaturated_s", unsat_s, "s"},
       {"sweep.saturated_s", sat_s, "s"},
       {"sweep.overhead_s",
        plain.wall - plain.reset_s - plain.warmup_s - plain.measure_s -
            plain.drain_s,
        "s"},
       {"agenda.cycle_engine_s", cycle.wall, "s"},
       {"agenda.speedup", cycle.wall / plain.wall, "ratio"},
       {"faults.compile_s", tr.total("faults.compile"), "s"},
       {"faults.overhead_s", faults_overhead, "s"},
       {"faults.rerouted", static_cast<double>(rerouted), "count"},
       {"faults.reinjected", static_cast<double>(reinjected), "count"},
       {"faults.dropped", static_cast<double>(dropped), "count"},
       {"faults.unreachable_pairs", static_cast<double>(unreachable), "count"},
       {"telemetry.overhead_s", telem.wall - plain.wall, "s"},
       {"trace.overhead_s", traced.wall - plain.wall, "s"},
       {"bench.self_s", self_of("bench"), "s"},
       {"topo.self_s", self_of("topo"), "s"},
       {"oracle.self_s", self_of("oracle"), "s"},
       {"routing.self_s", self_of("routing"), "s"},
       {"workload.self_s", self_of("workload"), "s"},
       {"faults.self_s", self_of("faults"), "s"},
       {"network.self_s", self_of("network"), "s"},
       {"sweep.self_s", self_of("sweep"), "s"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf_e2e: %s\n", e.what());
    return 2;
  }
}
