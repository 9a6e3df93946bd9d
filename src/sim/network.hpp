// The cycle-level network simulator: input-queued virtual-channel
// routers in virtual cut-through mode with credit-based backpressure and
// a single-stage rotating-priority allocator (the extra sub-VCs of the
// bench configs compensate for the single stage; see bench/common.hpp).
//
// Model per cycle:
//   - each endpoint Bernoulli-generates packets at the offered load and
//     queues them at its router's injection port (open loop);
//   - source routing: the routing algorithm produces the full router path
//     at injection, reading live queue state for adaptive decisions;
//   - each output link forwards one packet every `packet_size` cycles to
//     the downstream input VC chosen by hop class (class = hop index,
//     sub-VCs split by packet id), if that VC has room for the packet;
//   - packets whose head has arrived at their destination eject through
//     their endpoint's ejection port (one flit per cycle per endpoint).
//
// Latency = birth (generation) to tail ejection, in cycles.
//
// Hot-loop layout: VC buffers are flat ring buffers (channel-major), a
// per-router backlog counter skips idle routers entirely, and each packet
// caches its current output channel id, so a blocked head costs a few
// loads instead of a binary search per cycle. `reset()` rewinds a network
// to its just-constructed state so sweeps reuse one instance instead of
// rebuilding the channel indexing per point; identical seeds produce
// bit-identical statistics either way.
//
// Injection is event-driven: each terminal owns its RNG stream and a
// next-injection time sampled in closed form from the geometric
// inter-arrival distribution of the Bernoulli(load/packet_size) process,
// and a min-heap of (time, terminal) wakes exactly the terminals due
// this cycle, O(arrivals log T) per cycle. The per-terminal streams make
// the process independent of wakeup order.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/telemetry.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace pf::sim {

class RoutingAlgorithm;
class DistanceOracle;

/// One timed topology change, applied at the start of the given cycle.
/// LinkDown/LinkUp name an undirected link (u, v); RouterDown names the
/// router in `u` and takes every incident link down with it.
struct FaultEvent {
  enum class Kind { LinkDown, LinkUp, RouterDown };
  Kind kind = Kind::LinkDown;
  std::int64_t cycle = 0;
  std::int32_t u = -1;
  std::int32_t v = -1;
};

/// What happens to packets caught on a link when it dies (buffered on it
/// or stranded mid-route with no live continuation).
enum class FaultPolicy {
  Drop,      ///< discard; measured losses are accounted, never waited on
  Reinject,  ///< send back to the source router's injection queue
};

/// A pre-sorted script of runtime faults the Network executes mid-run.
/// An empty timeline is the default and leaves the hot loop untouched.
struct FaultTimeline {
  std::vector<FaultEvent> events;
  FaultPolicy policy = FaultPolicy::Drop;
  /// A down-event's reconvergence ends when the delivered-flit rate
  /// (sliding window) recovers to this fraction of its pre-fault value.
  double recovery_band = 0.9;

  bool empty() const { return events.empty(); }
};

/// Degradation accounting, populated only when a timeline is present.
struct DegradationStats {
  std::int64_t dropped = 0;        ///< flushed off a dying link (Drop)
  std::int64_t reinjected = 0;     ///< sent back to source (Reinject)
  std::int64_t rerouted = 0;       ///< re-pathed around dead links
  std::int64_t unreachable_dropped = 0;  ///< no live path existed
  /// Per down-event (timeline order): cycles from the event until the
  /// delivery rate re-entered the recovery band; -1 = never recovered.
  std::vector<std::int64_t> reconvergence;
};

/// How run_phases() schedules the one simulator core. Both engines run
/// the same driver and allocator and produce bit-identical statistics
/// (gated in CI at rtol 0):
///   - Event: a global (cycle, router) agenda wakes a router only when
///     something can change for it (packet arrival, credit return,
///     injection, fault event); cycles with an empty agenda are skipped
///     wholesale, with telemetry windows and the fault recovery window
///     advanced over the gap in bulk.
///   - Cycle: the same driver with idle skipping and sleeping turned
///     off: every cycle is processed and wakes every backlogged router.
///     It is the reference that shows skipping and sleeping are exact.
enum class SimEngine { Event, Cycle };

/// "event" / "cycle" (suite key config.engine, pf_sim --engine).
const char* engine_name(SimEngine engine);
/// Parses an engine name; false (out untouched) if unrecognized.
bool parse_engine(const std::string& name, SimEngine& out);

struct SimConfig {
  int packet_size = 4;      ///< flits per packet
  int vcs = 16;             ///< virtual channels per input port
  int buf_per_port = 256;   ///< flit buffer per input port (split over VCs)
  int warmup_cycles = 3000;
  int measure_cycles = 4000;
  int drain_cycles = 8000;
  std::uint64_t seed = 42;
  /// Simulator core for run_phases(); bit-identical either way.
  SimEngine engine = SimEngine::Event;
  /// Progress watchdog: during measure/drain, if no packet is delivered
  /// for this many cycles while measured packets are outstanding, the
  /// run terminates with stalled() = true instead of spinning. 0 picks
  /// drain_cycles (always bounded); negative disables the watchdog.
  int stall_cycles = 0;
  /// Runtime failure script; empty (the default) costs nothing.
  FaultTimeline faults;
  /// Congestion/latency telemetry and packet tracing; default-off, and
  /// enabling it never perturbs the simulated statistics (telemetry
  /// draws no randomness from the simulation RNG streams).
  TelemetryConfig telemetry;
};

/// A source route: the router sequence hops[0..len), hops[0] = source.
struct Route {
  static constexpr int kMaxLen = 24;
  int len = 0;
  std::array<std::int32_t, kMaxLen> hops{};

  void clear() { len = 0; }
  void push(std::int32_t v) {
    if (len >= kMaxLen) throw std::length_error("route too long");
    hops[static_cast<std::size_t>(len++)] = v;
  }
  std::int32_t back() const {
    return hops[static_cast<std::size_t>(len - 1)];
  }
};

class Network {
 public:
  /// Validates the configuration up front: routes must fit Route::kMaxLen
  /// and `config.vcs` must cover one VC class per hop of `routing`
  /// (deadlock freedom) — both throw std::invalid_argument with the
  /// offending numbers instead of failing mid-simulation.
  /// A non-null `workload` switches the network into workload mode: the
  /// Bernoulli injection process is replaced by the workload's compiled,
  /// phase-gated send lists (pattern still provides the terminal ->
  /// router map), run_phases() runs until the workload completes or the
  /// warmup + measure + drain cycle budget is exhausted, and the
  /// workload_* accessors report completion. The workload must outlive
  /// the network and have num_ranks() == the terminal count.
  Network(const graph::Graph& g, const std::vector<int>& endpoints,
          const RoutingAlgorithm& routing, const TrafficPattern& pattern,
          const SimConfig& config, double load,
          const Workload* workload = nullptr);
  ~Network();  // out of line: degraded_oracle_ is incomplete here

  const graph::Graph& graph() const { return graph_; }
  const SimConfig& config() const { return config_; }

  /// Rewinds to the just-constructed state at a new offered load: all
  /// queues empty, cycle 0, RNG reseeded from config.seed. A reset
  /// network produces bit-identical statistics to a freshly constructed
  /// one, without rebuilding the channel indexing. Cost is O(state
  /// touched since the last reset), not O(network): per-channel and
  /// per-router state is cleared off dirty lists and the injection
  /// schedule is restored from construction-time RNG snapshots.
  void reset(double load);

  /// The congestion adaptive routing reads for link u -> v: flits
  /// buffered (or reserved) at the downstream end plus flits of injected
  /// packets at u still waiting for that link as their first hop — the
  /// source-side output queue of classic UGAL.
  int out_queue_flits(int u, int v) const {
    const auto c = static_cast<std::size_t>(channel_id(u, v));
    return channel_occupancy_[c] +
           waiting_for_output_[c] * config_.packet_size;
  }

  /// out_queue_flits as a fraction of the input-port buffer.
  double out_occupancy(int u, int v) const {
    return static_cast<double>(out_queue_flits(u, v)) /
           static_cast<double>(config_.buf_per_port);
  }

  /// Occupancy of the class-0 (first-hop) VCs of link u -> v relative to
  /// their own capacity — the congestion signal a source sees for a
  /// packet it is about to inject (fresh packets can only enter class 0,
  /// so normalizing by the whole port would never read "congested").
  double first_hop_occupancy(int u, int v) const;

  /// Advances one cycle in cycle mode (every backlogged router is
  /// visited). The agenda stays consistent, so run_phases() may follow
  /// under either engine.
  void step();

  /// Runs the standard warmup / measure / drain schedule.
  void run_phases();

  // --- measurement (valid after run_phases) ---
  double offered_load() const { return load_; }
  double accepted_load() const;   ///< flits/cycle/endpoint in measure phase
  double avg_latency() const;
  double p99_latency() const;
  bool converged() const;         ///< all measured packets delivered
  std::int64_t delivered_packets() const { return measured_delivered_; }

  // --- perf counters (for machine-readable run records) ---
  /// Total router hops of measured delivered packets.
  std::int64_t measured_hops() const { return measured_hops_; }
  /// Mean hop count of measured delivered packets.
  double mean_hops() const {
    return measured_delivered_ == 0
               ? 0.0
               : static_cast<double>(measured_hops_) /
                     static_cast<double>(measured_delivered_);
  }
  /// Deepest any single VC ring got (packets), since construction/reset.
  int peak_vc_packets() const { return peak_vc_packets_; }

  std::int64_t current_cycle() const { return cycle_; }

  // --- telemetry (valid after run_phases) ---
  bool telemetry_enabled() const { return telemetry_ != nullptr; }
  /// Extracts the per-point telemetry block (histograms, exact
  /// percentiles, link/VC time series, peak backlog). Empty block when
  /// telemetry is off.
  PointTelemetry collect_telemetry() const;
  /// The measured per-packet latency sample (delivery order).
  const std::vector<std::int64_t>& measured_latencies() const {
    return latencies_;
  }
  /// Wall-clock spent in each phase of the last run_phases() call.
  double warmup_seconds() const { return warmup_seconds_; }
  double measure_seconds() const { return measure_seconds_; }
  double drain_seconds() const { return drain_seconds_; }

  // --- runtime faults (valid when config.faults is non-empty) ---
  bool has_faults() const { return has_timeline_; }
  /// True when the progress watchdog terminated measure/drain early.
  bool stalled() const { return stalled_; }
  const DegradationStats& degradation() const { return degradation_; }
  /// Distinct (source router, destination router) pairs that had no live
  /// path when a packet between them needed one.
  std::int64_t unreachable_pairs() const {
    return static_cast<std::int64_t>(unreachable_seen_.size());
  }
  /// Measured packets lost to faults (never delivered, never waited on).
  std::int64_t measured_lost() const { return measured_lost_; }
  /// Whether the directed link u -> v is currently up.
  bool link_alive(int u, int v) const {
    return !has_timeline_ ||
           !channel_dead_[static_cast<std::size_t>(channel_id(u, v))];
  }

  // --- workload mode (valid when a workload was passed at construction) ---
  bool workload_active() const { return workload_mode_; }
  /// True when every rank progressed through every phase.
  bool workload_done() const { return wl_done_; }
  /// Cycles until the last rank finished its last phase, or the cycles
  /// actually simulated when the workload did not complete in budget.
  std::int64_t workload_completion_cycles() const {
    return wl_done_ ? wl_completion_cycle_ : cycle_;
  }
  /// Workload packets lost to faults (accounted as received so phase
  /// gating terminates; reported so the loss is never silent).
  std::int64_t workload_lost() const { return wl_lost_; }
  /// Per-phase completion cycle (the cycle the last rank left the
  /// phase); -1 for phases that never completed.
  const std::vector<std::int64_t>& workload_phase_cycles() const {
    return wl_phase_cycles_;
  }

 private:
  struct Packet {
    Route route;            ///< empty until first allocation (lazy routing)
    int hop = 0;            ///< index into route of the current router
    int src_router = 0;
    int dst_terminal = 0;
    int subvc = 0;
    std::int32_t out_channel = -1;  ///< cached id of the next link
    std::int64_t birth = 0;
    std::int64_t ready = 0;  ///< head-arrival time at the current router
    bool measured = false;
    std::int32_t trace_id = -1;  ///< >= 0 when sampled into the trace
    std::int32_t src_terminal = -1;  ///< sending rank (workload mode)
    std::int32_t wl_phase = 0;       ///< sender's phase (workload mode)
  };

  int channel_id(int u, int v) const;
  int vc_for(const Packet& packet) const {
    const int hop_class = std::min(packet.hop, classes_ - 1);
    return hop_class * subvcs_ + packet.subvc;
  }
  /// Flat index of one VC ring: channel-major, then VC.
  std::size_t ring_of(int channel, int vc) const {
    return static_cast<std::size_t>(channel) *
               static_cast<std::size_t>(vcs_used_) +
           static_cast<std::size_t>(vc);
  }
  /// Word and bit of channel c in its target router's in_nonempty_ span.
  std::size_t in_word(std::size_t c) const {
    return static_cast<std::size_t>(channel_target_[c]) * in_words_ +
           static_cast<std::size_t>(channel_in_bit_[c] >> 6);
  }
  std::uint64_t in_bit(std::size_t c) const {
    return 1ULL << (channel_in_bit_[c] & 63);
  }
  void reset_state();
  /// Rebuilds the injection schedule: restores the pre-captured
  /// post-first-draw RNG states and derives each first wakeup in closed
  /// form from the captured log1p(-u) — the draw itself is
  /// load-independent, only the denominator log1p(-p) changes per reset.
  /// The heap is refilled by make_heap; pop order from a min-heap of
  /// distinct (time, terminal) pairs depends only on its contents, never
  /// its layout.
  void reset_injection();
  /// Clears only channels/routers on the dirty lists (state touched
  /// since the previous reset) — O(touched), not O(network).
  void reset_arrays();
  /// Scalars, measurement, telemetry, and fault-residue reset.
  void reset_scalars();
  /// First-touch dirty tracking feeding reset_arrays. The byte
  /// flags make re-marking free; the lists bound the clear cost.
  void mark_channel(std::size_t c) {
    if (!channel_dirty_[c]) {
      channel_dirty_[c] = 1;
      dirty_channels_.push_back(static_cast<std::int32_t>(c));
    }
  }
  void mark_router(int v) {
    if (!router_dirty_[static_cast<std::size_t>(v)]) {
      router_dirty_[static_cast<std::size_t>(v)] = 1;
      dirty_routers_.push_back(v);
    }
  }
  /// Backlog transitions maintain the dirty-router list and the live
  /// active-router count (the saturation fast-path signal).
  void backlog_inc(int v) {
    if (router_backlog_[static_cast<std::size_t>(v)]++ == 0) {
      ++active_routers_;
      mark_router(v);
    }
  }
  void backlog_dec(int v) {
    if (--router_backlog_[static_cast<std::size_t>(v)] == 0) {
      --active_routers_;
    }
  }
  void inject_new_packets();
  /// Samples the gap (>= 1 cycles) to a terminal's next injection from
  /// its own stream; kNeverInject when the offered load is zero (or the
  /// gap would overflow the cycle counter).
  std::int64_t injection_gap(util::Rng& rng) const;
  /// Handles terminal t's due injection: inject (or defer while the
  /// source queue is over its backlog cap) and schedule the next wakeup.
  void process_due_terminal(int t);
  /// Queues a new packet from terminal t to `dst_terminal` at t's router
  /// (sub-VC drawn from t's stream) and wakes the router.
  Packet& inject_packet(int t, int dst_terminal);
  void schedule_terminal(int t, std::int64_t at);
  /// Switch allocation at router v: its non-empty input channels in
  /// rotating-priority order, then its injection pool.
  void allocate_router(int v);
  /// Drains one input channel: highest-VC-first grant attempts against
  /// the rotating-priority snapshot, popping every winner.
  void drain_channel(int v, int channel);
  bool try_dispatch(int packet_id, int at_router);  ///< grant check + move
  void eject(int packet_id);
  void release_packet(int packet_id);

  // --- agenda and phase driver ---
  /// Schedules router v to be examined at cycle `at` (clamped to now).
  void wake_router(int v, std::int64_t at);
  /// Earliest cycle at which anything can happen: a due wake bit, the
  /// agenda heap top, the injection heap top, or the next fault event.
  /// Always cycle_ under engine = cycle, which never skips.
  std::int64_t next_activity_cycle() const;
  /// Runs all due work for cycle_ and advances it by one. `wake_all`
  /// (cycle mode) first wakes every backlogged router.
  void process_cycle(bool wake_all);
  /// The one phase driver, for both engines and workload mode: advances
  /// to `end` (or until the workload completes), skipping idle spans
  /// wholesale under engine = event. `check_stall` arms the progress
  /// watchdog, which sets stalled() and stops the run; `drain_mode`
  /// stops as soon as no measured packet is outstanding.
  void advance(std::int64_t end, bool check_stall, bool drain_mode);
  /// Bulk-advances the fault recovery window over skipped cycles
  /// [from, to): feeds the final processed cycle's ejection delta at
  /// `from` (where recovery can settle) and zero-fills the rest.
  void advance_window_gap(std::int64_t from, std::int64_t to);

  // --- runtime-fault machinery (all no-ops when has_timeline_ is false) ---
  /// Feeds the ejections since the last call into cycle `at`'s slot of
  /// the delivered-flit window and settles the reconvergence clocks
  /// that re-entered their band.
  void feed_recovery_window(std::int64_t at);
  /// Applies events due this cycle and updates recovery tracking.
  /// True when at least one topology event was applied (the event core
  /// then wakes every backlogged router: any queued packet may need a
  /// re-path, flush, or revived link this very cycle).
  bool advance_faults();
  void apply_fault(const FaultEvent& event, std::size_t index);
  /// Kills both directions of (u, v) and evacuates their buffers.
  void kill_link(int u, int v);
  void flush_dead_channel(int channel);
  /// Rebuilds the degraded graph + oracle from the live links.
  void rebuild_degraded_view();
  /// True when the remaining route (from hop `from_hop`) uses a dead link.
  bool route_crosses_dead(const Route& route, int from_hop) const;
  /// Samples a fresh route avoiding dead links (bounded retries).
  /// False when no live route was found.
  bool pick_route(int src, int dst, Route& out);
  /// Re-paths a mid-flight packet from its current router on the degraded
  /// graph, keeping the hops already taken. False when stranded.
  bool reroute_mid(Packet& packet, int at_router);
  /// Sends a fault-hit packet back to its source's injection queue.
  void requeue_at_source(int packet_id);
  /// Discards a packet stranded with no live path.
  void drop_unreachable(int packet_id, int at_router);

  // --- workload mode (all no-ops when workload_mode_ is false) ---
  /// Rebuilds the per-rank progression state and schedules each rank's
  /// first eligible send (called from reset_scalars).
  void wl_reset();
  /// Terminal t's due wake in workload mode: inject the next eligible
  /// packet of the current phase, or reschedule for its release/pacing
  /// time. Idempotent — stale heap entries are harmless.
  void wl_process_due(int t);
  /// Advances rank r across every phase whose sends are all delivered
  /// and whose expected receives have arrived, stamping per-phase and
  /// workload completion cycles; schedules r's next send on entry into
  /// a phase with messages.
  void wl_advance(int r);
  /// A workload packet will never arrive (fault drop): account it as
  /// received/acked so phase gating still terminates, and count it.
  void wl_on_lost(const Packet& packet);
  /// Delivery bookkeeping shared by eject: receive + ack counters, then
  /// phase advancement for receiver and sender.
  void wl_on_delivery(const Packet& packet);

  // --- telemetry/trace helpers (no-ops unless telemetry_ is live) ---
  /// Maps a directed channel id back to its (upstream, downstream) pair.
  std::pair<int, int> channel_endpoints(std::size_t channel) const;
  void trace_inject(const Packet& packet, int terminal);
  /// Emits the full router path when a traced packet commits to a route.
  void trace_route(const Packet& packet, const char* event);
  void trace_hop(const Packet& packet, int at_router, int next_router);
  void trace_deliver(const Packet& packet, std::int64_t latency);
  void trace_drop(const Packet& packet, const char* reason);

  const graph::Graph& graph_;
  const RoutingAlgorithm& routing_;
  const TrafficPattern& pattern_;
  SimConfig config_;
  double load_ = 0.0;

  // Workload mode: compiled sends replace the Bernoulli process. All
  // progression state is rank-indexed (rank == terminal index); wl_recv_
  // is a flat ranks x phases table because receivers can run arbitrarily
  // far ahead of a slow sender through zero-expectation phases.
  const Workload* workload_ = nullptr;
  bool workload_mode_ = false;
  std::int64_t wl_pace_ = 1;  ///< min cycles between a rank's injections
  std::vector<std::int32_t> wl_phase_;     ///< current phase per rank
  std::vector<std::int32_t> wl_next_msg_;  ///< send cursor within phase
  std::vector<std::int32_t> wl_sent_;      ///< packets sent of cursor msg
  std::vector<std::int64_t> wl_unacked_;   ///< in-flight packets per rank
  std::vector<std::int64_t> wl_recv_;      ///< rank * phases + phase
  std::vector<std::int64_t> wl_next_ok_;   ///< pacing floor per rank
  std::vector<std::int32_t> wl_phase_left_;   ///< ranks not yet past phase
  std::vector<std::int64_t> wl_phase_cycles_; ///< completion cycle, -1 open
  int wl_ranks_done_ = 0;
  bool wl_done_ = false;
  std::int64_t wl_completion_cycle_ = -1;
  std::int64_t wl_lost_ = 0;

  static constexpr std::int64_t kNeverInject =
      std::int64_t{1} << 62;  ///< sentinel: terminal generates no traffic

  std::vector<int> endpoints_;  ///< endpoints per router
  std::vector<int> terminals_;  ///< terminal -> router
  std::vector<std::int64_t> terminal_eject_free_;
  std::vector<std::int64_t> terminal_inject_free_;

  // Event-driven injection: per-terminal RNG streams (destination and
  // sub-VC draws included, so wakeup order cannot perturb the process)
  // and the (time, terminal) min-heap that wakes due terminals.
  std::vector<util::Rng> terminal_rng_;
  std::vector<std::pair<std::int64_t, int>> inject_heap_;
  // Construction-time capture for the incremental reset: the fresh
  // per-terminal RNG states (inj_snap0_), the states after the one
  // uniform draw the first gap sample consumes (inj_snap1_), and that
  // draw's log1p(-u) — load-independent, so every reset can rebuild the
  // schedule with one division per terminal instead of re-deriving the
  // streams from splitmix and re-taking logs.
  std::vector<util::Rng> inj_snap0_;
  std::vector<util::Rng> inj_snap1_;
  std::vector<double> inj_log1m_u_;
  /// Hoisted denominator of injection_gap's inverse-CDF sample,
  /// log1p(-load/packet_size); the division itself is untouched so the
  /// sampled gaps stay bit-identical to the unhoisted form.
  double inj_log1m_p_ = 0.0;

  // The agenda. Two levels: bitmasks over routers for wakes due this
  // cycle / next cycle (the overwhelmingly common cases: O(routers/64)
  // per cycle, ascending router order for free), and a (cycle, router)
  // min-heap for far-future hints with a per-router tag suppressing
  // exact-duplicate pushes. Deterministic by construction: each cycle's
  // due set is drained in ascending router id, and same-cycle wakes only
  // ever target routers after the cursor.
  std::vector<std::int32_t> channel_source_;  ///< channel -> upstream
  /// channel -> its bit in the target router's in_nonempty_ span (its
  /// index in in_channels_[target]).
  std::vector<std::int32_t> channel_in_bit_;
  /// Per router, in_words_ words with one bit per incoming channel that
  /// holds packets; in_words_ = ceil(max in-degree / 64), at least 1.
  std::vector<std::uint64_t> in_nonempty_;
  std::size_t in_words_ = 1;
  std::vector<std::uint64_t> wake_now_;     ///< due at cycle_
  std::vector<std::uint64_t> wake_next_;    ///< due at cycle_ + 1
  std::vector<std::pair<std::int64_t, std::int32_t>> agenda_;  ///< far wakes
  std::vector<std::int64_t> agenda_tag_;  ///< last heap cycle per router
  /// Per-allocate outputs of try_dispatch for the self-rearm decision:
  /// dirty = state changed or the shared RNG was drawn (either forces a
  /// next-cycle revisit); hint = earliest cycle a blocked head could
  /// unblock for a reason nobody else will wake us for.
  bool ev_dirty_ = false;
  std::int64_t ev_hint_ = 0;

  // CSR-style directed channel indexing aligned with graph adjacency.
  std::vector<std::int64_t> channel_offset_;  ///< router -> first channel
  std::vector<std::int32_t> channel_target_;  ///< channel -> downstream
  std::vector<std::vector<int>> in_channels_; ///< router -> incoming ids
  std::vector<int> channel_occupancy_;        ///< reserved flits/channel
  /// Injected-but-not-yet-departed packets committed to each channel as
  /// their first hop (the source-side output queue).
  std::vector<int> waiting_for_output_;

  // Flat VC rings: ring r (see ring_of) owns slots
  // [r * vc_cap_packets_, (r + 1) * vc_cap_packets_) of ring_slots_.
  std::vector<std::int32_t> ring_slots_;      ///< packet ids
  std::vector<std::uint16_t> ring_head_;      ///< per ring
  std::vector<std::uint16_t> ring_size_;      ///< per ring
  std::vector<std::uint64_t> vc_nonempty_;    ///< per channel: VC bitmask
  std::vector<std::int64_t> link_busy_until_; ///< per channel serialization

  std::vector<std::vector<int>> injection_pool_;  ///< per router
  /// Packets queued at each router (VC rings + injection pool); routers
  /// at zero are never visited — the active-router worklist.
  std::vector<int> router_backlog_;
  /// Routers with backlog > 0 right now. Above kSaturatedNum/Den of the
  /// network the agenda stops paying heap churn for far wakes and polls
  /// via the next-cycle bitmask instead: an early visit of a blocked
  /// router is a no-op that draws no RNG (every action in the allocator
  /// is state/cycle-gated, exactly like cycle mode's per-cycle visits of
  /// every backlogged router), so the conversion is exact.
  int active_routers_ = 0;
  static constexpr int kSaturatedNum = 3;  ///< fast path at >= 3/4 active
  static constexpr int kSaturatedDen = 4;
  /// reset_arrays switches from per-dirty-channel clears to the
  /// contiguous full-array fills once more than 1/kBulkClearDiv of the
  /// channels are dirty (scattered stores lose to fill bandwidth there).
  static constexpr std::size_t kBulkClearDiv = 8;

  // Dirty tracking for the incremental reset: channels that ever held or
  // reserved a packet and routers that ever had backlog since the last
  // reset. reset_arrays clears exactly these.
  std::vector<std::int32_t> dirty_channels_;
  std::vector<char> channel_dirty_;
  std::vector<int> dirty_routers_;
  std::vector<char> router_dirty_;

  std::vector<Packet> packets_;
  std::vector<int> free_packets_;

  int vc_cap_packets_ = 1;  ///< packets per VC buffer
  int classes_ = 1;         ///< VC classes (hop based)
  int subvcs_ = 1;          ///< sub-VCs per class
  int vcs_used_ = 1;        ///< classes_ * subvcs_
  std::int64_t cycle_ = 0;
  util::Rng rng_;

  // Measurement state.
  bool measuring_ = false;
  std::int64_t measure_start_ = 0;
  std::int64_t measure_end_ = 0;
  std::int64_t measured_generated_ = 0;
  std::int64_t measured_delivered_ = 0;
  std::int64_t measured_flits_ejected_ = 0;
  std::int64_t measured_hops_ = 0;
  int peak_vc_packets_ = 0;
  std::vector<std::int64_t> latencies_;

  // Telemetry: null unless config.telemetry.enabled; every hook checks
  // the pointer, so the default path pays one predictable branch.
  std::unique_ptr<TelemetryCollector> telemetry_;
  double warmup_seconds_ = 0.0;
  double measure_seconds_ = 0.0;
  double drain_seconds_ = 0.0;

  // Runtime-fault state. Sized/maintained only when has_timeline_; the
  // default path never touches it beyond a single branch per step.
  bool has_timeline_ = false;
  bool any_dead_ = false;        ///< at least one link currently down
  std::size_t next_fault_ = 0;   ///< cursor into config_.faults.events
  std::size_t down_events_ = 0;  ///< reconvergence slots (non-LinkUp)
  std::vector<int> recon_slot_;  ///< event index -> reconvergence slot
  std::vector<char> channel_dead_;  ///< per directed channel
  std::vector<char> router_dead_;
  graph::Graph degraded_graph_;  ///< live links only (valid when any_dead_)
  std::unique_ptr<DistanceOracle> degraded_oracle_;
  DegradationStats degradation_;
  std::set<std::pair<int, int>> unreachable_seen_;
  std::int64_t measured_lost_ = 0;
  bool stalled_ = false;
  std::int64_t last_delivery_cycle_ = 0;
  // Sliding delivered-flit window feeding reconvergence detection.
  static constexpr int kRecoveryWindow = 64;
  std::vector<std::int64_t> window_;  ///< per-cycle ejected flits, ring
  std::int64_t window_total_ = 0;
  std::int64_t total_ejected_flits_ = 0;
  std::int64_t prev_total_flits_ = 0;
  struct PendingRecovery {
    std::size_t slot;        ///< index into degradation_.reconvergence
    std::int64_t at;         ///< event cycle
    double target;           ///< window_total_ level that ends the clock
  };
  std::vector<PendingRecovery> pending_recovery_;
};

}  // namespace pf::sim
