#include "sim/network.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>

#include "sim/routing.hpp"

namespace pf::sim {

const char* engine_name(SimEngine engine) {
  return engine == SimEngine::Event ? "event" : "cycle";
}

bool parse_engine(const std::string& name, SimEngine& out) {
  if (name == "event") {
    out = SimEngine::Event;
    return true;
  }
  if (name == "cycle") {
    out = SimEngine::Cycle;
    return true;
  }
  return false;
}

Network::Network(const graph::Graph& g, const std::vector<int>& endpoints,
                 const RoutingAlgorithm& routing,
                 const TrafficPattern& pattern, const SimConfig& config,
                 double load, const Workload* workload)
    : graph_(g),
      routing_(routing),
      pattern_(pattern),
      config_(config),
      load_(load),
      workload_(workload),
      workload_mode_(workload != nullptr),
      endpoints_(endpoints),
      rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {
  const int n = g.num_vertices();
  if (static_cast<int>(endpoints_.size()) != n) {
    throw std::invalid_argument("endpoints size != num_vertices");
  }
  if (config_.packet_size < 1) {
    throw std::invalid_argument("Network: packet_size must be >= 1, got " +
                                std::to_string(config_.packet_size));
  }
  // Fail construction, not a mid-run Route::push: every route has
  // max_hops() links, i.e. max_hops() + 1 routers.
  if (routing_.max_hops() + 1 > Route::kMaxLen) {
    throw std::invalid_argument(
        "Network: routing " + routing_.name() + " produces routes of up to " +
        std::to_string(routing_.max_hops() + 1) +
        " routers, exceeding Route::kMaxLen = " +
        std::to_string(Route::kMaxLen));
  }
  // Deadlock freedom needs one VC class per hop; refuse configurations
  // that would silently fold multiple hop classes into one VC.
  if (config_.vcs < routing_.max_hops()) {
    throw std::invalid_argument(
        "Network: config.vcs = " + std::to_string(config_.vcs) + " < " +
        std::to_string(routing_.max_hops()) + " VC classes required by " +
        routing_.name() + " (one class per hop for deadlock freedom)");
  }
  if (config_.vcs > 64) {
    throw std::invalid_argument(
        "Network: config.vcs = " + std::to_string(config_.vcs) +
        " exceeds the 64-VC limit of the allocator bitmask");
  }
  terminals_ = terminal_routers(endpoints_);
  terminal_eject_free_.assign(terminals_.size(), 0);
  terminal_inject_free_.assign(terminals_.size(), 0);
  if (workload_mode_ &&
      workload_->num_ranks() != static_cast<int>(terminals_.size())) {
    throw std::invalid_argument(
        "Network: workload " + workload_->name() + " has " +
        std::to_string(workload_->num_ranks()) + " ranks but the topology "
        "provides " + std::to_string(terminals_.size()) + " terminals");
  }

  // VC organization: one class per possible hop, sub-VCs split the rest.
  classes_ = std::max(1, std::min(config_.vcs, routing_.max_hops()));
  subvcs_ = std::max(1, config_.vcs / classes_);
  vcs_used_ = classes_ * subvcs_;
  vc_cap_packets_ = std::max(
      1, config_.buf_per_port / vcs_used_ / std::max(1, config_.packet_size));
  if (vc_cap_packets_ > 0xffff) {
    throw std::invalid_argument(
        "Network: buf_per_port yields VC rings deeper than 65535 packets");
  }

  // Directed channel table aligned with the CSR adjacency.
  channel_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    channel_offset_[static_cast<std::size_t>(v) + 1] =
        channel_offset_[static_cast<std::size_t>(v)] + g.degree(v);
  }
  const auto num_channels =
      static_cast<std::size_t>(channel_offset_[static_cast<std::size_t>(n)]);
  channel_target_.reserve(num_channels);
  channel_source_.reserve(num_channels);
  channel_in_bit_.reserve(num_channels);
  in_channels_.assign(static_cast<std::size_t>(n), {});
  for (int v = 0; v < n; ++v) {
    for (const std::int32_t u : g.neighbors(v)) {
      auto& in = in_channels_[static_cast<std::size_t>(u)];
      in.push_back(static_cast<int>(channel_target_.size()));
      channel_target_.push_back(u);
      channel_source_.push_back(v);
      channel_in_bit_.push_back(static_cast<std::int32_t>(in.size() - 1));
    }
  }
  // One in-channel mask bit per incoming channel: routers past in-degree
  // 64 (PF q >= 64, say) take a span of several words.
  std::size_t max_in_degree = 0;
  for (const auto& in : in_channels_) {
    max_in_degree = std::max(max_in_degree, in.size());
  }
  in_words_ = std::max<std::size_t>(1, (max_in_degree + 63) / 64);
  in_nonempty_.assign(static_cast<std::size_t>(n) * in_words_, 0);
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  wake_now_.assign(words, 0);
  wake_next_.assign(words, 0);
  agenda_tag_.assign(static_cast<std::size_t>(n),
                     std::numeric_limits<std::int64_t>::min());
  channel_occupancy_.assign(num_channels, 0);
  waiting_for_output_.assign(num_channels, 0);
  const std::size_t num_rings =
      num_channels * static_cast<std::size_t>(vcs_used_);
  ring_slots_.assign(num_rings * static_cast<std::size_t>(vc_cap_packets_),
                     -1);
  ring_head_.assign(num_rings, 0);
  ring_size_.assign(num_rings, 0);
  vc_nonempty_.assign(num_channels, 0);
  link_busy_until_.assign(num_channels, 0);
  injection_pool_.assign(static_cast<std::size_t>(n), {});
  router_backlog_.assign(static_cast<std::size_t>(n), 0);
  channel_dirty_.assign(num_channels, 0);
  router_dirty_.assign(static_cast<std::size_t>(n), 0);

  // Capture the injection-stream snapshots the incremental reset
  // restores: the fresh per-terminal state, the state after the single
  // uniform draw of the first gap sample, and that draw's log1p(-u)
  // (the offered load only enters the gap through the denominator, so
  // the numerator is reusable across every reset).
  inj_snap0_.reserve(terminals_.size());
  inj_snap1_.reserve(terminals_.size());
  inj_log1m_u_.resize(terminals_.size());
  for (std::size_t t = 0; t < terminals_.size(); ++t) {
    util::Rng r(config_.seed +
                0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(t) + 1));
    inj_snap0_.push_back(r);
    inj_log1m_u_[t] = std::log1p(-r.uniform());
    inj_snap1_.push_back(r);
  }

  has_timeline_ = !config_.faults.empty();
  if (has_timeline_) {
    auto& events = config_.faults.events;
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.cycle < b.cycle;
                     });
    recon_slot_.assign(events.size(), -1);
    down_events_ = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent& ev = events[i];
      if (ev.kind == FaultEvent::Kind::RouterDown) {
        if (ev.u < 0 || ev.u >= n) {
          throw std::invalid_argument(
              "FaultTimeline: router " + std::to_string(ev.u) +
              " out of range [0, " + std::to_string(n) + ")");
        }
      } else {
        if (ev.u < 0 || ev.u >= n || ev.v < 0 || ev.v >= n ||
            !g.has_edge(ev.u, ev.v)) {
          throw std::invalid_argument(
              "FaultTimeline: link (" + std::to_string(ev.u) + ", " +
              std::to_string(ev.v) + ") is not in the graph");
        }
      }
      if (ev.kind != FaultEvent::Kind::LinkUp) {
        recon_slot_[i] = static_cast<int>(down_events_++);
      }
    }
    channel_dead_.assign(num_channels, 0);
    router_dead_.assign(static_cast<std::size_t>(n), 0);
  }
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<TelemetryCollector>(
        config_.telemetry, num_channels, n, classes_, config_.packet_size);
  }
  reset_state();  // builds the injection schedule; everything above holds
}

Network::~Network() = default;

void Network::reset(double load) {
  load_ = load;
  reset_state();
}

void Network::reset_state() {
  reset_injection();
  reset_arrays();
  reset_scalars();
}

void Network::reset_injection() {
  // The first wakeup is sampled as if the previous injection happened at
  // cycle -1, so P(first injection at cycle 0) is exactly the per-cycle
  // rate. No RNG stream is re-derived: the captured states are restored
  // and each first gap is recomputed from the captured log1p(-u) with
  // injection_gap's exact floor(log1p(-u) / log1p(-p)) arithmetic on the
  // exact same doubles.
  const double p =
      load_ / static_cast<double>(std::max(1, config_.packet_size));
  // Hoist the constant denominator of injection_gap's inverse-CDF sample
  // (one log1p per reset instead of one per packet); the division is
  // unchanged, so every sampled gap is bit-identical.
  inj_log1m_p_ = (p > 0.0 && p < 1.0) ? std::log1p(-p) : 0.0;
  inject_heap_.clear();
  if (workload_mode_ || p <= 0.0) {
    // Fresh streams and no Bernoulli schedule: at zero load
    // injection_gap returns kNeverInject without drawing, and workload
    // mode draws only sub-VCs from the streams while wl_reset seeds the
    // heap from the compiled sends.
    terminal_rng_ = inj_snap0_;
    return;
  }
  if (p >= 1.0) {
    // injection_gap returns 1 without drawing: fresh streams, every
    // terminal due at cycle -1 + 1 = 0.
    terminal_rng_ = inj_snap0_;
    for (std::size_t t = 0; t < terminals_.size(); ++t) {
      inject_heap_.emplace_back(0, static_cast<int>(t));
    }
    std::make_heap(inject_heap_.begin(), inject_heap_.end(),
                   std::greater<>());
    return;
  }
  terminal_rng_ = inj_snap1_;  // the one uniform draw is consumed
  for (std::size_t t = 0; t < terminals_.size(); ++t) {
    const double failures = std::floor(inj_log1m_u_[t] / inj_log1m_p_);
    if (!(failures < static_cast<double>(kNeverInject))) continue;
    const std::int64_t at =
        static_cast<std::int64_t>(std::max(0.0, failures));  // -1 + gap
    inject_heap_.emplace_back(at, static_cast<int>(t));
  }
  std::make_heap(inject_heap_.begin(), inject_heap_.end(), std::greater<>());
}

void Network::reset_arrays() {
  // O(touched): only channels that ever buffered/reserved a packet and
  // routers that ever had backlog since the previous reset are cleared.
  //
  // ring_head_ is deliberately NOT reset on this path: a VC ring's head
  // offset is unobservable — pushes land at (head + size) % cap and pops
  // read from head, so FIFO contents and order are identical for any
  // head. Only ring_size_ carries simulation state.
  //
  // After a run that drained every packet (free list back to full) with
  // no runtime fault timeline, the per-channel counters are already back
  // at zero by their own accounting — occupancy and vc_nonempty fall on
  // every pop, waiting_for_output_ on every source departure — and the
  // only residue is link_busy_until_'s stale timestamps, which would
  // read as "busy" against the restarted cycle counter.
  const bool drained_clean =
      !has_timeline_ && free_packets_.size() == packets_.size();
  if (drained_clean) {
    for (const std::int32_t ci : dirty_channels_) {
      const auto c = static_cast<std::size_t>(ci);
      link_busy_until_[c] = 0;
      channel_dirty_[c] = 0;
    }
  } else if (dirty_channels_.size() * kBulkClearDiv >=
             channel_occupancy_.size()) {
    // Mostly-dirty after an aborted drain: scattered per-channel stores
    // lose to the hardware's contiguous fill bandwidth.
    std::fill(channel_occupancy_.begin(), channel_occupancy_.end(), 0);
    std::fill(waiting_for_output_.begin(), waiting_for_output_.end(), 0);
    std::fill(ring_size_.begin(), ring_size_.end(), 0);
    std::fill(vc_nonempty_.begin(), vc_nonempty_.end(), 0);
    std::fill(link_busy_until_.begin(), link_busy_until_.end(), 0);
    for (const std::int32_t c : dirty_channels_) {
      channel_dirty_[static_cast<std::size_t>(c)] = 0;
    }
  } else {
    for (const std::int32_t ci : dirty_channels_) {
      const auto c = static_cast<std::size_t>(ci);
      channel_occupancy_[c] = 0;
      waiting_for_output_[c] = 0;
      vc_nonempty_[c] = 0;
      link_busy_until_[c] = 0;
      const std::size_t base = ring_of(ci, 0);
      std::fill_n(ring_size_.begin() + static_cast<std::ptrdiff_t>(base),
                  vcs_used_, std::uint16_t{0});
      channel_dirty_[c] = 0;
    }
  }
  dirty_channels_.clear();
  for (const int v : dirty_routers_) {
    const auto vi = static_cast<std::size_t>(v);
    router_backlog_[vi] = 0;
    injection_pool_[vi].clear();
    std::fill_n(in_nonempty_.begin() +
                    static_cast<std::ptrdiff_t>(vi * in_words_),
                in_words_, std::uint64_t{0});
    agenda_tag_[vi] = std::numeric_limits<std::int64_t>::min();
    router_dirty_[vi] = 0;
  }
  dirty_routers_.clear();
}

void Network::reset_scalars() {
  std::fill(terminal_eject_free_.begin(), terminal_eject_free_.end(), 0);
  std::fill(terminal_inject_free_.begin(), terminal_inject_free_.end(), 0);
  packets_.clear();
  free_packets_.clear();
  latencies_.clear();
  active_routers_ = 0;
  cycle_ = 0;
  rng_ = util::Rng(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  measuring_ = false;
  measure_start_ = 0;
  measure_end_ = 0;
  measured_generated_ = 0;
  measured_delivered_ = 0;
  measured_flits_ejected_ = 0;
  measured_hops_ = 0;
  peak_vc_packets_ = 0;
  stalled_ = false;
  measured_lost_ = 0;
  last_delivery_cycle_ = 0;
  if (telemetry_) telemetry_->reset();
  warmup_seconds_ = 0.0;
  measure_seconds_ = 0.0;
  drain_seconds_ = 0.0;
  total_ejected_flits_ = 0;
  prev_total_flits_ = 0;
  // O(routers / 64) words; the per-router agenda state is cleared by the
  // array pass above.
  std::fill(wake_now_.begin(), wake_now_.end(), 0);
  std::fill(wake_next_.begin(), wake_next_.end(), 0);
  agenda_.clear();
  if (has_timeline_) {
    next_fault_ = 0;
    any_dead_ = false;
    std::fill(channel_dead_.begin(), channel_dead_.end(), 0);
    std::fill(router_dead_.begin(), router_dead_.end(), 0);
    degradation_ = DegradationStats{};
    degradation_.reconvergence.assign(down_events_, -1);
    unreachable_seen_.clear();
    pending_recovery_.clear();
    window_.assign(kRecoveryWindow, 0);
    window_total_ = 0;
    degraded_oracle_.reset();
  }
  if (workload_mode_) wl_reset();
}

double Network::first_hop_occupancy(int u, int v) const {
  const int c = channel_id(u, v);
  std::size_t queued =
      static_cast<std::size_t>(waiting_for_output_[static_cast<std::size_t>(c)]);
  const std::size_t base = ring_of(c, 0);
  for (int vc = 0; vc < subvcs_; ++vc) {
    queued += ring_size_[base + static_cast<std::size_t>(vc)];
  }
  return static_cast<double>(queued) /
         static_cast<double>(static_cast<std::size_t>(subvcs_) *
                             static_cast<std::size_t>(vc_cap_packets_));
}

int Network::channel_id(int u, int v) const {
  const auto row = graph_.neighbors(u);
  const auto* it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) {
    throw std::invalid_argument("channel_id: no such link");
  }
  return static_cast<int>(channel_offset_[static_cast<std::size_t>(u)] +
                          (it - row.begin()));
}

std::int64_t Network::injection_gap(util::Rng& rng) const {
  const double p =
      load_ / static_cast<double>(std::max(1, config_.packet_size));
  if (p <= 0.0) return kNeverInject;
  if (p >= 1.0) return 1;
  // Closed-form geometric inter-arrival: one uniform draw per packet
  // instead of one Bernoulli draw per terminal per cycle. failures =
  // floor(log(1-u)/log(1-p)) is the standard inverse transform.
  const double u = rng.uniform();
  const double failures = std::floor(std::log1p(-u) / inj_log1m_p_);
  if (!(failures < static_cast<double>(kNeverInject))) return kNeverInject;
  return 1 + static_cast<std::int64_t>(std::max(0.0, failures));
}

void Network::schedule_terminal(int t, std::int64_t at) {
  inject_heap_.emplace_back(at, t);
  std::push_heap(inject_heap_.begin(), inject_heap_.end(),
                 std::greater<>());
}

void Network::process_due_terminal(int t) {
  if (workload_mode_) {
    wl_process_due(t);
    return;
  }
  const auto ti = static_cast<std::size_t>(t);
  if (has_timeline_ &&
      router_dead_[static_cast<std::size_t>(terminals_[ti])]) {
    return;  // no injection, no reschedule: the router is down
  }
  // Finite source queues: a terminal whose injection backlog is this many
  // packets deep defers the arrival until the queue drains back to the
  // cap. Below saturation the backlog never builds, so measurements are
  // unaffected; past saturation this keeps the open loop from spiralling
  // into pathological depth.
  const std::int64_t max_backlog =
      static_cast<std::int64_t>(16) * config_.packet_size;
  if (terminal_inject_free_[ti] > cycle_ + max_backlog) {
    schedule_terminal(t, terminal_inject_free_[ti] - max_backlog);
    return;
  }
  util::Rng& rng = terminal_rng_[ti];
  inject_packet(t, pattern_.destination(t, rng));
  const std::int64_t gap = injection_gap(rng);
  if (gap < kNeverInject) schedule_terminal(t, cycle_ + gap);
}

Network::Packet& Network::inject_packet(int t, int dst_terminal) {
  const auto ti = static_cast<std::size_t>(t);
  int id;
  if (free_packets_.empty()) {
    id = static_cast<int>(packets_.size());
    packets_.emplace_back();
  } else {
    id = free_packets_.back();
    free_packets_.pop_back();
    packets_[static_cast<std::size_t>(id)] = Packet{};
  }
  Packet& packet = packets_[static_cast<std::size_t>(id)];
  packet.src_router = terminals_[ti];
  packet.dst_terminal = dst_terminal;
  packet.subvc = static_cast<int>(
      terminal_rng_[ti].below(static_cast<std::uint64_t>(subvcs_)));
  packet.birth = cycle_;
  packet.ready = std::max(cycle_, terminal_inject_free_[ti]);
  terminal_inject_free_[ti] = packet.ready + config_.packet_size;
  packet.measured = measuring_;
  if (packet.measured) ++measured_generated_;
  injection_pool_[static_cast<std::size_t>(packet.src_router)].push_back(id);
  backlog_inc(packet.src_router);
  wake_router(packet.src_router, cycle_);
  if (telemetry_) {
    telemetry_->on_backlog(
        packet.src_router,
        router_backlog_[static_cast<std::size_t>(packet.src_router)]);
    if (telemetry_->tracing() && telemetry_->sample(t, packet.birth)) {
      packet.trace_id = telemetry_->assign_trace_id();
      trace_inject(packet, t);
    }
  }
  return packet;
}

void Network::inject_new_packets() {
  while (!inject_heap_.empty() && inject_heap_.front().first <= cycle_) {
    const int t = inject_heap_.front().second;
    std::pop_heap(inject_heap_.begin(), inject_heap_.end(),
                  std::greater<>());
    inject_heap_.pop_back();
    process_due_terminal(t);
  }
}

void Network::eject(int packet_id) {
  Packet& packet = packets_[static_cast<std::size_t>(packet_id)];
  const auto t = static_cast<std::size_t>(packet.dst_terminal);
  terminal_eject_free_[t] = cycle_ + config_.packet_size;
  last_delivery_cycle_ = cycle_;
  total_ejected_flits_ += config_.packet_size;
  const std::int64_t latency = cycle_ + config_.packet_size - packet.birth;
  if (cycle_ >= measure_start_ && cycle_ < measure_end_) {
    measured_flits_ejected_ += config_.packet_size;
  }
  if (packet.measured) {
    ++measured_delivered_;
    measured_hops_ += packet.route.len - 1;
    latencies_.push_back(latency);
    if (telemetry_) telemetry_->on_delivery(latency, packet.route.len - 1);
  }
  if (telemetry_ && packet.trace_id >= 0) trace_deliver(packet, latency);
  if (workload_mode_) wl_on_delivery(packet);
  release_packet(packet_id);
}

void Network::release_packet(int packet_id) {
  free_packets_.push_back(packet_id);
}

void Network::feed_recovery_window(std::int64_t at) {
  const std::int64_t delta = total_ejected_flits_ - prev_total_flits_;
  prev_total_flits_ = total_ejected_flits_;
  const auto slot = static_cast<std::size_t>(at % kRecoveryWindow);
  window_total_ += delta - window_[slot];
  window_[slot] = delta;
  for (std::size_t i = 0; i < pending_recovery_.size();) {
    if (static_cast<double>(window_total_) >= pending_recovery_[i].target) {
      degradation_.reconvergence[pending_recovery_[i].slot] =
          at - pending_recovery_[i].at;
      pending_recovery_[i] = pending_recovery_.back();
      pending_recovery_.pop_back();
    } else {
      ++i;
    }
  }
}

bool Network::advance_faults() {
  // Delivered-flit window (faults present only): feed the previous
  // cycle's ejections into the sliding window and settle reconvergence
  // clocks that have re-entered their band.
  feed_recovery_window(cycle_);
  const auto& events = config_.faults.events;
  bool changed = false;
  while (next_fault_ < events.size() &&
         events[next_fault_].cycle <= cycle_) {
    apply_fault(events[next_fault_], next_fault_);
    changed = true;
    ++next_fault_;
  }
  if (changed) rebuild_degraded_view();
  return changed;
}

void Network::apply_fault(const FaultEvent& event, std::size_t index) {
  if (event.kind == FaultEvent::Kind::LinkUp) {
    channel_dead_[static_cast<std::size_t>(channel_id(event.u, event.v))] = 0;
    channel_dead_[static_cast<std::size_t>(channel_id(event.v, event.u))] = 0;
    return;
  }
  // The reconvergence clock starts from the pre-fault delivery rate.
  const int rslot = recon_slot_[index];
  if (rslot >= 0) {
    pending_recovery_.push_back(
        {static_cast<std::size_t>(rslot), cycle_,
         config_.faults.recovery_band * static_cast<double>(window_total_)});
  }
  if (event.kind == FaultEvent::Kind::LinkDown) {
    kill_link(event.u, event.v);
    return;
  }
  // RouterDown: the router, all incident links, and its terminals.
  router_dead_[static_cast<std::size_t>(event.u)] = 1;
  for (const std::int32_t v : graph_.neighbors(event.u)) {
    kill_link(event.u, static_cast<int>(v));
  }
}

void Network::kill_link(int u, int v) {
  const int cuv = channel_id(u, v);
  const int cvu = channel_id(v, u);
  if (channel_dead_[static_cast<std::size_t>(cuv)]) return;  // already down
  channel_dead_[static_cast<std::size_t>(cuv)] = 1;
  channel_dead_[static_cast<std::size_t>(cvu)] = 1;
  flush_dead_channel(cuv);
  flush_dead_channel(cvu);
}

void Network::flush_dead_channel(int channel) {
  const auto c = static_cast<std::size_t>(channel);
  mark_channel(c);
  const int target = channel_target_[c];
  int flushed = 0;
  for (int vc = 0; vc < vcs_used_; ++vc) {
    const std::size_t ring = ring_of(channel, vc);
    const int size = ring_size_[ring];
    for (int k = 0; k < size; ++k) {
      const int packet_id = ring_slots_
          [ring * static_cast<std::size_t>(vc_cap_packets_) +
           static_cast<std::size_t>((ring_head_[ring] + k) %
                                    vc_cap_packets_)];
      if (telemetry_) telemetry_->on_class_dequeue(vc / subvcs_);
      if (config_.faults.policy == FaultPolicy::Reinject) {
        requeue_at_source(packet_id);
      } else {
        Packet& packet = packets_[static_cast<std::size_t>(packet_id)];
        ++degradation_.dropped;
        if (packet.measured) ++measured_lost_;
        if (telemetry_ && packet.trace_id >= 0) {
          trace_drop(packet, "drop_fault");
        }
        if (workload_mode_) wl_on_lost(packet);
        release_packet(packet_id);
      }
      ++flushed;
    }
    ring_size_[ring] = 0;
    ring_head_[ring] = 0;
  }
  vc_nonempty_[c] = 0;
  channel_occupancy_[c] = 0;
  link_busy_until_[c] = 0;
  in_nonempty_[in_word(c)] &= ~in_bit(c);
  if (flushed != 0) {
    router_backlog_[static_cast<std::size_t>(target)] -= flushed;
    if (router_backlog_[static_cast<std::size_t>(target)] == 0) {
      --active_routers_;
    }
  }
}

void Network::rebuild_degraded_view() {
  const int n = graph_.num_vertices();
  std::vector<graph::Edge> live;
  bool any_dead = false;
  for (int u = 0; u < n; ++u) {
    const auto row = graph_.neighbors(u);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const bool dead = channel_dead_[static_cast<std::size_t>(
          channel_offset_[static_cast<std::size_t>(u)] +
          static_cast<std::int64_t>(k))] != 0;
      any_dead = any_dead || dead;
      if (!dead && u < row[k]) live.emplace_back(u, row[k]);
    }
  }
  any_dead_ = any_dead;
  degraded_graph_ = graph::Graph::from_edges(n, std::move(live));
  degraded_oracle_ = std::make_unique<DistanceOracle>(degraded_graph_);
}

bool Network::route_crosses_dead(const Route& route, int from_hop) const {
  for (int h = from_hop; h + 1 < route.len; ++h) {
    const int c = channel_id(route.hops[static_cast<std::size_t>(h)],
                             route.hops[static_cast<std::size_t>(h) + 1]);
    if (channel_dead_[static_cast<std::size_t>(c)]) return true;
  }
  return false;
}

bool Network::pick_route(int src, int dst, Route& out) {
  // Bounded rejection sampling: most algorithms can avoid a dead link on
  // a retry (adaptive ones route on the degraded view directly); MIN
  // keeps its intact tables, so pairs whose minimal paths are all dead
  // exhaust the retries and report unreachable.
  constexpr int kRetries = 4;
  for (int attempt = 0; attempt < kRetries; ++attempt) {
    out.clear();
    if (any_dead_) {
      routing_.route_degraded(*this, degraded_graph_, *degraded_oracle_,
                              src, dst, rng_, out);
    } else {
      routing_.route(*this, src, dst, rng_, out);
    }
    if (out.len >= 2 && !route_crosses_dead(out, 0)) return true;
  }
  out.clear();
  return false;
}

bool Network::reroute_mid(Packet& packet, int at_router) {
  const int dst_router = pattern_.router_of(packet.dst_terminal);
  if (at_router == dst_router) {
    // A detour already passing through the destination: just stop here.
    packet.route.len = packet.hop + 1;
    packet.out_channel = -1;
    return true;
  }
  Route tail;
  if (!pick_route(at_router, dst_router, tail)) return false;
  if (packet.hop + tail.len > Route::kMaxLen) return false;
  // Keep the hops already taken, splice the live continuation on.
  packet.route.len = packet.hop + 1;
  for (int h = 1; h < tail.len; ++h) {
    packet.route.push(tail.hops[static_cast<std::size_t>(h)]);
  }
  packet.out_channel = -1;
  return true;
}

void Network::requeue_at_source(int packet_id) {
  Packet& packet = packets_[static_cast<std::size_t>(packet_id)];
  packet.route.clear();
  packet.hop = 0;
  packet.out_channel = -1;
  packet.ready = cycle_;
  ++degradation_.reinjected;
  injection_pool_[static_cast<std::size_t>(packet.src_router)]
      .push_back(packet_id);
  backlog_inc(packet.src_router);
  if (telemetry_) {
    telemetry_->on_backlog(
        packet.src_router,
        router_backlog_[static_cast<std::size_t>(packet.src_router)]);
    if (packet.trace_id >= 0) trace_drop(packet, "reinject");
  }
}

void Network::drop_unreachable(int packet_id, int at_router) {
  (void)at_router;
  Packet& packet = packets_[static_cast<std::size_t>(packet_id)];
  ++degradation_.unreachable_dropped;
  unreachable_seen_.emplace(packet.src_router,
                            pattern_.router_of(packet.dst_terminal));
  if (packet.measured) ++measured_lost_;
  if (telemetry_ && packet.trace_id >= 0) {
    trace_drop(packet, "drop_unreachable");
  }
  if (workload_mode_) wl_on_lost(packet);
  release_packet(packet_id);
}

/// Attempts to grant the packet (currently at `at_router`, head ready)
/// its next move: ejection at the destination or one hop forward.
/// Returns true when the packet left the current buffer.
bool Network::try_dispatch(int packet_id, int at_router) {
  Packet& packet = packets_[static_cast<std::size_t>(packet_id)];
  if (packet.ready > cycle_) {
    if (packet.ready < ev_hint_) ev_hint_ = packet.ready;
    return false;
  }

  // Incremental invalidation: a committed route whose remainder crosses a
  // link that has since died is re-pathed (or the packet disposed of per
  // policy) the next time the packet bids for the switch.
  if (has_timeline_ && packet.route.len != 0 &&
      packet.hop < packet.route.len - 1 &&
      route_crosses_dead(packet.route, packet.hop)) {
    if (packet.hop == 0) {
      // Still at the source: forget the choice and re-route fresh below.
      if (packet.out_channel >= 0) {
        --waiting_for_output_[static_cast<std::size_t>(packet.out_channel)];
      }
      packet.route.clear();
      packet.out_channel = -1;
      ++degradation_.rerouted;
    } else {
      ev_dirty_ = true;  // reroute_mid draws the shared RNG either way
      if (reroute_mid(packet, at_router)) {
        ++degradation_.rerouted;
        if (telemetry_ && packet.trace_id >= 0) {
          trace_route(packet, "reroute");
        }
      } else if (config_.faults.policy == FaultPolicy::Reinject) {
        requeue_at_source(packet_id);
        // The source's pool grew; it processes later this same cycle
        // only if its id is still ahead of the agenda cursor.
        wake_router(packet.src_router,
                    packet.src_router > at_router ? cycle_ : cycle_ + 1);
        return true;  // caller pops the buffer slot
      } else {
        drop_unreachable(packet_id, at_router);
        return true;
      }
    }
  }

  // Lazy routing: decided when the packet first gets a shot at the
  // switch, so adaptive schemes read fresh congestion state.
  if (packet.route.len == 0) {
    const int dst_router =
        pattern_.router_of(packet.dst_terminal);
    if (packet.src_router == dst_router) {
      packet.route.push(packet.src_router);
    } else if (!has_timeline_) {
      // Every branch below draws the shared RNG: the agenda must
      // revisit this router next cycle exactly when cycle mode's visit
      // would draw again (notably pick_route failing every cycle
      // for an unreachable Reinject-policy packet).
      ev_dirty_ = true;
      routing_.route(*this, packet.src_router, dst_router, rng_,
                     packet.route);
      // The packet now queues for its chosen first link.
      packet.out_channel =
          channel_id(packet.src_router, packet.route.hops[1]);
      mark_channel(static_cast<std::size_t>(packet.out_channel));
      ++waiting_for_output_[static_cast<std::size_t>(packet.out_channel)];
      if (telemetry_ && packet.trace_id >= 0) trace_route(packet, "route");
    } else if ((ev_dirty_ = true,
                pick_route(packet.src_router, dst_router, packet.route))) {
      packet.out_channel =
          channel_id(packet.src_router, packet.route.hops[1]);
      mark_channel(static_cast<std::size_t>(packet.out_channel));
      ++waiting_for_output_[static_cast<std::size_t>(packet.out_channel)];
      if (telemetry_ && packet.trace_id >= 0) trace_route(packet, "route");
    } else if (config_.faults.policy == FaultPolicy::Reinject) {
      // Stay queued at the source: a link_up may restore a path.
      unreachable_seen_.emplace(packet.src_router, dst_router);
      return false;
    } else {
      drop_unreachable(packet_id, at_router);
      return true;
    }
  }

  if (packet.hop == packet.route.len - 1) {
    // At the destination router: eject through the terminal's port.
    const std::int64_t eject_free =
        terminal_eject_free_[static_cast<std::size_t>(packet.dst_terminal)];
    if (eject_free > cycle_) {
      if (eject_free < ev_hint_) ev_hint_ = eject_free;
      return false;
    }
    eject(packet_id);
    return true;
  }

  if (packet.out_channel < 0) {
    const int next =
        packet.route.hops[static_cast<std::size_t>(packet.hop) + 1];
    packet.out_channel = channel_id(at_router, next);
  }
  const auto out = static_cast<std::size_t>(packet.out_channel);
  if (link_busy_until_[out] > cycle_) {  // link serializing
    if (link_busy_until_[out] < ev_hint_) ev_hint_ = link_busy_until_[out];
    return false;
  }

  // packet.hop is still the 0-based index of the link being taken, so
  // the first hop lands in class 0 — matching the class assignment the
  // deadlock checker certifies.
  const int vc = vc_for(packet);
  const std::size_t ring = ring_of(static_cast<int>(out), vc);
  const int size = ring_size_[ring];
  if (size >= vc_cap_packets_) {
    return false;  // no downstream credit
  }
  ++packet.hop;
  mark_channel(out);
  ring_slots_[ring * static_cast<std::size_t>(vc_cap_packets_) +
              static_cast<std::size_t>((ring_head_[ring] + size) %
                                       vc_cap_packets_)] = packet_id;
  ring_size_[ring] = static_cast<std::uint16_t>(size + 1);
  if (size + 1 > peak_vc_packets_) peak_vc_packets_ = size + 1;
  vc_nonempty_[out] |= 1ULL << vc;
  link_busy_until_[out] = cycle_ + config_.packet_size;
  channel_occupancy_[out] += config_.packet_size;
  backlog_inc(channel_target_[out]);
  // The head arrives downstream next cycle (packet.ready below).
  in_nonempty_[in_word(out)] |= in_bit(out);
  wake_router(channel_target_[out], cycle_ + 1);
  if (telemetry_) {
    telemetry_->on_forward(out);
    telemetry_->on_class_enqueue(vc / subvcs_);
    telemetry_->on_backlog(
        channel_target_[out],
        router_backlog_[static_cast<std::size_t>(channel_target_[out])]);
    if (packet.trace_id >= 0) {
      trace_hop(packet, at_router,
                packet.route.hops[static_cast<std::size_t>(packet.hop)]);
    }
  }
  if (packet.hop == 1 && packet.route.len >= 2) {
    // Departed the source: leave that first-hop waiting queue.
    --waiting_for_output_[out];
  }
  packet.ready = cycle_ + 1;  // head arrives downstream next cycle
  packet.out_channel = -1;    // recomputed at the downstream router
  return true;
}

void Network::drain_channel(int v, int c) {
  std::uint64_t mask = vc_nonempty_[static_cast<std::size_t>(c)];
  while (mask != 0) {
    // Highest VC first: higher hop classes are closer to delivery, and
    // draining them first keeps overload from jamming the intermediate
    // buffers with half-way packets.
    const int vc = 63 - __builtin_clzll(mask);
    mask &= ~(1ULL << vc);
    const std::size_t ring = ring_of(c, vc);
    const int packet_id =
        ring_slots_[ring * static_cast<std::size_t>(vc_cap_packets_) +
                    ring_head_[ring]];
    if (try_dispatch(packet_id, v)) {
      ring_head_[ring] = static_cast<std::uint16_t>(
          (ring_head_[ring] + 1) % vc_cap_packets_);
      const std::uint16_t remaining = --ring_size_[ring];
      if (remaining == 0) {
        vc_nonempty_[static_cast<std::size_t>(c)] &= ~(1ULL << vc);
        if (vc_nonempty_[static_cast<std::size_t>(c)] == 0) {
          in_nonempty_[in_word(static_cast<std::size_t>(c))] &=
              ~in_bit(static_cast<std::size_t>(c));
        }
      }
      ev_dirty_ = true;
      if (static_cast<int>(remaining) + 1 == vc_cap_packets_) {
        // Credit return from a previously-full ring: the upstream
        // router may have a head blocked on exactly this VC. Same
        // cycle if it still lies ahead of the agenda cursor.
        const int u = channel_source_[static_cast<std::size_t>(c)];
        wake_router(u, u > v ? cycle_ : cycle_ + 1);
      }
      channel_occupancy_[static_cast<std::size_t>(c)] -=
          config_.packet_size;
      backlog_dec(v);
      if (telemetry_) telemetry_->on_class_dequeue(vc / subvcs_);
    }
  }
}

void Network::allocate_router(int v) {
  // Transit before injection: in-network packets get first claim on the
  // output links, otherwise saturated sources starve every through-flow
  // and the network gridlocks instead of plateauing.
  //
  // Rotating priority over the input channels: every router historically
  // bumped its arbiter pointer once per cycle, so the pointer equals the
  // cycle count and the walk starts at cycle_ mod in-degree. Only
  // channels with queued packets are visited, in the order the full
  // rotated walk would reach them (empty channels are no-ops there, so
  // the drains are identical). A drain clears only its own channel's
  // bit, so the masks can be read as the walk goes.
  const auto& incoming = in_channels_[static_cast<std::size_t>(v)];
  const std::uint64_t* pending =
      &in_nonempty_[static_cast<std::size_t>(v) * in_words_];
  const std::uint64_t mask = pending[0];
  if (in_words_ == 1 && (mask & (mask - 1)) == 0) {
    // At most one candidate makes the rotation irrelevant.
    if (mask != 0) {
      drain_channel(v, incoming[static_cast<std::size_t>(
                           __builtin_ctzll(mask))]);
    }
  } else if (!incoming.empty()) {
    // Walk the words from the one holding bit `start`, taking its bits
    // >= start first and wrapping back to its bits < start last.
    const std::size_t start =
        static_cast<std::size_t>(cycle_) % incoming.size();
    const std::size_t first = start >> 6;
    const std::uint64_t before = (1ULL << (start & 63)) - 1;
    for (std::size_t i = 0; i <= in_words_; ++i) {
      std::size_t w = first + i;
      if (w >= in_words_) w -= in_words_;
      std::uint64_t m = pending[w];
      if (i == 0) m &= ~before;
      if (i == in_words_) m &= before;
      while (m != 0) {
        const int k = __builtin_ctzll(m);
        m &= m - 1;
        drain_channel(v, incoming[(w << 6) + static_cast<std::size_t>(k)]);
      }
    }
  }

  // Injection pool last, first-come-first-served with a bounded scan.
  // Single stable compaction pass: an element is examined while its
  // live index (reads minus dispatches) is under the scan cap — the
  // exact set the old erase-per-dispatch loop examined — and survivors
  // slide down in order, O(pool) per call instead of O(pool) per grant.
  auto& pool = injection_pool_[static_cast<std::size_t>(v)];
  const std::size_t scan =
      std::min(pool.size(),
               static_cast<std::size_t>(
                   4 * endpoints_[static_cast<std::size_t>(v)] + 8));
  std::size_t read = 0;
  std::size_t write = 0;
  std::size_t dispatched = 0;
  while (read < pool.size() && read - dispatched < scan) {
    if (try_dispatch(pool[read], v)) {
      ++dispatched;
      ++read;
      backlog_dec(v);
    } else {
      pool[write++] = pool[read++];
    }
  }
  if (dispatched != 0) {
    ev_dirty_ = true;
    while (read < pool.size()) pool[write++] = pool[read++];
    pool.resize(write);
  }
}

void Network::step() { process_cycle(true); }

void Network::wake_router(int v, std::int64_t at) {
  const auto word = static_cast<std::size_t>(v) >> 6;
  const std::uint64_t bit = 1ULL << (static_cast<unsigned>(v) & 63);
  if (at <= cycle_) {
    wake_now_[word] |= bit;
  } else if (at == cycle_ + 1 ||
             active_routers_ * kSaturatedDen >=
                 graph_.num_vertices() * kSaturatedNum) {
    // Saturation fast path: with most routers backlogged the per-cycle
    // wake-word scan is being paid anyway, so a far wake degrades to
    // next-cycle polling instead of heap churn. Early visits of a
    // blocked router are exact no-ops (no state change, no RNG draw) —
    // cycle mode visits every backlogged router every cycle — so
    // this changes cost only, never statistics.
    wake_next_[word] |= bit;
  } else {
    // Far wake: heap of (cycle, router), exact duplicates suppressed.
    if (agenda_tag_[static_cast<std::size_t>(v)] == at) return;
    agenda_tag_[static_cast<std::size_t>(v)] = at;
    agenda_.emplace_back(at, v);
    std::push_heap(agenda_.begin(), agenda_.end(), std::greater<>());
  }
}

std::int64_t Network::next_activity_cycle() const {
  if (config_.engine == SimEngine::Cycle) return cycle_;  // never skips
  for (const std::uint64_t w : wake_now_) {
    if (w != 0) return cycle_;
  }
  std::int64_t at = std::numeric_limits<std::int64_t>::max();
  if (!agenda_.empty()) at = agenda_.front().first;
  if (!inject_heap_.empty()) at = std::min(at, inject_heap_.front().first);
  if (has_timeline_ && next_fault_ < config_.faults.events.size()) {
    at = std::min(at, config_.faults.events[next_fault_].cycle);
  }
  return std::max(at, cycle_);
}

void Network::process_cycle(bool wake_all) {
  const bool topology_changed = has_timeline_ && advance_faults();
  if (wake_all || topology_changed) {
    // Cycle mode wakes every backlogged router every cycle. So does a
    // topology change under either engine: flushes already requeued
    // packets, committed routes may now cross dead links, revived links
    // unblock heads — every queued packet anywhere may behave
    // differently (this also keeps the shared-RNG re-path draws on
    // cycle mode's schedule).
    const int n = graph_.num_vertices();
    for (int v = 0; v < n; ++v) {
      if (router_backlog_[static_cast<std::size_t>(v)] != 0) {
        wake_now_[static_cast<std::size_t>(v) >> 6] |=
            1ULL << (static_cast<unsigned>(v) & 63);
      }
    }
  }
  inject_new_packets();
  while (!agenda_.empty() && agenda_.front().first <= cycle_) {
    const int v = agenda_.front().second;
    std::pop_heap(agenda_.begin(), agenda_.end(), std::greater<>());
    agenda_.pop_back();
    wake_now_[static_cast<std::size_t>(v) >> 6] |=
        1ULL << (static_cast<unsigned>(v) & 63);
  }
  // Drain due routers in ascending id, the order cycle mode visits every
  // backlogged router in. Wakes produced for this same cycle (credits to
  // a higher-id upstream, requeues to a higher-id source) only ever set
  // bits ahead of the cursor, so one forward pass sees everything.
  for (std::size_t w = 0; w < wake_now_.size(); ++w) {
    while (wake_now_[w] != 0) {
      const int b = __builtin_ctzll(wake_now_[w]);
      wake_now_[w] &= wake_now_[w] - 1;
      const int v = static_cast<int>((w << 6) + static_cast<std::size_t>(b));
      if (router_backlog_[static_cast<std::size_t>(v)] == 0) continue;
      ev_dirty_ = false;
      ev_hint_ = std::numeric_limits<std::int64_t>::max();
      allocate_router(v);
      // The sleep decision runs in cycle mode too, where the next wake-all
      // overrides it: the agenda then stays exact whichever engine runs
      // the next cycle (step() followed by an event-engine run_phases()).
      if (router_backlog_[static_cast<std::size_t>(v)] != 0) {
        if (ev_dirty_) {
          // Something moved or the shared RNG was drawn: cycle mode's
          // next visit could act (or draw) too.
          wake_next_[w] |= 1ULL << static_cast<unsigned>(b);
        } else if (ev_hint_ != std::numeric_limits<std::int64_t>::max()) {
          wake_router(v, ev_hint_);
        }
        // No hint and not dirty: every head is blocked on a full ring
        // (the freeing pop wakes us) or an unroutable wait (fault
        // events wake us); sleeping is exact.
      }
    }
  }
  if (telemetry_) telemetry_->end_cycle();
  ++cycle_;
  // wake_now_ was fully drained above; the swap hands it over as the
  // (empty) accumulator and promotes next-cycle wakes for the new cycle_.
  std::swap(wake_now_, wake_next_);
}

void Network::advance_window_gap(std::int64_t from, std::int64_t to) {
  // First skipped cycle: feed the ejection delta left by the last
  // processed cycle (its ejections landed after its advance_faults ran)
  // and give pending recovery clocks their one chance to settle — past
  // `from` every slot update subtracts, window_total_ is nonincreasing,
  // and a clock that cannot settle at `from` cannot settle in the gap.
  feed_recovery_window(from);
  // Zero-fill the remaining skipped slots; after kRecoveryWindow of
  // them the ring is all zero and later slots already are.
  const std::int64_t fills =
      std::min<std::int64_t>(to - from - 1, kRecoveryWindow);
  for (std::int64_t k = 1; k <= fills; ++k) {
    const auto s = static_cast<std::size_t>((from + k) % kRecoveryWindow);
    window_total_ -= window_[s];
    window_[s] = 0;
  }
}

void Network::advance(std::int64_t end, bool check_stall,
                      bool drain_mode) {
  // Progress watchdog: a damaged (or pathologically congested) run that
  // stops delivering while measured packets are outstanding terminates
  // with stalled() = true instead of spinning out the full schedule. The
  // default threshold (drain_cycles of silence, re-armed per phase) can
  // only fire on a run whose entire drain budget passed without a single
  // delivery — it never perturbs a run the schedule would complete.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t stall_after = kMax;
  if (check_stall && config_.stall_cycles > 0) {
    stall_after = config_.stall_cycles;
  } else if (check_stall && config_.stall_cycles == 0 &&
             config_.drain_cycles > 0) {
    stall_after = config_.drain_cycles;
  }
  const bool cycle_mode = config_.engine == SimEngine::Cycle;
  while (cycle_ < end && !wl_done_) {
    const bool outstanding =
        measured_generated_ > measured_delivered_ + measured_lost_;
    if (drain_mode && !outstanding) break;
    // The watchdog's detection cycle: where a per-cycle check after each
    // processed cycle first counts `stall_after` silent cycles. Activity
    // at or past it never runs — the stall wins the tie. `outstanding`
    // cannot change over a skipped span (injection and delivery are
    // activity), so gating the cutoff on its current value is exact.
    std::int64_t stop = end;
    if (outstanding && stall_after != kMax) {
      stop = std::min(stop, last_delivery_cycle_ + stall_after);
    }
    const std::int64_t act = next_activity_cycle();
    const std::int64_t target = std::min(act, stop);
    if (target > cycle_) {
      // Idle span [cycle_, target): no packet can move, no RNG can be
      // drawn; account it in bulk and jump.
      if (telemetry_) telemetry_->advance_idle(target - cycle_);
      if (has_timeline_) advance_window_gap(cycle_, target);
      cycle_ = target;
    }
    if (outstanding && cycle_ - last_delivery_cycle_ >= stall_after) {
      stalled_ = true;
      return;
    }
    // Phase boundary: activity scheduled exactly at `end` belongs to
    // the next phase (processed under the next phase's flags), and a
    // span cut short by the watchdog stop leaves cycle_ < act with
    // nothing to process yet.
    if (cycle_ >= end || cycle_ < act) break;
    process_cycle(cycle_mode);
    if (measured_generated_ > measured_delivered_ + measured_lost_ &&
        cycle_ - last_delivery_cycle_ >= stall_after) {
      stalled_ = true;
      return;
    }
  }
}

void Network::wl_reset() {
  const int ranks = workload_->num_ranks();
  const int phases = workload_->num_phases();
  wl_phase_.assign(static_cast<std::size_t>(ranks), 0);
  wl_next_msg_.assign(static_cast<std::size_t>(ranks), 0);
  wl_sent_.assign(static_cast<std::size_t>(ranks), 0);
  wl_unacked_.assign(static_cast<std::size_t>(ranks), 0);
  wl_next_ok_.assign(static_cast<std::size_t>(ranks), 0);
  wl_recv_.assign(
      static_cast<std::size_t>(ranks) * static_cast<std::size_t>(phases), 0);
  wl_phase_left_.assign(static_cast<std::size_t>(phases), ranks);
  wl_phase_cycles_.assign(static_cast<std::size_t>(phases), -1);
  wl_ranks_done_ = 0;
  wl_done_ = false;
  wl_completion_cycle_ = -1;
  wl_lost_ = 0;
  // Deterministic pacing: the offered-load knob becomes the per-rank
  // injection period, ceil(packet_size / load) cycles between packets
  // (load >= 1 or <= 0 both mean back-to-back).
  wl_pace_ = config_.packet_size;
  if (load_ > 0.0 && load_ < 1.0) {
    wl_pace_ = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(config_.packet_size) / load_));
  }
  // Ranks whose leading phases are trivially complete (no sends, no
  // expected receives) advance immediately; wl_advance schedules their
  // first real send. Ranks still in their initial phase get their first
  // wake here.
  for (int r = 0; r < ranks; ++r) {
    wl_advance(r);
    if (wl_phase_[static_cast<std::size_t>(r)] == 0 &&
        !workload_->sends(r, 0).empty()) {
      schedule_terminal(
          r, std::max<std::int64_t>(0, workload_->sends(r, 0)[0].release));
    }
  }
}

void Network::wl_process_due(int t) {
  const auto ti = static_cast<std::size_t>(t);
  if (has_timeline_ &&
      router_dead_[static_cast<std::size_t>(terminals_[ti])]) {
    return;  // no injection, no reschedule: the router is down
  }
  const int phases = workload_->num_phases();
  const int phase = wl_phase_[ti];
  if (phase >= phases) return;  // stale wake: rank already done
  const auto& msgs = workload_->sends(t, phase);
  if (wl_next_msg_[ti] >= static_cast<std::int32_t>(msgs.size())) {
    return;  // all sent; a delivery will advance the phase and rearm
  }
  const WorkloadMessage& msg =
      msgs[static_cast<std::size_t>(wl_next_msg_[ti])];
  std::int64_t at = std::max(msg.release, wl_next_ok_[ti]);
  // Same finite source queue as the Bernoulli path.
  const std::int64_t max_backlog =
      static_cast<std::int64_t>(16) * config_.packet_size;
  if (terminal_inject_free_[ti] > cycle_ + max_backlog) {
    at = std::max(at, terminal_inject_free_[ti] - max_backlog);
  }
  if (at > cycle_) {
    schedule_terminal(t, at);
    return;
  }
  Packet& packet = inject_packet(t, msg.dst);
  packet.src_terminal = t;
  packet.wl_phase = phase;
  ++wl_unacked_[ti];
  wl_next_ok_[ti] = cycle_ + wl_pace_;
  if (++wl_sent_[ti] >= msg.packets) {
    wl_sent_[ti] = 0;
    ++wl_next_msg_[ti];
  }
  if (wl_next_msg_[ti] < static_cast<std::int32_t>(msgs.size())) {
    const WorkloadMessage& next =
        msgs[static_cast<std::size_t>(wl_next_msg_[ti])];
    schedule_terminal(
        t, std::max({cycle_ + 1, wl_next_ok_[ti], next.release}));
  }
}

void Network::wl_advance(int r) {
  const auto ri = static_cast<std::size_t>(r);
  const int phases = workload_->num_phases();
  bool advanced = false;
  while (wl_phase_[ri] < phases) {
    const int p = wl_phase_[ri];
    if (wl_next_msg_[ri] <
        static_cast<std::int32_t>(workload_->sends(r, p).size())) {
      break;  // sends pending
    }
    if (wl_unacked_[ri] != 0) break;  // sends in flight
    if (wl_recv_[ri * static_cast<std::size_t>(phases) +
                 static_cast<std::size_t>(p)] <
        workload_->expected_recv(r, p)) {
      break;  // still waiting on this phase's receives
    }
    wl_phase_[ri] = p + 1;
    wl_next_msg_[ri] = 0;
    wl_sent_[ri] = 0;
    advanced = true;
    if (--wl_phase_left_[static_cast<std::size_t>(p)] == 0) {
      wl_phase_cycles_[static_cast<std::size_t>(p)] = cycle_;
    }
    if (wl_phase_[ri] >= phases &&
        ++wl_ranks_done_ == workload_->num_ranks()) {
      wl_done_ = true;
      wl_completion_cycle_ = cycle_;
    }
  }
  if (advanced && wl_phase_[ri] < phases) {
    const auto& msgs = workload_->sends(r, wl_phase_[ri]);
    if (!msgs.empty()) {
      schedule_terminal(
          r, std::max({cycle_, wl_next_ok_[ri], msgs[0].release}));
    }
  }
}

void Network::wl_on_delivery(const Packet& packet) {
  const int phases = workload_->num_phases();
  ++wl_recv_[static_cast<std::size_t>(packet.dst_terminal) *
                 static_cast<std::size_t>(phases) +
             static_cast<std::size_t>(packet.wl_phase)];
  --wl_unacked_[static_cast<std::size_t>(packet.src_terminal)];
  wl_advance(packet.dst_terminal);
  wl_advance(packet.src_terminal);
}

void Network::wl_on_lost(const Packet& packet) {
  // Count the loss as a receive and an ack: phase gating must terminate
  // even when faults eat packets, and the loss is reported separately.
  ++wl_lost_;
  wl_on_delivery(packet);
}

void Network::run_phases() {
  using clock = std::chrono::steady_clock;
  const auto seconds_since = [](clock::time_point from, clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  const auto phase0 = clock::now();
  if (workload_mode_) {
    // The whole run is one measured window: every packet is application
    // traffic, and completion time is the headline statistic.
    measuring_ = true;
    measure_start_ = 0;
    measure_end_ = std::numeric_limits<std::int64_t>::max();
    last_delivery_cycle_ = cycle_;
    advance(static_cast<std::int64_t>(config_.warmup_cycles) +
                config_.measure_cycles + config_.drain_cycles,
            true, false);
    measuring_ = false;
    measure_seconds_ = seconds_since(phase0, clock::now());
    if (telemetry_) telemetry_->flush_trace();
    return;
  }
  advance(cycle_ + config_.warmup_cycles, false, false);
  const auto phase1 = clock::now();
  warmup_seconds_ = seconds_since(phase0, phase1);

  measuring_ = true;
  measure_start_ = cycle_;
  measure_end_ = cycle_ + config_.measure_cycles;
  last_delivery_cycle_ = cycle_;
  advance(measure_end_, true, false);
  measuring_ = false;
  const auto phase2 = clock::now();
  measure_seconds_ = seconds_since(phase1, phase2);

  // Drain until every measured packet is delivered or accounted lost.
  last_delivery_cycle_ = std::max(last_delivery_cycle_, cycle_);
  if (!stalled_) advance(cycle_ + config_.drain_cycles, true, true);
  drain_seconds_ = seconds_since(phase2, clock::now());
  if (telemetry_) telemetry_->flush_trace();
}

double Network::accepted_load() const {
  if (workload_mode_) {
    // The whole run is the measure window; normalize by the cycles the
    // workload actually used.
    if (terminals_.empty() || cycle_ == 0) return 0.0;
    return static_cast<double>(measured_flits_ejected_) /
           (static_cast<double>(cycle_) *
            static_cast<double>(terminals_.size()));
  }
  if (terminals_.empty() || config_.measure_cycles == 0) return 0.0;
  return static_cast<double>(measured_flits_ejected_) /
         (static_cast<double>(config_.measure_cycles) *
          static_cast<double>(terminals_.size()));
}

double Network::avg_latency() const {
  if (latencies_.empty()) return 0.0;
  double sum = 0.0;
  for (const std::int64_t l : latencies_) sum += static_cast<double>(l);
  return sum / static_cast<double>(latencies_.size());
}

double Network::p99_latency() const {
  if (latencies_.empty()) return 0.0;
  std::vector<std::int64_t> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  const auto index = static_cast<std::size_t>(
      0.99 * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[index]);
}

bool Network::converged() const {
  if (workload_mode_) {
    return wl_done_ && measured_delivered_ == measured_generated_;
  }
  return measured_delivered_ == measured_generated_;
}

std::pair<int, int> Network::channel_endpoints(std::size_t channel) const {
  // channel_offset_ is nondecreasing; the owner of `channel` is the last
  // router whose first channel is <= channel.
  const auto it =
      std::upper_bound(channel_offset_.begin(), channel_offset_.end(),
                       static_cast<std::int64_t>(channel));
  const int u = static_cast<int>(it - channel_offset_.begin()) - 1;
  return {u, static_cast<int>(channel_target_[channel])};
}

PointTelemetry Network::collect_telemetry() const {
  if (!telemetry_) return {};
  std::vector<std::int64_t> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  return telemetry_->finish(
      sorted, [this](std::size_t c) { return channel_endpoints(c); });
}

void Network::trace_inject(const Packet& packet, int terminal) {
  char buf[192];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"cycle\":%lld,\"event\":\"inject\",\"packet\":%d,\"terminal\":%d,"
      "\"src\":%d,\"dst\":%d}",
      static_cast<long long>(cycle_), packet.trace_id, terminal,
      packet.src_router, pattern_.router_of(packet.dst_terminal));
  if (n > 0) telemetry_->trace_line(buf, static_cast<std::size_t>(n));
}

void Network::trace_route(const Packet& packet, const char* event) {
  char buf[128 + 16 * Route::kMaxLen];
  int n = std::snprintf(buf, sizeof buf,
                        "{\"cycle\":%lld,\"event\":\"%s\",\"packet\":%d,"
                        "\"path\":[",
                        static_cast<long long>(cycle_), event,
                        packet.trace_id);
  for (int h = 0; h < packet.route.len && n > 0 &&
                  n < static_cast<int>(sizeof buf) - 16;
       ++h) {
    n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                       h == 0 ? "%d" : ",%d",
                       packet.route.hops[static_cast<std::size_t>(h)]);
  }
  n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n), "]}");
  if (n > 0) telemetry_->trace_line(buf, static_cast<std::size_t>(n));
}

void Network::trace_hop(const Packet& packet, int at_router,
                        int next_router) {
  char buf[160];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"cycle\":%lld,\"event\":\"hop\",\"packet\":%d,\"from\":%d,"
      "\"to\":%d}",
      static_cast<long long>(cycle_), packet.trace_id, at_router,
      next_router);
  if (n > 0) telemetry_->trace_line(buf, static_cast<std::size_t>(n));
}

void Network::trace_deliver(const Packet& packet, std::int64_t latency) {
  char buf[160];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"cycle\":%lld,\"event\":\"deliver\",\"packet\":%d,\"latency\":%lld}",
      static_cast<long long>(cycle_), packet.trace_id,
      static_cast<long long>(latency));
  if (n > 0) telemetry_->trace_line(buf, static_cast<std::size_t>(n));
}

void Network::trace_drop(const Packet& packet, const char* reason) {
  // `reason` is the event name: drop_fault, drop_unreachable, reinject.
  char buf[160];
  const int n = std::snprintf(
      buf, sizeof buf, "{\"cycle\":%lld,\"event\":\"%s\",\"packet\":%d}",
      static_cast<long long>(cycle_), reason, packet.trace_id);
  if (n > 0) telemetry_->trace_line(buf, static_cast<std::size_t>(n));
}

}  // namespace pf::sim
