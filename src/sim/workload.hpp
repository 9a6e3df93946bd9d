// Dependency-aware traffic sources. A Workload generalizes TrafficPattern
// from per-packet destination draws to compiled per-rank send lists with
// BSP-style phase gating: every rank must finish sending its phase-p
// messages AND receive the phase-p packets addressed to it before any of
// its phase-p+1 traffic becomes eligible. The compiled form covers the
// MPI collectives the deployment studies drive (all-to-all, ring and
// recursive-doubling allreduce, 2D/3D stencil exchange) plus bursty
// ON/OFF, hotspot, and incast flows, and round-trips through a versioned
// JSONL trace (`polarfly-trace/1`) for deterministic capture/replay.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace pf::sim {

/// One compiled message: `packets` packets from the owning (rank, phase)
/// to `dst`, none injectable before absolute cycle `release`.
struct WorkloadMessage {
  int dst = 0;
  int packets = 1;
  std::int64_t release = 0;
};

/// An immutable compiled workload. Ranks are terminal indices; the
/// network asserts num_ranks() matches its terminal count.
///
/// Storage is flat: every message lives in one contiguous array grouped
/// by slot `rank * phases + phase` (slots ascending, injection order
/// within a slot), and `offsets_[s]..offsets_[s + 1]` delimits slot s.
/// Generators add() in any slot order and finish() restores grouping
/// with one stable counting sort; from_trace() appends directly because
/// a valid trace already arrives rank-major and phase-ascending.
class Workload {
 public:
  /// Compiles `spec` ("name" or "name:key=value,..."). Known names:
  /// alltoall, ring_allreduce, rd_allreduce, stencil2d, stencil3d,
  /// bursty, hotspot, incast, and trace:file=PATH (replay). `seed` feeds
  /// the randomized generators (bursty, hotspot); the rest ignore it.
  /// Throws std::invalid_argument on unknown names/parameters or when a
  /// replayed trace's rank count does not match `ranks`.
  static std::shared_ptr<const Workload> make(const std::string& spec,
                                              int ranks,
                                              std::uint64_t seed);

  /// Parses a polarfly-trace/1 JSONL document. Errors are prefixed
  /// "<context> line N: ..." and reject torn lines, unknown keys,
  /// out-of-range ranks, self-sends, and time-travel orderings. Message
  /// lines in the exact byte layout to_trace() writes are scanned in
  /// place; every other line goes through the JSON reader, which alone
  /// defines the accepted language and its error messages.
  static std::shared_ptr<const Workload> from_trace(
      const std::string& text, const std::string& context);

  /// Canonical spec string (non-default parameters only); a replayed
  /// trace keeps the name recorded in its header, so record identities
  /// survive capture -> replay.
  const std::string& name() const { return name_; }

  int num_ranks() const { return ranks_; }
  int num_phases() const { return phases_; }

  /// Messages rank must send in `phase`, in injection order: a view
  /// into the flat message array, valid as long as the workload.
  std::span<const WorkloadMessage> sends(int rank, int phase) const {
    const std::size_t s = slot(rank, phase);
    return {msgs_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// Packets rank must receive before leaving `phase`.
  std::int64_t expected_recv(int rank, int phase) const {
    return expect_[slot(rank, phase)];
  }

  /// Total packets across every rank and phase.
  std::int64_t total_packets() const { return total_packets_; }

  /// Serializes to polarfly-trace/1 JSONL: one header line, then one
  /// line per message in rank-major, phase-ascending, release-ascending
  /// order. from_trace(to_trace()) reproduces the workload exactly.
  std::string to_trace() const;

 private:
  Workload() = default;

  std::size_t slot(int rank, int phase) const {
    return static_cast<std::size_t>(rank) *
               static_cast<std::size_t>(phases_) +
           static_cast<std::size_t>(phase);
  }

  /// Sizes the per-slot tables before any add() or append().
  void init(int ranks, int phases);
  /// Generator entry: append() in any slot order, remembering the slot
  /// so finish() can regroup.
  void add(int rank, int phase, int dst, int packets, std::int64_t release);
  /// Appends one message, counts it toward its slot, and maintains the
  /// receive expectation table. Callers that skip add() must append in
  /// ascending slot order.
  void append(int rank, int phase, int dst, int packets,
              std::int64_t release);
  /// Turns slot counts into offsets and, after add(), stably sorts the
  /// messages into slot order.
  void finish();

  std::string name_;
  int ranks_ = 0;
  int phases_ = 0;
  std::vector<WorkloadMessage> msgs_;  ///< grouped by slot
  std::vector<std::size_t> offsets_;   ///< slots + 1 entries
  std::vector<std::size_t> slots_;     ///< add() order; empty after finish()
  std::vector<std::int64_t> expect_;   ///< per slot
  std::int64_t total_packets_ = 0;
};

/// True when the generator behind `spec` draws randomness from its seed
/// (bursty, hotspot) — the analogue of pattern_uses_seed for workloads.
bool workload_uses_seed(const std::string& spec);

}  // namespace pf::sim
