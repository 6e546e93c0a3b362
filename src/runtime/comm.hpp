// In-process SPMD message-passing runtime — the MPI substitute.
//
// `run_spmd(N, model, body)` launches N ranks as threads; each receives a
// Comm bound to the world group. Comm supports the MPI subset MIDAS needs:
// tagged point-to-point send/recv, barrier, allreduce, alltoallv, gather,
// broadcast, and communicator splitting (for the N/N1 phase groups).
//
// Every rank carries a *virtual clock*: compute is charged explicitly via
// charge_compute(), communication is charged per message by the CostModel,
// and synchronizing collectives set every member's clock to the group max
// (plus the collective's own cost). The virtual time at the end of a run is
// the modeled parallel runtime on the paper's hardware; wall time on the
// single-core host is measured separately by benches.
//
// Determinism: collectives combine contributions in rank order, and all
// randomness is seeded per rank, so a run is bit-reproducible for a fixed
// (seed, N, N1, N2).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/cost_model.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"

namespace midas::runtime {

class World;
class Group;
class RankPool;
struct SpmdResult;
struct SpmdOptions;

/// What a collective does when a member of the communicator has failed.
///  - kAbort: unsupervised default — any rank failure aborts the whole
///    world; every blocking call raises WorldAbortError (nothing hangs).
///  - kThrow: surviving members raise RankFailedError. The right choice
///    for communicators whose data is irreplaceable (a phase group losing
///    a graph part cannot compute a halo exchange).
///  - kShrink: the collective completes over the surviving members only.
///    The right choice for world-level XOR reductions, where a failed
///    rank's contribution is recomputed elsewhere. Must be set uniformly
///    across the communicator's members.
enum class FailPolicy { kAbort, kThrow, kShrink };

/// Watchdog/deadline supervision of collectives. When `deadline_s` > 0,
/// every charging collective classifies members whose virtual clock lags
/// the fastest arrival by more than the deadline as stragglers
/// (CommStats::stragglers_flagged / t_straggle), and supervised blocking
/// waits are sliced into `poll_s` heartbeats (watchdog_heartbeats) instead
/// of one long sleep. `speculate` additionally lets the k-path engine
/// re-execute a straggling phase group's work on the fast replicas
/// (detect_par.hpp; implies supervision).
struct WatchdogOptions {
  double deadline_s = -1.0;  // straggle tolerance; <= 0 disarms
  bool speculate = false;    // engine-level straggler re-execution
  double poll_s = 0.01;      // wall-clock heartbeat slice while blocked
};

/// Restored world state for a resumed run (runtime/checkpoint.hpp). All
/// three vectors must be empty (cold start) or sized to the rank count.
/// Restoring clocks *and* event counters matters: the fault plan keys
/// kills on them, so a resumed run replays the exact fault schedule of an
/// uninterrupted one.
struct SpmdResume {
  std::vector<double> vclocks;
  std::vector<std::uint64_t> events;
  std::vector<CommStats> stats;

  [[nodiscard]] bool empty() const noexcept { return vclocks.empty(); }
};

/// Supervision & fault configuration for run_spmd.
struct SpmdOptions {
  FaultPlan faults{};       // deterministic fault plan (empty = clean run)
  bool supervise = false;   // capture rank failures instead of rethrowing
  double timeout_s = 30.0;  // wall-clock guard on supervised blocking ops
  WatchdogOptions watchdog{};  // straggler deadline / speculation
  SpmdResume resume{};         // checkpointed world state to restore
  TraceOptions trace{};        // observability (docs/OBSERVABILITY.md)
  /// Execute rank bodies on this persistent pool (park/wake) instead of
  /// spawning fresh threads (runtime/rank_pool.hpp). Null = spawn/join.
  /// Purely an execution-placement choice: vclocks, charges, fault
  /// injection, and error semantics are identical either way, so results
  /// stay bit-exact and fingerprints never include it. The pool must
  /// outlive the run; one run at a time per pool.
  RankPool* pool = nullptr;
  /// Tracer lane of rank r is trace_lane_base + r. The service gives each
  /// worker a disjoint base so per-worker timelines (and shard imbalance)
  /// are visible in one Chrome trace; standalone runs keep base 0.
  int trace_lane_base = 0;
};

/// A rank's handle on a communicator (world or split sub-group).
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;
  /// Rank in the world communicator (stable across splits).
  [[nodiscard]] int world_rank() const noexcept { return world_rank_; }

  // -- point-to-point ------------------------------------------------------
  /// Send bytes to `dest` (rank in this communicator) with a tag.
  void send(int dest, int tag, std::span<const std::byte> data);
  /// Blocking receive from `src` with matching tag.
  [[nodiscard]] std::vector<std::byte> recv(int src, int tag);

  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, std::as_bytes(std::span<const T, 1>(&v, 1)));
  }
  template <typename T>
  [[nodiscard]] T recv_value(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = recv(src, tag);
    T v{};
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  // -- collectives (all members must call, in the same order) --------------
  void barrier();

  /// In-place elementwise allreduce over trivially copyable T.
  /// `combine(accum, contribution)` must be associative; contributions are
  /// combined in ascending rank order for determinism.
  template <typename T>
  void allreduce(std::span<T> inout,
                 const std::function<void(T&, const T&)>& combine) {
    allreduce_raw(inout.data(), sizeof(T), inout.size(),
                  [&combine](void* a, const void* b) {
                    combine(*static_cast<T*>(a), *static_cast<const T*>(b));
                  });
  }

  /// Convenience: sum-allreduce of unsigned 64-bit values.
  void allreduce_sum(std::span<std::uint64_t> inout);
  /// Convenience: XOR-allreduce (GF(2^l) addition) of bytes.
  void allreduce_xor(std::span<std::uint8_t> inout);

  /// Personalized all-to-all: send[i] goes to rank i; returns what every
  /// rank sent to me (recv[i] from rank i). Empty vectors mean no message.
  /// Payloads move through the group's staging area without a copy: pass
  /// `send` with std::move when the caller no longer needs it.
  [[nodiscard]] std::vector<std::vector<std::byte>> alltoallv(
      std::vector<std::vector<std::byte>> send);

  /// Gather each rank's bytes at `root` (others get an empty result).
  [[nodiscard]] std::vector<std::vector<std::byte>> gather(
      int root, std::span<const std::byte> data);

  /// Broadcast root's buffer to everyone (in place).
  void bcast(int root, std::span<std::byte> data);

  /// Reduce to `root` only: like allreduce, but only root's buffer holds
  /// the combined result afterwards (cheaper clock charge: one tree).
  template <typename T>
  void reduce(int root, std::span<T> inout,
              const std::function<void(T&, const T&)>& combine) {
    reduce_raw(root, inout.data(), sizeof(T), inout.size(),
               [&combine](void* a, const void* b) {
                 combine(*static_cast<T*>(a), *static_cast<const T*>(b));
               });
  }

  /// Scatter: root provides one byte-buffer per rank; every rank receives
  /// its own (root included). Non-root `chunks` are ignored.
  [[nodiscard]] std::vector<std::byte> scatter(
      int root, const std::vector<std::vector<std::byte>>& chunks);

  /// Combined send-to-`dest` + receive-from-`src` without deadlocking on
  /// symmetric exchanges.
  [[nodiscard]] std::vector<std::byte> sendrecv(
      int dest, int src, int tag, std::span<const std::byte> data);

  /// Split into sub-communicators by color; ranks within a sub-communicator
  /// are ordered by (key, old rank). All members must call.
  [[nodiscard]] Comm split(int color, int key);

  // -- virtual time ---------------------------------------------------------
  /// Charge `ops` field operations to this rank's virtual clock.
  void charge_compute(std::uint64_t ops);
  /// Charge a memory stream of `bytes` given the kernel's resident working
  /// set (hot vs cold rate — see CostModel::memory_cost).
  void charge_memory(std::uint64_t bytes, std::uint64_t working_set);
  /// Current virtual clock (seconds).
  [[nodiscard]] double vclock() const noexcept;
  [[nodiscard]] const CommStats& stats() const noexcept;
  [[nodiscard]] const CostModel& model() const noexcept;

  // -- checkpointing --------------------------------------------------------
  /// Zero-cost rendezvous for snapshot capture: all members block, `fn`
  /// runs on exactly one of them (every peer provably parked, so reading
  /// cross-rank state via the world_* accessors below is race-free), and —
  /// unlike barrier() — no virtual time is charged and no fault event is
  /// counted. Checkpointing therefore never perturbs clocks or the fault
  /// schedule: a checkpointed run stays bit-identical to an uncheckpointed
  /// one.
  void snapshot_sync(const std::function<void()>& fn);
  /// Re-apply SpmdOptions::resume at the point in the program matching the
  /// snapshot. A resumed run re-executes its setup collectives (e.g. the
  /// phase-group split), whose charges the restored clocks already include;
  /// this charge-free rendezvous overwrites clocks, event counters and
  /// stats with the snapshot values so replay continues bit-identically.
  /// All members must call it (a no-op without resume state). Call on the
  /// world communicator, after setup and before any checkpointed work.
  void resume_sync();
  /// World-wide state reads. Only safe where every peer is quiescent —
  /// i.e. inside a snapshot_sync / collective completion callback.
  [[nodiscard]] std::vector<double> world_vclocks() const;
  [[nodiscard]] std::vector<std::uint64_t> world_event_counts() const;
  [[nodiscard]] std::vector<CommStats> world_stats_snapshot() const;

  // -- watchdog -------------------------------------------------------------
  /// Straggler vote across phase groups of `n1` consecutive world ranks:
  /// each member publishes its group's current max virtual clock, and any
  /// group lagging the fastest live group by more than `deadline_s` is
  /// returned (ascending). A collective — every member must call, and all
  /// get the same answer. Dead groups are not stragglers (they publish a
  /// negative sentinel).
  [[nodiscard]] std::vector<int> straggling_groups(int n1,
                                                   double deadline_s);

  // -- failure awareness ----------------------------------------------------
  /// Collective behavior when a member has failed (see FailPolicy). Must be
  /// set to the same value by every member of the communicator.
  void set_fail_policy(FailPolicy p) noexcept { fail_policy_ = p; }
  [[nodiscard]] FailPolicy fail_policy() const noexcept {
    return fail_policy_;
  }
  /// Has `rank` (in this communicator) failed?
  [[nodiscard]] bool peer_failed(int rank) const noexcept;
  /// Has any member of this communicator failed?
  [[nodiscard]] bool any_peer_failed() const noexcept;
  /// Count of live members of this communicator.
  [[nodiscard]] int live_size() const noexcept;
  /// World ranks that have failed so far, ascending.
  [[nodiscard]] std::vector<int> failed_world_ranks() const;
  /// True when the run is supervised (failures captured, not fatal).
  [[nodiscard]] bool supervised() const noexcept;

 private:
  friend class World;
  friend class Group;
  friend SpmdResult run_spmd(int, const CostModel&, const SpmdOptions&,
                             const std::function<void(Comm&)>&);
  Comm(World* world, std::shared_ptr<Group> group, int rank, int world_rank,
       FailPolicy policy)
      : world_(world),
        group_(std::move(group)),
        rank_(rank),
        world_rank_(world_rank),
        fail_policy_(policy) {}

  void allreduce_raw(void* data, std::size_t elem_size, std::size_t count,
                     const std::function<void(void*, const void*)>& combine);
  void reduce_raw(int root, void* data, std::size_t elem_size,
                  std::size_t count,
                  const std::function<void(void*, const void*)>& combine);

  /// Count one communication event against the fault plan; throws
  /// RankKilledFault when the plan says this rank dies here, and
  /// WorldAbortError when the world is already tearing down.
  void fault_event();

  World* world_;
  std::shared_ptr<Group> group_;
  int rank_;
  int world_rank_;
  FailPolicy fail_policy_ = FailPolicy::kAbort;
};

/// Run `body` as an SPMD program over `nranks` ranks.
///
/// Unsupervised (default): a rank failure aborts the world — every peer
/// blocked in a recv or collective raises WorldAbortError instead of
/// hanging, all threads join, and the first causal exception (by rank) is
/// rethrown.
///
/// Supervised (opts.supervise): FaultError failures are *captured* into the
/// result (failed-rank list, partial vclocks) and the run completes with
/// the surviving ranks; non-fault exceptions still propagate — those are
/// bugs, not faults.
struct SpmdResult {
  std::vector<CommStats> stats;    // per world rank
  std::vector<double> vclocks;     // per world rank (partial for the dead)
  std::vector<std::uint64_t> events;  // per-rank comm-event counters
  double makespan = 0.0;           // max vclock
  CommStats total;                 // summed stats
  std::vector<int> failed_ranks;   // world ranks that failed (supervised)
  std::exception_ptr first_error;  // lowest failed rank's exception

  [[nodiscard]] bool completed() const noexcept {
    return failed_ranks.empty();
  }
};

SpmdResult run_spmd(int nranks, const CostModel& model,
                    const SpmdOptions& opts,
                    const std::function<void(Comm&)>& body);

/// Overloads: clean run with the given / default cost model.
SpmdResult run_spmd(int nranks, const CostModel& model,
                    const std::function<void(Comm&)>& body);
SpmdResult run_spmd(int nranks, const std::function<void(Comm&)>& body);

}  // namespace midas::runtime
