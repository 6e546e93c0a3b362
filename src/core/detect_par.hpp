// MIDAS — the distributed multilinear detection engine (paper Section IV).
//
// Structure (Fig. 1): N ranks are split into a = N/N1 phase groups of N1
// ranks; each group owns a full copy of the graph partition (rank g*N1+s
// owns part s) and processes every a-th phase. A phase evaluates N2
// consecutive iterations at once: per-vertex DP values become contiguous
// N2-wide vectors, and each of the k-1 halo exchanges per phase ships one
// batched message per neighboring part instead of N2 small ones — the
// batching/cache optimization of Section IV-B.
//
// Every rank's compute and communication are charged to its virtual clock
// (see runtime/cost_model.hpp), so the returned makespan is the modeled
// parallel runtime; results are bit-identical to the sequential detectors
// for the same seed because both run the same phase bodies
// (core/phase_bodies.hpp), all randomness is hash-derived and the final
// accumulator is an XOR (order-independent) allreduce.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detect_seq.hpp"
#include "core/errors.hpp"
#include "core/motif.hpp"
#include "core/phase_bodies.hpp"
#include "core/schedule.hpp"
#include "core/tree_template.hpp"
#include "gf/bitsliced.hpp"
#include "gf/field.hpp"
#include "graph/csr.hpp"
#include "partition/partitioned_graph.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/comm.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace midas::core {

/// Durable-progress configuration (runtime/checkpoint.hpp). With a
/// non-empty `dir`, every driver snapshots its state at round boundaries
/// (and, on unsupervised runs, optionally every `every_waves` phase waves
/// within a round); `resume = true` restores the newest verified
/// snapshot and continues from it, reproducing the uninterrupted run's
/// results bit-exactly. Snapshot rendezvous are charge-free, so enabling
/// checkpoints never changes virtual clocks or the fault schedule.
struct CheckpointConfig {
  std::string dir;               // empty = checkpointing disabled
  int every_rounds = 1;          // snapshot cadence in completed rounds
  std::uint64_t every_waves = 0; // mid-round cadence in phase waves (0=off)
  bool resume = false;           // restore the newest good snapshot first
  int keep = 2;                  // snapshots retained on disk
  // Caller RNG position (Xoshiro256::state() words), stored verbatim in
  // every snapshot so a restart can also restore its generator stream.
  std::vector<std::uint64_t> rng_state;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

struct MidasOptions {
  int k = 4;
  double epsilon = 0.05;
  std::uint64_t seed = 1;
  int n_ranks = 4;        // N
  int n1 = 2;             // ranks per phase group = graph parts
  std::uint32_t n2 = 16;  // iterations per phase (message batching)
  int max_rounds = 0;     // override epsilon-derived round count if > 0
  bool early_exit = true;
  // Inner-loop implementation (see detect_seq.hpp). The bit-sliced kernels
  // charge the same modeled work as the scalar ones, and both ship halos in
  // the plane-native layout of detail::halo_exchange_planes (the scalar
  // kernel transposes its values), so payloads are byte-identical and
  // virtual clocks, fault schedules, and checkpoint snapshots are
  // kernel-independent — a snapshot written under one kernel resumes under
  // the other bit-exactly.
  Kernel kernel = Kernel::kAuto;
  runtime::CostModel model{};
  // Fault injection & supervision (docs/RESILIENCE.md). Supervision is
  // forced on whenever the plan is non-empty; every engine then runs the
  // vote/redo failover protocol and masks any failure that leaves at
  // least one intact phase group. spmd.watchdog arms the straggler
  // deadline (and, with speculate, engine-level re-execution of a
  // straggling phase group on the fast replicas).
  runtime::SpmdOptions spmd{};
  // Checkpoint/restart across *total* failures (docs/RESILIENCE.md).
  CheckpointConfig checkpoint{};
  // Optional precomputed randomness (non-owning; caller keeps it alive for
  // the duration of the run). Only the k-path engine consumes it; when set
  // it must match (seed, k, parts) and cover rounds() rounds. Results are
  // bit-identical with or without tables.
  const RandTables* rand_tables = nullptr;

  [[nodiscard]] int rounds() const {
    return max_rounds > 0 ? max_rounds : rounds_for_epsilon(epsilon);
  }
};

struct MidasResult {
  bool found = false;
  int rounds_run = 0;
  int found_round = -1;
  double vtime = 0.0;   // modeled parallel makespan (seconds)
  double wall_s = 0.0;  // host wall-clock of the whole SPMD run
  runtime::CommStats total_stats;
  std::vector<double> vclocks;      // per rank
  std::vector<int> failed_ranks;    // world ranks lost to injected faults
  int resumed_from_round = -1;      // snapshot round this run resumed at
};

namespace detail {

/// Fingerprint of everything a snapshot's validity depends on: the engine,
/// the detection parameters, the rank/phase geometry, the execution mode
/// (supervised runs charge different virtual time than clean ones) and the
/// shape of the partitioned input. A resume whose fingerprint differs is
/// rejected — restoring accumulators into a different configuration would
/// silently corrupt the answer.
[[nodiscard]] inline std::uint64_t config_fingerprint(
    std::uint64_t engine_tag, const MidasOptions& opt,
    const runtime::SpmdOptions& sopt, std::size_t value_bytes,
    const std::vector<partition::PartView>& views, std::uint64_t extra = 0) {
  std::vector<std::uint64_t> w;
  w.reserve(16 + views.size() * 3);
  w.push_back(engine_tag);
  w.push_back(static_cast<std::uint64_t>(opt.k));
  w.push_back(opt.seed);
  std::uint64_t eps_bits = 0;
  std::memcpy(&eps_bits, &opt.epsilon, sizeof(eps_bits));
  w.push_back(eps_bits);
  w.push_back(static_cast<std::uint64_t>(opt.n_ranks));
  w.push_back(static_cast<std::uint64_t>(opt.n1));
  w.push_back(opt.n2);
  w.push_back(static_cast<std::uint64_t>(opt.rounds()));
  w.push_back(opt.early_exit ? 1 : 0);
  w.push_back(sopt.supervise ? 1 : 0);
  w.push_back(sopt.watchdog.speculate && sopt.watchdog.deadline_s > 0.0
                  ? 1
                  : 0);
  w.push_back(static_cast<std::uint64_t>(value_bytes));
  w.push_back(extra);
  for (const auto& view : views) {
    w.push_back(view.num_local());
    w.push_back(view.num_ghosts());
    w.push_back(view.adj.size());
  }
  return runtime::fnv1a(std::as_bytes(std::span<const std::uint64_t>(w)));
}

/// Host-side checkpoint bookkeeping for one engine run.
struct CheckpointSession {
  std::optional<runtime::CheckpointStore> store;
  runtime::RoundCheckpoint loaded;  // meaningful when `resumed`
  bool resumed = false;
  runtime::RoundCheckpoint staged;
  bool staged_ok = false;

  [[nodiscard]] bool armed() const noexcept { return store.has_value(); }
};

/// Validate the checkpoint config, open the store and — on resume — load
/// and sanity-check the newest good snapshot, wiring its world state into
/// `sopt.resume`. `driver_bytes_per_round` is the driver_state stride;
/// `wave_accum_bytes` is the per-rank accumulator size for mid-round
/// snapshots (0 = this mode cannot resume mid-round).
inline CheckpointSession open_checkpoints(const MidasOptions& opt,
                                          runtime::SpmdOptions& sopt,
                                          std::uint64_t config_hash,
                                          std::size_t driver_bytes_per_round,
                                          std::size_t wave_accum_bytes) {
  CheckpointSession cs;
  if (!opt.checkpoint.enabled()) return cs;
  require_options(opt.checkpoint.every_rounds >= 1,
                  "checkpoint.every_rounds must be >= 1");
  require_options(opt.checkpoint.keep >= 1,
                  "checkpoint.keep must be >= 1");
  cs.store.emplace(opt.checkpoint.dir, opt.checkpoint.keep);
  if (!opt.checkpoint.resume) return cs;
  auto ck = cs.store->load_latest();
  if (!ck) return cs;  // nothing durable yet: cold start
  if (ck->config_hash != config_hash)
    throw runtime::CheckpointError(
        "snapshot in " + opt.checkpoint.dir +
        " was written by an incompatible run configuration");
  const auto nranks = static_cast<std::size_t>(opt.n_ranks);
  if (ck->vclocks.size() != nranks || ck->events.size() != nranks ||
      ck->stats.size() != nranks)
    throw runtime::CheckpointError("snapshot rank count mismatch");
  if (ck->next_round > static_cast<std::uint32_t>(opt.rounds()))
    throw runtime::CheckpointError("snapshot round index out of range");
  if (ck->driver_state.size() !=
      static_cast<std::size_t>(ck->next_round) * driver_bytes_per_round)
    throw runtime::CheckpointError("snapshot driver state size mismatch");
  if (ck->phase_waves_done > 0) {
    if (wave_accum_bytes == 0)
      throw runtime::CheckpointError(
          "mid-round snapshot is not resumable by a supervised run");
    if (ck->accum.size() != nranks)
      throw runtime::CheckpointError("snapshot accumulator arity mismatch");
    for (const auto& a : ck->accum)
      if (a.size() != wave_accum_bytes)
        throw runtime::CheckpointError(
            "snapshot accumulator size mismatch");
  }
  sopt.resume.vclocks = ck->vclocks;
  sopt.resume.events = ck->events;
  sopt.resume.stats = ck->stats;
  cs.loaded = std::move(*ck);
  cs.resumed = true;
  return cs;
}

/// Lanes of the failure-view vote: every rank contributes the hash of its
/// failed-rank list; after a min/max allreduce, lo == hi iff all survivors
/// saw the same view.
struct HashRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

// ---------------------------------------------------------------------------
// The phase engine
// ---------------------------------------------------------------------------

/// What a recurrence tells the phase engine about itself.
struct Recurrence {
  std::uint64_t tag = 0;    // engine tag in the snapshot fingerprint
  std::uint64_t extra = 0;  // fingerprint of the recurrence's own inputs
  std::size_t acc_len = 1;  // accumulator slots per rank
  // A nonzero round ends the query under opt.early_exit (the decision
  // engines); the table engines run every round.
  bool stops_on_found = true;
};

/// What a phase-engine run leaves on the host: the result record and one
/// found byte per (round, accumulator slot).
struct PhaseEngineRun {
  MidasResult result;
  std::vector<std::uint8_t> cells;  // cells[round * acc_len + slot]
};

/// The distributed phase engine (paper Section IV, Fig. 1), shared by every
/// recurrence. `rank_body(pr, rounds)` — a phase body of
/// core/phase_bodies.hpp — runs once per rank on its seat: it builds the
/// recurrence's per-rank state and calls rounds(begin_round, phase,
/// phase_bs), which XOR phases into the rank's accumulator (a std::span of
/// rec.acc_len values).
///
/// The engine owns the rest: geometry checks, the schedule, the kernel
/// choice, the checkpoint session, the wave loop and its spans, the
/// supervised vote/redo and watchdog protocol, the XOR allreduce, the
/// found cells and the result record. XOR makes a phase self-inverse:
/// running it twice removes its contribution again, which is how failover
/// moves phases between groups without a separate "undo" path.
template <gf::GaloisField F, typename RankBody>
PhaseEngineRun run_phase_engine(const std::vector<partition::PartView>& views,
                                const MidasOptions& opt, const F& f,
                                const Recurrence& rec, RankBody&& rank_body) {
  using V = typename F::value_type;
  require_options(opt.n1 >= 1 && opt.n1 <= opt.n_ranks &&
                      opt.n_ranks % opt.n1 == 0,
                  "N1 must divide N (phase groups need N/N1 whole replicas)");
  const Schedule sched =
      make_schedule(opt.k, opt.epsilon, opt.n_ranks, opt.n1, opt.n2);
  const bool bitsliced = use_bitsliced(f, opt.kernel);
  const int rounds = opt.rounds();
  const std::size_t A = rec.acc_len;
  const bool stops = rec.stops_on_found && opt.early_exit;

  PhaseEngineRun run;
  MidasResult& result = run.result;
  Timer wall;
  // Found cells, written under an allreduce barrier. Atomic because on the
  // supervised path every survivor records (idempotently): a single
  // designated writer could be killed between the failure vote and its
  // write, silently losing the round.
  std::vector<std::atomic<std::uint8_t>> found(
      static_cast<std::size_t>(rounds) * A);
  // Supervision is implied by a non-empty fault plan or armed speculation
  // (straggler re-execution needs the supervised vote/redo machinery).
  runtime::SpmdOptions sopt = opt.spmd;
  const bool speculate =
      sopt.watchdog.speculate && sopt.watchdog.deadline_s > 0.0;
  if (!sopt.faults.empty() || speculate) sopt.supervise = true;

  // Checkpointing. The fingerprint covers the execution mode because the
  // supervised protocol charges different virtual time than the clean
  // path: a snapshot resumes only into the mode that wrote it. The driver
  // state is the found cells of the completed rounds.
  const std::uint64_t chash =
      config_fingerprint(rec.tag, opt, sopt, sizeof(V), views, rec.extra);
  CheckpointSession cs = open_checkpoints(
      opt, sopt, chash, /*driver_bytes_per_round=*/A,
      // Mid-round (wave) resume exists only on the clean path; supervised
      // snapshots are always taken at round boundaries.
      /*wave_accum_bytes=*/sopt.supervise ? 0 : A * sizeof(V));
  const int start_round = cs.resumed ? static_cast<int>(cs.loaded.next_round)
                                     : 0;
  const std::uint64_t start_wave = cs.resumed ? cs.loaded.phase_waves_done
                                              : 0;
  if (cs.resumed) {
    result.resumed_from_round = start_round;
    for (std::size_t i = 0; i < cs.loaded.driver_state.size(); ++i)
      found[i] = cs.loaded.driver_state[i];
  }
  // Per-rank accumulator staging for mid-round snapshots: slot r is
  // written only by world rank r before the snapshot rendezvous reads it.
  std::vector<std::vector<std::uint8_t>> accum_stage(
      static_cast<std::size_t>(opt.n_ranks));

  auto spmd = runtime::run_spmd(opt.n_ranks, opt.model, sopt,
                                [&](runtime::Comm& world) {
    const int group_color = world.rank() / opt.n1;
    // Supervised runs shrink world collectives over survivors; the phase
    // group keeps kThrow (the default for supervised split children): a
    // group that loses its member's graph part cannot continue.
    if (world.supervised())
      world.set_fail_policy(runtime::FailPolicy::kShrink);
    runtime::Comm group = world.split(group_color, world.rank() % opt.n1);
    // Setup done: on a resumed run, overwrite the re-charged setup state
    // with the snapshot's (no-op otherwise).
    world.resume_sync();
    std::optional<gf::BitslicedGF> bse;
    if constexpr (gf::Bitsliceable<F>) {
      if (bitsliced) bse.emplace(f);
    }
    // The part a rank owns is fixed by its world rank — never by its rank
    // in `group`, which shifts when the split excluded a dead member.
    const int part = world.rank() % opt.n1;
    const PhaseRank pr{&world, &group, views[static_cast<std::size_t>(part)],
                       bse ? &*bse : nullptr, part};

    rank_body(pr, [&](auto&& begin_round, auto&& phase_scalar,
                      auto&& phase_bs) {
      auto compute_phase = [&](std::uint64_t phase, std::span<V> acc) {
        MIDAS_TRACE_SPAN(bitsliced ? "engine.phase.bitsliced"
                                   : "engine.phase.scalar",
                         {"phase", static_cast<std::int64_t>(phase)});
        [[maybe_unused]] const double vt0 = world.vclock();
        const auto [q0, q1] = sched.phase_range(phase);
        run_phase(f, pr.bs, phase_scalar, phase_bs, q0, q1 - q0, acc);
        MIDAS_TRACE_OBSERVE("engine.phase_vtime_ns",
                            (world.vclock() - vt0) * 1e9);
      };

      std::vector<V> acc(A), reduced(A);
      // The phases whose contributions are folded into `acc` this round.
      std::vector<std::uint64_t> have;
      // Contribute exactly nothing (again) this round.
      auto drop = [&] {
        std::fill(acc.begin(), acc.end(), f.zero());
        have.clear();
      };
      // The XOR allreduce of every rank's accumulator (the paper's
      // MPIREDUCE per round).
      auto reduce = [&] {
        reduced = acc;
        world.allreduce<V>(std::span<V>(reduced),
                           [&f](V& a, const V& b) { a = f.add(a, b); });
      };
      auto hit = [&] {
        return std::any_of(reduced.begin(), reduced.end(),
                           [&f](const V& x) { return x != f.zero(); });
      };
      auto record = [&](int round) {
        for (std::size_t i = 0; i < A; ++i)
          if (reduced[i] != f.zero())
            found[static_cast<std::size_t>(round) * A + i] = 1;
      };
      // Collective snapshot: a round-boundary one (waves_done = 0) or a
      // mid-round one that carries every rank's accumulator. The staged
      // snapshot is filled inside the rendezvous (every peer parked) and
      // persisted by world rank 0 right after it. Nothing is written if any
      // rank already failed — a consistent world is a precondition for a
      // resumable one.
      auto snapshot = [&](int next_round, std::uint64_t waves_done) {
        MIDAS_TRACE_SPAN("checkpoint.snapshot", {"next_round", next_round});
        auto& slot = accum_stage[static_cast<std::size_t>(world.rank())];
        slot.clear();
        if (waves_done > 0) {
          slot.resize(A * sizeof(V));
          std::memcpy(slot.data(), acc.data(), A * sizeof(V));
        }
        world.snapshot_sync([&] {
          cs.staged_ok = false;
          if (!world.failed_world_ranks().empty()) return;
          cs.staged.config_hash = chash;
          cs.staged.next_round = static_cast<std::uint32_t>(next_round);
          cs.staged.phase_waves_done = waves_done;
          cs.staged.driver_state.assign(
              found.begin(),
              found.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(next_round) * A));
          cs.staged.accum = accum_stage;
          cs.staged.vclocks = world.world_vclocks();
          cs.staged.events = world.world_event_counts();
          cs.staged.stats = world.world_stats_snapshot();
          cs.staged.rng_state = opt.checkpoint.rng_state;
          cs.staged_ok = true;
        });
        // Only one rank touches the disk; peers that raced ahead park at
        // the next rendezvous until the write returns.
        if (world.rank() == 0 && cs.staged_ok)
          (void)cs.store->write(cs.staged);
      };
      // Fold in this group's phases of waves [w0, w1): wave w holds phase
      // group_color + w*a. Walking uniform waves lets every rank hit an
      // optional mid-round snapshot rendezvous (unsupervised runs only) in
      // lockstep even though groups own unequal phase counts.
      const std::uint64_t waves = sched.batches();
      const bool wave_snapshots = cs.armed() && !world.supervised() &&
                                  opt.checkpoint.every_waves > 0;
      auto walk = [&](int round, std::uint64_t w0, std::uint64_t w1) {
        for (std::uint64_t w = w0; w < w1; ++w) {
          MIDAS_TRACE_SPAN("engine.wave",
                           {"wave", static_cast<std::int64_t>(w)});
          const std::uint64_t phase =
              static_cast<std::uint64_t>(group_color) + w * sched.groups();
          if (phase < sched.phases()) {
            compute_phase(phase, acc);
            have.push_back(phase);
          }
          if (wave_snapshots && w + 1 < waves &&
              (w + 1) % opt.checkpoint.every_waves == 0)
            snapshot(round, w + 1);
        }
      };
      // Round-boundary snapshot cadence; uniform across ranks (the early-
      // exit guard reads the shared allreduce result), which a collective
      // rendezvous requires.
      auto round_snapshot_due = [&](int done) {
        return cs.armed() && done % opt.checkpoint.every_rounds == 0 &&
               done < rounds && !(stops && hit());
      };

      for (int round = start_round; round < rounds; ++round) {
        MIDAS_TRACE_SPAN("engine.round", {"round", round});
        begin_round(round);
        drop();

        if (!world.supervised()) {
          // Clean fast path: walk, then one XOR allreduce.
          std::uint64_t w0 = 0;
          if (round == start_round && start_wave > 0) {
            // Mid-round resume: the restored accumulator already folds the
            // first `start_wave` waves of this round.
            w0 = start_wave;
            std::memcpy(
                acc.data(),
                cs.loaded.accum[static_cast<std::size_t>(world.rank())].data(),
                A * sizeof(V));
          }
          walk(round, w0, waves);
          reduce();
          record(round);
          world.barrier();
          if (round_snapshot_due(round + 1)) snapshot(round + 1, 0);
          if (stops && hit()) break;
          continue;
        }

        // Supervised: speculative compute, then the vote/redo protocol
        // (docs/RESILIENCE.md). The round-level checkpoint is the
        // per-round allreduce itself: completed rounds are never redone.
        // A RankFailedError while walking means a group member died
        // mid-round: this group's shares cannot be completed, so it drops
        // them — intact groups recompute the whole set of its phases.
        std::vector<int> slow_groups;
        const bool watchdog_armed = speculate && sched.groups() > 1;
        bool computing = group.size() == opt.n1 && !group.any_peer_failed();
        if (watchdog_armed) {
          // Probe wave: each intact group computes only its first owned
          // phase, then every rank compares virtual clocks. A group lagging
          // the fastest one by more than the deadline is voted a straggler
          // and its phases are dealt to the fast groups below — the same
          // redo path that covers dead groups (speculative re-execution).
          if (computing) {
            try {
              walk(round, 0, 1);
            } catch (const runtime::RankFailedError&) {
              drop();
              computing = false;
            }
          }
          slow_groups =
              world.straggling_groups(opt.n1, sopt.watchdog.deadline_s);
          if (!slow_groups.empty())
            MIDAS_TRACE_INSTANT(
                "watchdog.straggler_vote",
                {"slow_groups",
                 static_cast<std::int64_t>(slow_groups.size())});
          // A straggler stops speculating on its own phases; whether its
          // probe contribution survives is decided uniformly in the vote
          // loop (it does only when no fast group is left to take over).
          if (std::binary_search(slow_groups.begin(), slow_groups.end(),
                                 group_color))
            computing = false;
        }
        if (computing) {
          try {
            walk(round, watchdog_armed ? 1 : 0, waves);
          } catch (const runtime::RankFailedError&) {
            drop();
          }
        }

        std::uint64_t agreed = 0;
        bool reduced_valid = false;
        std::vector<int> agreed_failed;
        while (true) {
          // Vote on the failure view. The min/max result is shared, so the
          // decision below is uniform across survivors — nobody can break
          // out of the loop while a peer redoes, which would deadlock.
          std::vector<int> failed = world.failed_world_ranks();
          HashRange hr;
          hr.lo = hr.hi = runtime::fnv1a(
              std::as_bytes(std::span<const int>(failed)));
          world.allreduce<HashRange>(
              std::span<HashRange>(&hr, 1),
              [](HashRange& a, const HashRange& b) {
                a.lo = std::min(a.lo, b.lo);
                a.hi = std::max(a.hi, b.hi);
              });
          if (hr.lo != hr.hi) continue;  // views diverged: re-read, re-vote
          if (reduced_valid && hr.lo == agreed) break;  // stable: accept
          agreed = hr.lo;
          agreed_failed = std::move(failed);
          MIDAS_TRACE_INSTANT(
              "failover.vote",
              {"round", round},
              {"failed", static_cast<std::int64_t>(agreed_failed.size())});
          MIDAS_TRACE_COUNT("failover.votes", 1);

          std::vector<int> dead_groups, intact_groups;
          for (int g = 0; g < sched.groups(); ++g) {
            bool dead = false;
            for (int s = 0; s < opt.n1 && !dead; ++s)
              dead = std::binary_search(agreed_failed.begin(),
                                        agreed_failed.end(), g * opt.n1 + s);
            (dead ? dead_groups : intact_groups).push_back(g);
          }
          if (intact_groups.empty())
            throw runtime::UnrecoverableFaultError(
                "every phase group lost a member; no intact graph replica "
                "left to recompute their phases");

          // Donors hand their phases over; workers recompute them. Dead
          // groups always donate. Straggling-but-intact groups donate too,
          // unless *every* intact group straggles — then nobody is faster
          // and the flag is moot. All inputs (dead/intact from the agreed
          // vote, slow_groups from a shared allreduce) are uniform across
          // survivors, so every rank reaches the same split.
          std::vector<int> donor_groups = dead_groups;
          std::vector<int> worker_groups = intact_groups;
          if (!slow_groups.empty()) {
            std::vector<int> fast;
            std::set_difference(intact_groups.begin(), intact_groups.end(),
                                slow_groups.begin(), slow_groups.end(),
                                std::back_inserter(fast));
            if (!fast.empty()) {
              worker_groups = std::move(fast);
              std::set_intersection(slow_groups.begin(), slow_groups.end(),
                                    intact_groups.begin(),
                                    intact_groups.end(),
                                    std::back_inserter(donor_groups));
              std::sort(donor_groups.begin(), donor_groups.end());
            }
          }

          if (!std::binary_search(worker_groups.begin(), worker_groups.end(),
                                  group_color)) {
            // My group is incomplete (or voted a straggler): its
            // contribution (including any phase shares already finished)
            // is recomputed by the worker groups, so we must contribute
            // exactly zero.
            drop();
          } else {
            std::vector<std::uint64_t> want;
            for (std::uint64_t phase = group_color; phase < sched.phases();
                 phase += sched.groups())
              want.push_back(phase);
            const auto extra = failover_phases(sched, donor_groups,
                                               worker_groups, group_color);
            want.insert(want.end(), extra.begin(), extra.end());
            std::sort(want.begin(), want.end());
            std::vector<std::uint64_t> delta;
            std::set_symmetric_difference(want.begin(), want.end(),
                                          have.begin(), have.end(),
                                          std::back_inserter(delta));
            if (!delta.empty()) {
              MIDAS_TRACE_INSTANT(
                  "failover.redo",
                  {"phases", static_cast<std::int64_t>(delta.size())});
              MIDAS_TRACE_COUNT("failover.phases_redone", delta.size());
            }
            try {
              // XOR self-inverse: phases entering `want` are added, phases
              // leaving it are cancelled — both by the same computation.
              for (std::uint64_t phase : delta) compute_phase(phase, acc);
              have = std::move(want);
            } catch (const runtime::RankFailedError&) {
              drop();
            }
          }

          reduce();
          reduced_valid = true;
          // Loop back to the vote: if a rank died before this allreduce
          // completed, its contribution is missing — the next vote sees
          // the changed view and redoes the reduction.
        }

        // Every survivor records the (shared, agreed) reduction. A single
        // designated writer would be a correctness hole: kills fire at comm
        // events, so the writer can die inside the very vote that the other
        // ranks accepted — nobody would loop back to observe the death, and
        // the round's found cells would be silently lost while the service
        // retry layer sees a clean (wrong) completion.
        record(round);
        // Snapshot only failure-free rounds: `agreed_failed` is the voted
        // (hence uniform) failure view, so all survivors skip or rendezvous
        // together. A round completed via failover is still correct but its
        // rank state is not a clean resume point — the next fault-free
        // boundary snapshots instead.
        if (agreed_failed.empty() && round_snapshot_due(round + 1))
          snapshot(round + 1, 0);
        if (stops && hit()) break;
      }
    });
  });

  // Failover masks any failure that leaves an intact group; if nobody
  // survived to finish the rounds, surface the typed fault instead of
  // returning an all-zero (silently wrong) answer.
  if (static_cast<int>(spmd.failed_ranks.size()) == opt.n_ranks &&
      spmd.first_error)
    std::rethrow_exception(spmd.first_error);
  result.wall_s = wall.elapsed_s();
  result.vtime = spmd.makespan;
  result.total_stats = spmd.total;
  result.vclocks = spmd.vclocks;
  result.failed_ranks = spmd.failed_ranks;
  run.cells.assign(found.begin(), found.end());
  for (int round = 0; round < rounds && !result.found; ++round) {
    ++result.rounds_run;
    for (std::size_t i = 0; i < A; ++i)
      if (run.cells[static_cast<std::size_t>(round) * A + i]) {
        result.found = true;
        result.found_round = round;
      }
  }
  if (!stops) result.rounds_run = rounds;
  return run;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// k-path
// ---------------------------------------------------------------------------

/// Distributed k-path detection over *pre-built* part views — the entry
/// point for callers (the detection service, repeated-query sweeps) that
/// amortize `build_part_views` across runs. The undirected and directed
/// fronts below build their views differently (symmetric halos vs
/// in-neighbor halos) and share this walk DP.
template <gf::GaloisField F>
MidasResult midas_kpath_views(const std::vector<partition::PartView>& views,
                              const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(static_cast<int>(views.size()) == opt.n1,
                          "views must have N1 parts");
  if (opt.rand_tables != nullptr)
    detail::require_options(opt.rand_tables->seed == opt.seed &&
                                opt.rand_tables->k == opt.k &&
                                opt.rand_tables->parts ==
                                    static_cast<int>(views.size()) &&
                                opt.rand_tables->rounds >= opt.rounds(),
                            "rand_tables do not match this run's "
                            "(seed, k, parts, rounds)");

  const detail::Recurrence rec{.tag = 0x6b70617468ULL /* "kpath" */};
  return detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    detail::kpath_rank(pr, rounds, f, opt.k, opt.seed, opt.rand_tables);
  }).result;
}

/// Distributed k-path detection. `part` must have exactly opt.n1 parts.
template <gf::GaloisField F>
MidasResult midas_kpath(const graph::Graph& g,
                        const partition::Partition& part,
                        const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1,
                          "partition must have N1 parts");
  return midas_kpath_views(partition::build_part_views(g, part), opt, f);
}

/// Distributed *directed* k-path detection: the same engine over
/// in-neighbor halo views (see partition::build_dipart_views).
template <gf::GaloisField F>
MidasResult midas_kpath_directed(const graph::DiGraph& g,
                                 const partition::Partition& part,
                                 const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1,
                          "partition must have N1 parts");
  return midas_kpath_views(partition::build_dipart_views(g, part), opt, f);
}

// ---------------------------------------------------------------------------
// k-tree
// ---------------------------------------------------------------------------

/// Distributed k-tree detection over pre-built part views (the
/// artifact-cached twin of midas_ktree; see midas_kpath_views).
template <gf::GaloisField F>
MidasResult midas_ktree_views(const std::vector<partition::PartView>& views,
                              const TreeDecomposition& td,
                              const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(static_cast<int>(views.size()) == opt.n1,
                          "views must have N1 parts");
  detail::require_options(td.k() == opt.k, "template size must equal opt.k");
  const auto& subs = td.subtemplates();

  // The decomposition shape feeds the config fingerprint: resuming a
  // snapshot against a different template must be rejected.
  std::vector<std::uint64_t> tw{static_cast<std::uint64_t>(td.root_id())};
  for (const auto& sub : subs)
    tw.insert(tw.end(), {static_cast<std::uint64_t>(sub.child1),
                         static_cast<std::uint64_t>(sub.child2),
                         static_cast<std::uint64_t>(sub.template_vertex)});
  const detail::Recurrence rec{
      .tag = 0x6b74726565ULL /* "ktree" */,
      .extra =
          runtime::fnv1a(std::as_bytes(std::span<const std::uint64_t>(tw)))};

  return detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    detail::ktree_rank(pr, rounds, f, td, opt.seed);
  }).result;
}

/// Distributed k-tree detection for a template decomposition.
template <gf::GaloisField F>
MidasResult midas_ktree(const graph::Graph& g,
                        const partition::Partition& part,
                        const TreeDecomposition& td, const MidasOptions& opt,
                        const F& f = F{}) {
  detail::require_options(part.parts == opt.n1,
                          "partition must have N1 parts");
  return midas_ktree_views(partition::build_part_views(g, part), td, opt, f);
}

// ---------------------------------------------------------------------------
// Scan statistics
// ---------------------------------------------------------------------------

struct MidasScanResult {
  FeasibilityTable table;
  double vtime = 0.0;
  double wall_s = 0.0;
  runtime::CommStats total_stats;
  std::vector<double> vclocks;
  std::vector<int> failed_ranks;  // world ranks lost to injected faults
  int resumed_from_round = -1;    // snapshot round this run resumed at
};

/// Distributed (size, weight) feasibility for connected subgraphs — the
/// parallel form of Algorithm 5. Messages carry the whole weight axis, so a
/// phase ships (W+1) * N2 values per boundary vertex per size step.
template <gf::GaloisField F>
MidasScanResult midas_scan_views(
    const std::vector<partition::PartView>& views,
    const std::vector<std::uint32_t>& weights, const MidasOptions& opt,
    const F& f = F{}) {
  detail::require_options(static_cast<int>(views.size()) == opt.n1,
                          "views must have N1 parts");
  {
    std::size_t total_local = 0;
    for (const auto& view : views) total_local += view.num_local();
    detail::require_options(weights.size() == total_local,
                            "one weight per vertex required");
  }
  const int k = opt.k;

  const std::uint32_t wmax = max_weight_of(weights, k);
  const std::uint32_t width = wmax + 1;

  // The accumulator holds one sum per (j, z): accum[j * width + z].
  const detail::Recurrence rec{
      .tag = 0x7363616eULL /* "scan" */,
      .extra = runtime::fnv1a(
          std::as_bytes(std::span<const std::uint32_t>(weights))),
      .acc_len = static_cast<std::size_t>(k + 1) * width,
      .stops_on_found = false};

  auto run = detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    detail::scan_rank(pr, rounds, f, k, opt.seed, weights, width);
  });

  MidasScanResult result;
  result.table.k = k;
  result.table.max_weight = wmax;
  result.table.feasible.assign(static_cast<std::size_t>(k) + 1,
                               std::vector<bool>(width, false));
  result.vtime = run.result.vtime;
  result.wall_s = run.result.wall_s;
  result.total_stats = run.result.total_stats;
  result.vclocks = std::move(run.result.vclocks);
  result.failed_ranks = std::move(run.result.failed_ranks);
  result.resumed_from_round = run.result.resumed_from_round;
  for (std::size_t i = 0; i < run.cells.size(); ++i)
    if (run.cells[i])
      result.table.feasible[i % rec.acc_len / width][i % width] = true;
  return result;
}

/// Distributed scan feasibility over a (graph, partition) pair; builds the
/// part views and delegates to midas_scan_views.
template <gf::GaloisField F>
MidasScanResult midas_scan(const graph::Graph& g,
                           const partition::Partition& part,
                           const std::vector<std::uint32_t>& weights,
                           const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1,
                          "partition must have N1 parts");
  detail::require_options(weights.size() == g.num_vertices(),
                          "one weight per vertex required");
  return midas_scan_views(partition::build_part_views(g, part), weights, opt,
                          f);
}

// ---------------------------------------------------------------------------
// Constrained (Graph Motif) detection, distributed
// ---------------------------------------------------------------------------

/// Distributed Graph Motif detection over pre-built part views: the
/// constrained sieve of core/motif.hpp on a scan-style layered DP (no
/// weight axis). `colors` is indexed by *global* vertex id; `opt.k` must
/// equal `motif.size()`. Halo payloads travel plane-native under both
/// kernels (byte-identical), so checkpoints and the watchdog stay
/// kernel-independent; answers are bit-identical to detect_motif_seq for
/// the same seed.
template <gf::GaloisField F>
MidasResult midas_motif_views(const std::vector<partition::PartView>& views,
                              const std::vector<std::uint32_t>& colors,
                              const std::vector<std::uint32_t>& motif,
                              const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(static_cast<int>(views.size()) == opt.n1,
                          "views must have N1 parts");
  {
    std::size_t total_local = 0;
    for (const auto& view : views) total_local += view.num_local();
    detail::require_options(colors.size() == total_local,
                            "one color per vertex required");
  }
  detail::require_options(
      opt.k == static_cast<int>(motif.size()),
      "opt.k must equal the motif size (one shade per motif slot)");
  const ShadePlan plan = make_shade_plan(colors, motif);

  // The colors and the motif multiset feed the config fingerprint: a
  // snapshot must not resume against a differently-colored input.
  std::vector<std::uint64_t> cw{colors.size()};
  cw.insert(cw.end(), colors.begin(), colors.end());
  cw.insert(cw.end(), motif.begin(), motif.end());
  const detail::Recurrence rec{
      .tag = 0x6d6f746966ULL /* "motif" */,
      .extra =
          runtime::fnv1a(std::as_bytes(std::span<const std::uint64_t>(cw)))};

  return detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    detail::motif_rank(pr, rounds, f, plan, opt.seed);
  }).result;
}

/// Distributed Graph Motif detection for a (graph, partition) pair; builds
/// the part views and delegates to midas_motif_views.
template <gf::GaloisField F>
MidasResult midas_motif(const graph::Graph& g,
                        const partition::Partition& part,
                        const std::vector<std::uint32_t>& colors,
                        const std::vector<std::uint32_t>& motif,
                        const MidasOptions& opt, const F& f = F{}) {
  detail::require_options(part.parts == opt.n1,
                          "partition must have N1 parts");
  detail::require_options(colors.size() == g.num_vertices(),
                          "one color per vertex required");
  return midas_motif_views(partition::build_part_views(g, part), colors,
                           motif, opt, f);
}

// ---------------------------------------------------------------------------
// Weighted k-path (max-weight variant), distributed
// ---------------------------------------------------------------------------

struct MidasWeightedResult {
  std::vector<bool> feasible_weight;  // achievable k-path weights
  std::optional<std::uint32_t> max_weight;
  double vtime = 0.0;
  double wall_s = 0.0;
  runtime::CommStats total_stats;
  std::vector<int> failed_ranks;  // world ranks lost to injected faults
  int resumed_from_round = -1;    // snapshot round this run resumed at
};

/// Distributed maximum-weight k-path: the k-path phase body at width
/// max_weight_of + 1 (paper Problem 3 part 2). Messages carry the whole
/// weight axis, one plane-native row per weight, like the scan engine.
template <gf::GaloisField F>
MidasWeightedResult midas_weighted_kpath(
    const graph::Graph& g, const partition::Partition& part,
    const std::vector<std::uint32_t>& weights, const MidasOptions& opt,
    const F& f = F{}) {
  detail::require_options(part.parts == opt.n1,
                          "partition must have N1 parts");
  detail::require_options(weights.size() == g.num_vertices(),
                          "one weight per vertex required");
  const int k = opt.k;
  const auto views = partition::build_part_views(g, part);

  const std::uint32_t wmax = max_weight_of(weights, k);
  const std::uint32_t width = wmax + 1;

  // The accumulator is the width-wide feasibility row.
  const detail::Recurrence rec{
      .tag = 0x776b70617468ULL /* "wkpath" */,
      .extra = runtime::fnv1a(
          std::as_bytes(std::span<const std::uint32_t>(weights))),
      .acc_len = width,
      .stops_on_found = false};

  auto run = detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    detail::kpath_rank(pr, rounds, f, k, opt.seed, nullptr, weights, width);
  });

  MidasWeightedResult result;
  result.feasible_weight.assign(width, false);
  result.vtime = run.result.vtime;
  result.wall_s = run.result.wall_s;
  result.total_stats = run.result.total_stats;
  result.failed_ranks = std::move(run.result.failed_ranks);
  result.resumed_from_round = run.result.resumed_from_round;
  for (std::size_t i = 0; i < run.cells.size(); ++i)
    if (run.cells[i]) result.feasible_weight[i % width] = true;
  for (std::uint32_t z = 0; z < width; ++z)
    if (result.feasible_weight[z]) result.max_weight = z;
  return result;
}

}  // namespace midas::core
