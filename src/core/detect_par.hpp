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
// for the same seed because all randomness is hash-derived and the final
// accumulator is an XOR (order-independent) allreduce.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/detect_seq.hpp"
#include "core/errors.hpp"
#include "core/hashrand.hpp"
#include "core/layered_fold.hpp"
#include "core/motif.hpp"
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

/// Precomputed per-(seed, k) randomness for the k-path engine: the Z2^k
/// vectors v_i and per-level field coefficients r_{i,j} of every round,
/// laid out exactly as the engine consumes them (one array per (round,
/// part), level-major coefficients). The values are produced by the same
/// v_vector/field_coeff hashes the engine would otherwise evaluate on the
/// fly, so a run with tables is bit-identical to one without — the tables
/// only trade memory for the per-round hashing, which is what lets a query
/// service amortize them across repeated (graph, seed, k) workloads.
/// Coefficients are stored widened to 64 bits so one table type serves
/// every field; the engine narrows back to its value_type on load.
struct RandTables {
  std::uint64_t seed = 0;
  int k = 0;
  int rounds = 0;
  int parts = 0;
  /// v[round * parts + part][li] = v_vector(seed, round, gid(li), k).
  std::vector<std::vector<std::uint32_t>> v;
  /// coeff[round * parts + part][(j-1)*nl + li] = r_{gid(li), j}.
  std::vector<std::vector<std::uint64_t>> coeff;

  [[nodiscard]] const std::vector<std::uint32_t>& v_of(int round,
                                                       int part) const {
    return v[static_cast<std::size_t>(round) *
                 static_cast<std::size_t>(parts) +
             static_cast<std::size_t>(part)];
  }
  [[nodiscard]] const std::vector<std::uint64_t>& coeff_of(int round,
                                                           int part) const {
    return coeff[static_cast<std::size_t>(round) *
                     static_cast<std::size_t>(parts) +
                 static_cast<std::size_t>(part)];
  }
};

/// Build the randomness tables for `rounds` rounds of a k-path run over
/// `views` (one entry per part) in field `f`.
template <gf::GaloisField F>
[[nodiscard]] RandTables build_rand_tables(
    const std::vector<partition::PartView>& views, std::uint64_t seed, int k,
    int rounds, const F& f) {
  RandTables rt;
  rt.seed = seed;
  rt.k = k;
  rt.rounds = rounds;
  rt.parts = static_cast<int>(views.size());
  const std::size_t slots =
      static_cast<std::size_t>(rounds) * views.size();
  rt.v.resize(slots);
  rt.coeff.resize(slots);
  for (int round = 0; round < rounds; ++round)
    for (std::size_t p = 0; p < views.size(); ++p) {
      const auto& view = views[p];
      const std::uint32_t nl = view.num_local();
      auto& vt = rt.v[static_cast<std::size_t>(round) * views.size() + p];
      auto& ct =
          rt.coeff[static_cast<std::size_t>(round) * views.size() + p];
      vt.resize(nl);
      ct.resize(static_cast<std::size_t>(k) * nl);
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        vt[li] = v_vector(seed, round, gid, k);
        for (int j = 1; j <= k; ++j)
          ct[static_cast<std::size_t>(j - 1) * nl + li] =
              static_cast<std::uint64_t>(field_coeff(
                  f, seed, round, gid, static_cast<std::uint32_t>(j)));
      }
    }
  return rt;
}

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

/// Exchange one DP level in the value layout: for each neighboring part,
/// pack the batch-wide values of the boundary vertices, alltoallv within
/// the phase group, and scatter incoming values into the ghost array. Used
/// by fields without a bit-sliced kernel and by the scalar-only engines
/// (weighted k-path, scan2d); the others go through halo_exchange_planes.
template <typename V>
void halo_exchange(runtime::Comm& comm, const partition::PartView& view,
                   const std::vector<V>& local_vals,
                   std::vector<V>& ghost_vals, std::size_t batch) {
  MIDAS_TRACE_SPAN("engine.halo_exchange");
  const int p = comm.size();
  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t) {
    const auto& list = view.send_to[static_cast<std::size_t>(t)];
    if (list.empty()) continue;
    auto& buf = send[static_cast<std::size_t>(t)];
    buf.resize(list.size() * batch * sizeof(V));
    std::byte* out = buf.data();
    for (std::uint32_t li : list) {
      std::memcpy(out, local_vals.data() + li * batch, batch * sizeof(V));
      out += batch * sizeof(V);
    }
    MIDAS_TRACE_COUNT("halo.messages", 1);
    MIDAS_TRACE_COUNT("halo.bytes", buf.size());
    MIDAS_TRACE_OBSERVE("halo.message_bytes", buf.size());
  }
  auto recv = comm.alltoallv(std::move(send));
  for (int t = 0; t < p; ++t) {
    const auto& targets = view.recv_from[static_cast<std::size_t>(t)];
    if (targets.empty()) continue;
    const auto& buf = recv[static_cast<std::size_t>(t)];
    MIDAS_ASSERT(buf.size() == targets.size() * batch * sizeof(V),
                 "halo message size mismatch");
    const std::byte* in = buf.data();
    for (std::uint32_t gi : targets) {
      std::memcpy(ghost_vals.data() + gi * batch, in, batch * sizeof(V));
      in += batch * sizeof(V);
    }
  }
}

/// A partial block's l planes of `lanes` (< 64) live bits each, packed
/// back to back: plane q starts at bit q * lanes of `bits` (l + 1 words).
template <gf::detail_bs::PlaneWord W>
void pack_plane_bits(std::uint64_t* bits, const W* planes, int l, int lanes) {
  const std::uint64_t mask = gf::detail_bs::low_lanes(lanes);
  std::fill(bits, bits + l + 1, std::uint64_t{0});
  for (int q = 0; q < l; ++q) {
    const std::uint64_t w = static_cast<std::uint64_t>(planes[q]) & mask;
    const int word = q * lanes / 64;
    const int sh = q * lanes % 64;
    bits[word] |= w << sh;
    if (sh + lanes > 64) bits[word + 1] |= w >> (64 - sh);
  }
}

/// Inverse of pack_plane_bits.
template <gf::detail_bs::PlaneWord W>
void unpack_plane_bits(W* planes, const std::uint64_t* bits, int l,
                       int lanes) {
  const std::uint64_t mask = gf::detail_bs::low_lanes(lanes);
  for (int q = 0; q < l; ++q) {
    const int word = q * lanes / 64;
    const int sh = q * lanes % 64;
    std::uint64_t w = bits[word] >> sh;
    if (sh + lanes > 64) w |= bits[word + 1] << (64 - sh);
    planes[q] = static_cast<W>(w & mask);
  }
}

/// Plane-native halo: the wire format of every engine that has a bit-sliced
/// kernel, under both kernels (docs/ALGORITHM.md section 6). A vertex's
/// halo value is `units` rows of `batch` lanes; for each row and each
/// 64-lane wire block of it, the message carries the block's l bit-planes,
/// each cut to its `lanes` live bits and packed back to back, the block
/// padded to a whole byte: ceil(l * lanes / 8) bytes, which is
/// ceil(lanes / 8) bytes per plane whenever lanes is a multiple of 8.
/// Vertices follow the view's send/recv lists, as in the value layout.
/// In memory a block has W planes (gf::detail_bs::dispatch_block): a narrow
/// W only ever holds a whole batch, so memory and wire blocks coincide, and
/// a block whose lanes fill its word is its own payload, copied with one
/// memcpy; only partial words are packed. `load(li, u, blk, tmp)` returns
/// the planes of a local block (in place, or transposed into `tmp`);
/// `store(gi, u, blk, planes)` writes one ghost block. The message count is
/// that of halo_exchange and, at l = 8, so is every byte count.
template <gf::detail_bs::PlaneWord W, typename Load, typename Store>
void halo_exchange_planes(runtime::Comm& comm,
                          const partition::PartView& view, int l,
                          std::size_t units, std::size_t batch, Load&& load,
                          Store&& store) {
  constexpr int kLanes = gf::detail_bs::kLanesOf<W>;
  static_assert(std::endian::native == std::endian::little,
                "plane words are serialized by memcpy as little-endian");
  MIDAS_TRACE_SPAN("engine.halo_exchange");
  MIDAS_ASSERT(kLanes == gf::BitslicedGF::kLanes || batch <= kLanes,
               "a narrow plane word must hold the whole batch");
  const std::size_t nblocks = (batch + kLanes - 1) / kLanes;
  auto lanes_of = [&](std::size_t blk) {
    return static_cast<int>(std::min<std::size_t>(kLanes,
                                                  batch - blk * kLanes));
  };
  auto block_bytes = [&](std::size_t blk) {
    return (static_cast<std::size_t>(l) * lanes_of(blk) + 7) / 8;
  };
  std::size_t vertex_bytes = 0;
  for (std::size_t blk = 0; blk < nblocks; ++blk)
    vertex_bytes += block_bytes(blk);
  vertex_bytes *= units;

  W tmp[16];               // one block's planes
  std::uint64_t bits[17];  // a partial block's packed planes, plus a spill
  const int p = comm.size();
  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t) {
    const auto& list = view.send_to[static_cast<std::size_t>(t)];
    if (list.empty()) continue;
    auto& buf = send[static_cast<std::size_t>(t)];
    buf.resize(list.size() * vertex_bytes);
    std::byte* out = buf.data();
    for (std::uint32_t li : list)
      for (std::size_t u = 0; u < units; ++u)
        for (std::size_t blk = 0; blk < nblocks; ++blk) {
          const W* planes = load(li, u, blk, tmp);
          const int lanes = lanes_of(blk);
          const std::size_t nb = block_bytes(blk);
          if (lanes == kLanes) {
            std::memcpy(out, planes, nb);
          } else {
            pack_plane_bits(bits, planes, l, lanes);
            std::memcpy(out, bits, nb);
          }
          out += nb;
        }
    MIDAS_TRACE_COUNT("halo.messages", 1);
    MIDAS_TRACE_COUNT("halo.bytes", buf.size());
    MIDAS_TRACE_OBSERVE("halo.message_bytes", buf.size());
  }
  auto recv = comm.alltoallv(std::move(send));
  for (int t = 0; t < p; ++t) {
    const auto& targets = view.recv_from[static_cast<std::size_t>(t)];
    if (targets.empty()) continue;
    const auto& buf = recv[static_cast<std::size_t>(t)];
    MIDAS_ASSERT(buf.size() == targets.size() * vertex_bytes,
                 "halo message size mismatch");
    const std::byte* in = buf.data();
    for (std::uint32_t gi : targets)
      for (std::size_t u = 0; u < units; ++u)
        for (std::size_t blk = 0; blk < nblocks; ++blk) {
          const int lanes = lanes_of(blk);
          const std::size_t nb = block_bytes(blk);
          if (lanes == kLanes) {
            std::memcpy(tmp, in, nb);
          } else {
            std::fill(bits, bits + l + 1, std::uint64_t{0});
            std::memcpy(bits, in, nb);
            unpack_plane_bits(tmp, bits, l, lanes);
          }
          store(gi, u, blk, static_cast<const W*>(tmp));
          in += nb;
        }
  }
}

/// Bit-sliced kernels: local and ghost planes in the (vertex, row, block,
/// plane) layout travel as they are, with no transpose.
template <gf::detail_bs::PlaneWord W>
void halo_exchange_planes(runtime::Comm& comm,
                          const partition::PartView& view,
                          const gf::BitslicedGF& bs, std::size_t units,
                          std::size_t batch, const std::vector<W>& local,
                          std::vector<W>& ghost) {
  constexpr std::size_t kLanes = gf::detail_bs::kLanesOf<W>;
  const auto L = static_cast<std::size_t>(bs.words());
  const std::size_t wpv = (batch + kLanes - 1) / kLanes * L;
  halo_exchange_planes<W>(
      comm, view, bs.words(), units, batch,
      [&](std::uint32_t li, std::size_t u, std::size_t blk, W*) {
        return &local[(li * units + u) * wpv + blk * L];
      },
      [&](std::uint32_t gi, std::size_t u, std::size_t blk, const W* planes) {
        std::copy(planes, planes + L,
                  &ghost[(gi * units + u) * wpv + blk * L]);
      });
}

/// The scalar kernel's halo over (vertex, row, lane) value arrays. Fields
/// with a bit-sliced twin ship plane-native — values transposed to planes
/// on send and back on receive, so payloads are byte-identical to the
/// bit-sliced kernel's; other fields (GF64, Z/2^e) keep the value layout.
template <gf::GaloisField F>
void halo_exchange_scalar(runtime::Comm& comm,
                          const partition::PartView& view, const F& f,
                          std::size_t units, std::size_t batch,
                          const std::vector<typename F::value_type>& local,
                          std::vector<typename F::value_type>& ghost) {
  if constexpr (gf::Bitsliceable<F>) {
    using word = gf::BitslicedGF::word;
    constexpr std::size_t kLanes = gf::BitslicedGF::kLanes;
    const gf::BitslicedGF bs(f);
    auto lanes_of = [&](std::size_t blk) {
      return static_cast<int>(std::min(kLanes, batch - blk * kLanes));
    };
    halo_exchange_planes<word>(
        comm, view, bs.words(), units, batch,
        [&](std::uint32_t li, std::size_t u, std::size_t blk, word* tmp) {
          bs.pack_lanes(tmp, &local[(li * units + u) * batch + blk * kLanes],
                        lanes_of(blk));
          return static_cast<const word*>(tmp);
        },
        [&](std::uint32_t gi, std::size_t u, std::size_t blk,
            const word* planes) {
          bs.unpack_lanes(&ghost[(gi * units + u) * batch + blk * kLanes],
                          planes, lanes_of(blk));
        });
  } else {
    (void)f;
    halo_exchange(comm, view, local, ghost, units * batch);
  }
}

/// Sum over local vertices and batch lanes, XORed into `total`.
template <gf::GaloisField F>
void accumulate_level(const F& f, const std::vector<typename F::value_type>& vals,
                      std::size_t count, typename F::value_type& total) {
  for (std::size_t idx = 0; idx < count; ++idx) total = f.add(total, vals[idx]);
}

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
  bool bitsliced = true;  // the recurrence has a bit-sliced phase body
};

/// A rank's seat in a phase-engine run, handed to the recurrence.
struct PhaseRank {
  runtime::Comm& world;
  runtime::Comm& group;             // this rank's phase group
  const partition::PartView& view;  // the graph part this rank owns
  const gf::BitslicedGF* bs;        // set iff the bit-sliced kernel runs
};

/// Bit-sliced phase body of a recurrence that has none.
struct ScalarOnly {};

/// What a phase-engine run leaves on the host: the result record and one
/// found byte per (round, accumulator slot).
struct PhaseEngineRun {
  MidasResult result;
  std::vector<std::uint8_t> cells;  // cells[round * acc_len + slot]
};

/// The distributed phase engine (paper Section IV, Fig. 1), shared by every
/// recurrence. `rank_body(pr, rounds)` runs once per rank: it builds the
/// recurrence's per-rank state and calls rounds(begin_round, phase,
/// phase_bs). begin_round(round) does the per-round hashing;
/// phase(q0, batch, acc) and phase_bs(bs, q0, batch, acc) evaluate the
/// phase of iterations [q0, q0 + batch) and XOR it into the rank's
/// accumulator `acc` (a std::span of rec.acc_len values). Pass
/// ScalarOnly{} when the recurrence has no bit-sliced body (and set
/// rec.bitsliced = false).
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
  // Kernel choice (the parallel twin of detail_seq::use_bitsliced): auto
  // takes the bit-sliced kernel wherever the field and recurrence have one.
  require_options(rec.bitsliced || opt.kernel != Kernel::kBitsliced,
                  "kernel=bitsliced: this engine has no bit-sliced phase");
  bool bitsliced = false;
  if constexpr (gf::Bitsliceable<F>)
    bitsliced = rec.bitsliced && opt.kernel != Kernel::kScalar &&
                f.bits() <= 16;
  else
    require_options(opt.kernel != Kernel::kBitsliced,
                    "kernel=bitsliced requires a GF(2^l) field with l <= 16 "
                    "that exposes modulus() (GF256 or GFSmall)");
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
    const PhaseRank pr{world, group,
                       views[static_cast<std::size_t>(world.rank() % opt.n1)],
                       bse ? &*bse : nullptr};

    rank_body(pr, [&](auto&& begin_round, auto&& phase_scalar,
                      auto&& phase_bs) {
      auto compute_phase = [&](std::uint64_t phase, std::span<V> acc) {
        MIDAS_TRACE_SPAN(bitsliced ? "engine.phase.bitsliced"
                                   : "engine.phase.scalar",
                         {"phase", static_cast<std::int64_t>(phase)});
        [[maybe_unused]] const double vt0 = world.vclock();
        const auto [q0, q1] = sched.phase_range(phase);
        if constexpr (gf::Bitsliceable<F> &&
                      !std::is_same_v<std::decay_t<decltype(phase_bs)>,
                                      ScalarOnly>) {
          if (bitsliced)
            phase_bs(*bse, q0, q1 - q0, acc);
          else
            phase_scalar(q0, q1 - q0, acc);
        } else {
          phase_scalar(q0, q1 - q0, acc);
        }
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
  using V = typename F::value_type;
  detail::require_options(static_cast<int>(views.size()) == opt.n1,
                          "views must have N1 parts");
  const int k = opt.k;
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
    runtime::Comm& world = pr.world;
    runtime::Comm& group = pr.group;
    const auto& view = pr.view;
    const std::uint32_t nl = view.num_local();
    const std::uint32_t ng = view.num_ghosts();

    std::vector<std::uint32_t> v(nl);
    std::vector<V> r(static_cast<std::size_t>(k) * nl);
    std::vector<V> cur, next, ghost, scratch;
    std::vector<std::uint8_t> live_q;

    // Bit-sliced state (gf/bitsliced.hpp). Halos are plane-native under
    // both kernels (detail::halo_exchange_planes): boundary blocks ship as
    // they are and the scalar kernel does the transposes. With every
    // charge_* call mirroring the scalar kernel, clocks, messages,
    // snapshots, and the failover protocol are identical across kernels.
    gf::detail_bs::PerWord<gf::detail_bs::Planes> bcur_w, bnext_w, bghost_w,
        blive_w;
    std::vector<gf::BitslicedGF::Matrix> mats;
    if (pr.bs != nullptr) mats.resize(static_cast<std::size_t>(k - 1) * nl);

    // One phase of the walk DP: the N2-wide base case plus k-1
    // halo-exchanged inductive levels, XOR-accumulated into `total`.
    auto compute_phase_scalar = [&](std::uint64_t q0, std::size_t batch,
                                    std::span<V> acc) {
      V& total = acc[0];
      cur.assign(static_cast<std::size_t>(nl) * batch, f.zero());
      next.assign(static_cast<std::size_t>(nl) * batch, f.zero());
      ghost.assign(static_cast<std::size_t>(ng) * batch, f.zero());
      scratch.assign(batch, f.zero());
      live_q.assign(static_cast<std::size_t>(nl) * batch, 0);

      // Memory model: each level streams the local adjacency plus the
      // active state arrays; the resident working set decides hot/cold.
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t state_bytes =
          (static_cast<std::uint64_t>(nl) * 2 + ng) * batch * sizeof(V);
      const std::uint64_t working_set =
          adj_bytes + state_bytes + r.size() * sizeof(V);

      // Base case P(i, q, 1); the liveness flags are per (vertex,
      // iteration), so compute them once and reuse across all k levels.
      for (std::uint32_t li = 0; li < nl; ++li) {
        V* row = cur.data() + static_cast<std::size_t>(li) * batch;
        std::uint8_t* lq =
            live_q.data() + static_cast<std::size_t>(li) * batch;
        const V r1 = r[li];
        for (std::size_t b = 0; b < batch; ++b) {
          const auto q = static_cast<std::uint32_t>(q0 + b);
          lq[b] = inner_product_odd(v[li], q) ? 0 : 1;
          row[b] = lq[b] ? r1 : f.zero();
        }
      }
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);

      // Inductive steps with one halo exchange per level.
      for (int j = 2; j <= k; ++j) {
        detail::halo_exchange_scalar(group, view, f, 1, batch, cur, ghost);
        const V* rj = r.data() + static_cast<std::size_t>(j - 1) * nl;
        std::uint64_t ops = 0;
        for (std::uint32_t li = 0; li < nl; ++li) {
          V* out = next.data() + static_cast<std::size_t>(li) * batch;
          // Accumulate neighbor values lane-wise into the scratch row.
          std::fill(scratch.begin(), scratch.end(), f.zero());
          const auto begin = view.adj_offsets[li];
          const auto end = view.adj_offsets[li + 1];
          for (auto e = begin; e < end; ++e) {
            const auto ref = view.adj[e];
            const V* src =
                ref.is_ghost()
                    ? ghost.data() +
                          static_cast<std::size_t>(ref.index()) * batch
                    : cur.data() +
                          static_cast<std::size_t>(ref.index()) * batch;
            for (std::size_t b = 0; b < batch; ++b)
              scratch[b] = f.add(scratch[b], src[b]);
          }
          ops += (end - begin) * batch;
          // Gate by liveness, then scale the whole row by the level
          // coefficient — one log lookup for the row via scale_add/axpy.
          const std::uint8_t* lq =
              live_q.data() + static_cast<std::size_t>(li) * batch;
          for (std::size_t b = 0; b < batch; ++b)
            if (!lq[b]) scratch[b] = f.zero();
          std::fill(out, out + batch, f.zero());
          gf::scale_add_row(f, out, rj[li], scratch.data(), batch);
          ops += batch;
        }
        world.charge_compute(ops);
        // Kernel traffic: every adjacency entry pulls a batch-wide row of
        // neighbor state (random access), plus one pass over adjacency.
        world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
        std::swap(cur, next);
      }
      detail::accumulate_level(f, cur,
                               static_cast<std::size_t>(nl) * batch, total);
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    };

    // The same phase, bit-sliced: blocks of W-bit planes per vertex (W the
    // narrowest of 8/16/32 lanes holding the batch, else ceil(batch/64)
    // 64-lane blocks), liveness as parity masks, constant scaling as plane
    // matrices. Generic lambda so the body only instantiates for
    // Bitsliceable fields.
    auto compute_phase_bs = [&](const auto& bs, std::uint64_t q0,
                                std::size_t batch, std::span<V> acc) {
      V& total = acc[0];
      using BS = gf::BitslicedGF;
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t state_bytes =
          (static_cast<std::uint64_t>(nl) * 2 + ng) * batch * sizeof(V);
      const std::uint64_t working_set =
          adj_bytes + state_bytes + r.size() * sizeof(V);

      // (plane word, plane count) are compile-time from here.
      gf::detail_bs::dispatch_block(batch, f, [&](auto wt, auto lc) {
        using W = typename decltype(wt)::type;
        constexpr int LC = decltype(lc)::value;
        constexpr std::size_t kLanes = gf::detail_bs::kLanesOf<W>;
        const std::size_t nblocks = (batch + kLanes - 1) / kLanes;
        const std::size_t wpv = nblocks * LC;
        auto& bcur = bcur_w.get<W>();
        auto& bnext = bnext_w.get<W>();
        auto& bghost = bghost_w.get<W>();
        auto& blive = blive_w.get<W>();
        bcur.assign(static_cast<std::size_t>(nl) * wpv, 0);
        bnext.assign(static_cast<std::size_t>(nl) * wpv, 0);
        bghost.assign(static_cast<std::size_t>(ng) * wpv, 0);
        blive.assign(static_cast<std::size_t>(nl) * nblocks, 0);

        // Base case: one parity mask per (vertex, block), level-1
        // coefficient broadcast into the live lanes.
        for (std::uint32_t li = 0; li < nl; ++li)
          for (std::size_t blk = 0; blk < nblocks; ++blk) {
            const W m = BS::live_mask<W>(
                v[li], q0 + blk * kLanes,
                static_cast<int>(std::min(kLanes, batch - blk * kLanes)));
            blive[static_cast<std::size_t>(li) * nblocks + blk] = m;
            BS::broadcast_w<LC>(
                &bcur[static_cast<std::size_t>(li) * wpv + blk * LC],
                static_cast<BS::value_type>(r[li]), m);
          }
        world.charge_compute(static_cast<std::uint64_t>(nl) * batch);

        for (int j = 2; j <= k; ++j) {
          detail::halo_exchange_planes(group, view, bs, 1, batch, bcur,
                                       bghost);
          const BS::Matrix* mj =
              mats.data() + static_cast<std::size_t>(j - 2) * nl;
          for (std::uint32_t li = 0; li < nl; ++li) {
            const auto begin = view.adj_offsets[li];
            const auto end = view.adj_offsets[li + 1];
            for (std::size_t blk = 0; blk < nblocks; ++blk) {
              W* out = &bnext[static_cast<std::size_t>(li) * wpv + blk * LC];
              const W m = blive[static_cast<std::size_t>(li) * nblocks + blk];
              if (m == 0) {
                BS::clear_w<LC>(out);
                continue;
              }
              W acc[LC] = {};
              for (auto e = begin; e < end; ++e) {
                const auto ref = view.adj[e];
                const W* src =
                    ref.is_ghost()
                        ? &bghost[static_cast<std::size_t>(ref.index()) * wpv +
                                  blk * LC]
                        : &bcur[static_cast<std::size_t>(ref.index()) * wpv +
                                blk * LC];
                BS::add_into_w<LC>(acc, src);
              }
              BS::mul_matrix_masked_w<LC>(out, mj[li], acc, m);
            }
          }
          // Charge the same logical work as the scalar kernel: one add per
          // adjacency entry per lane, one gate/scale per vertex-lane.
          const std::uint64_t ops =
              (view.adj.size() + nl) * static_cast<std::uint64_t>(batch);
          world.charge_compute(ops);
          world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
          std::swap(bcur, bnext);
        }
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          total = f.add(total, static_cast<V>(gf::fold_xor_rows<LC>(
                                   bcur.data() + blk * LC, nl, wpv)));
      });
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    };

    auto begin_round = [&](int round) {
      if (opt.rand_tables != nullptr) {
        // Cached randomness: same hash values, precomputed once per
        // (seed, k) and shared across queries (see RandTables).
        const int my_part = world.rank() % opt.n1;
        const auto& vt = opt.rand_tables->v_of(round, my_part);
        const auto& ct = opt.rand_tables->coeff_of(round, my_part);
        std::copy(vt.begin(), vt.end(), v.begin());
        for (std::size_t idx = 0; idx < r.size(); ++idx)
          r[idx] = static_cast<V>(ct[idx]);
      } else {
        for (std::uint32_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          v[li] = v_vector(opt.seed, round, gid, k);
          for (int j = 1; j <= k; ++j)
            r[static_cast<std::size_t>(j - 1) * nl + li] = field_coeff(
                f, opt.seed, round, gid, static_cast<std::uint32_t>(j));
        }
      }
      // Level coefficients are fixed per round: build their multiply
      // matrices once, amortized over every phase and failover redo.
      if (pr.bs != nullptr)
        for (int j = 2; j <= k; ++j)
          for (std::uint32_t li = 0; li < nl; ++li)
            mats[static_cast<std::size_t>(j - 2) * nl + li] =
                pr.bs->matrix(static_cast<gf::BitslicedGF::value_type>(
                    r[static_cast<std::size_t>(j - 1) * nl + li]));
    };
    rounds(begin_round, compute_phase_scalar, compute_phase_bs);
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
  using V = typename F::value_type;
  detail::require_options(static_cast<int>(views.size()) == opt.n1,
                          "views must have N1 parts");
  detail::require_options(td.k() == opt.k, "template size must equal opt.k");
  const int k = opt.k;
  const auto& subs = td.subtemplates();

  // Which subtemplates ever appear as a child2 (their values cross parts).
  std::vector<bool> needs_exchange(subs.size(), false);
  for (const auto& sub : subs)
    if (sub.child1 >= 0)
      needs_exchange[static_cast<std::size_t>(sub.child2)] = true;

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
    runtime::Comm& world = pr.world;
    runtime::Comm& group = pr.group;
    const auto& view = pr.view;
    const std::uint32_t nl = view.num_local();
    const std::uint32_t ng = view.num_ghosts();

    std::vector<std::uint32_t> v(nl);
    std::vector<std::vector<V>> vals(subs.size());
    std::vector<std::vector<V>> ghost(subs.size());
    // leafc[s][li]: leaf coefficient of subtemplate s at vertex li, hashed
    // once per round and shared by every phase (internal subtemplates
    // leave their slot empty).
    std::vector<std::vector<V>> leafc(subs.size());

    // Bit-sliced state: plane arrays mirror vals/ghost subtemplate by
    // subtemplate; halos are plane-native under both kernels (layout notes
    // in the k-path engine and docs/ALGORITHM.md section 6).
    gf::detail_bs::PerWord<gf::detail_bs::PlaneRows> bvals_w, bgh_w;
    gf::detail_bs::PerWord<gf::detail_bs::Planes> blive_w;

    auto run_phase_scalar = [&](std::uint64_t q0, std::size_t batch,
                                std::span<V> acc) {
      V& total = acc[0];
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t working_set =
          adj_bytes + static_cast<std::uint64_t>(subs.size()) * nl *
                          batch * sizeof(V);

      for (std::size_t s = 0; s < subs.size(); ++s) {
        const auto& sub = subs[s];
        auto& out = vals[s];
        out.assign(static_cast<std::size_t>(nl) * batch, f.zero());
        std::uint64_t ops = 0;
        if (sub.child1 < 0) {
          for (std::uint32_t li = 0; li < nl; ++li) {
            const V coeff = leafc[s][li];
            V* row = out.data() + static_cast<std::size_t>(li) * batch;
            for (std::size_t b = 0; b < batch; ++b) {
              const auto q = static_cast<std::uint32_t>(q0 + b);
              row[b] = inner_product_odd(v[li], q) ? f.zero() : coeff;
            }
          }
          ops = static_cast<std::uint64_t>(nl) * batch;
        } else {
          const auto& own = vals[static_cast<std::size_t>(sub.child1)];
          const auto& oth = vals[static_cast<std::size_t>(sub.child2)];
          const auto& oth_ghost =
              ghost[static_cast<std::size_t>(sub.child2)];
          for (std::uint32_t li = 0; li < nl; ++li) {
            V* row = out.data() + static_cast<std::size_t>(li) * batch;
            const auto begin = view.adj_offsets[li];
            const auto end = view.adj_offsets[li + 1];
            for (auto e = begin; e < end; ++e) {
              const auto ref = view.adj[e];
              const V* src =
                  ref.is_ghost()
                      ? oth_ghost.data() +
                            static_cast<std::size_t>(ref.index()) * batch
                      : oth.data() +
                            static_cast<std::size_t>(ref.index()) * batch;
              for (std::size_t b = 0; b < batch; ++b)
                row[b] = f.add(row[b], src[b]);
            }
            ops += (end - begin) * batch;
            const V* own_row =
                own.data() + static_cast<std::size_t>(li) * batch;
            for (std::size_t b = 0; b < batch; ++b)
              row[b] = f.mul(own_row[b], row[b]);
            ops += batch;
          }
        }
        world.charge_compute(ops);
        world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
        if (needs_exchange[s]) {
          auto& gbuf = ghost[s];
          gbuf.assign(static_cast<std::size_t>(ng) * batch, f.zero());
          detail::halo_exchange_scalar(group, view, f, 1, batch, out, gbuf);
        }
      }
      detail::accumulate_level(
          f, vals[static_cast<std::size_t>(td.root_id())],
          static_cast<std::size_t>(nl) * batch, total);
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    };

    // The same phase, bit-sliced: leaves broadcast their coefficient into
    // the live lanes of each block, internal subtemplates do a lane-wise
    // multiply of the own chain against the neighbor sum. Charges and halo
    // bytes mirror the scalar kernel exactly.
    auto run_phase_bs = [&](const auto& bs, std::uint64_t q0,
                            std::size_t batch, std::span<V> acc) {
      V& total = acc[0];
      using BS = gf::BitslicedGF;
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t working_set =
          adj_bytes + static_cast<std::uint64_t>(subs.size()) * nl *
                          batch * sizeof(V);

      gf::detail_bs::dispatch_block(batch, f, [&](auto wt, auto lc) {
        using W = typename decltype(wt)::type;
        constexpr int LC = decltype(lc)::value;
        constexpr std::size_t kLanes = gf::detail_bs::kLanesOf<W>;
        const std::size_t nblocks = (batch + kLanes - 1) / kLanes;
        const std::size_t wpv = nblocks * LC;
        auto& bvals = bvals_w.get<W>();
        auto& bgh = bgh_w.get<W>();
        auto& blive = blive_w.get<W>();
        bvals.resize(subs.size());
        bgh.resize(subs.size());

        // One parity mask per (vertex, block), shared by every leaf.
        blive.assign(static_cast<std::size_t>(nl) * nblocks, 0);
        for (std::uint32_t li = 0; li < nl; ++li)
          for (std::size_t blk = 0; blk < nblocks; ++blk)
            blive[static_cast<std::size_t>(li) * nblocks + blk] =
                BS::live_mask<W>(
                    v[li], q0 + blk * kLanes,
                    static_cast<int>(std::min(kLanes, batch - blk * kLanes)));

        for (std::size_t s = 0; s < subs.size(); ++s) {
          const auto& sub = subs[s];
          auto& out = bvals[s];
          out.assign(static_cast<std::size_t>(nl) * wpv, 0);
          std::uint64_t ops = 0;
          if (sub.child1 < 0) {
            for (std::uint32_t li = 0; li < nl; ++li)
              for (std::size_t blk = 0; blk < nblocks; ++blk)
                BS::broadcast_w<LC>(
                    &out[static_cast<std::size_t>(li) * wpv + blk * LC],
                    static_cast<BS::value_type>(leafc[s][li]),
                    blive[static_cast<std::size_t>(li) * nblocks + blk]);
            ops = static_cast<std::uint64_t>(nl) * batch;
          } else {
            const auto& own = bvals[static_cast<std::size_t>(sub.child1)];
            const auto& oth = bvals[static_cast<std::size_t>(sub.child2)];
            const auto& oth_ghost = bgh[static_cast<std::size_t>(sub.child2)];
            for (std::uint32_t li = 0; li < nl; ++li) {
              const auto begin = view.adj_offsets[li];
              const auto end = view.adj_offsets[li + 1];
              for (std::size_t blk = 0; blk < nblocks; ++blk) {
                W* dst = &out[static_cast<std::size_t>(li) * wpv + blk * LC];
                const W* own_blk =
                    &own[static_cast<std::size_t>(li) * wpv + blk * LC];
                if (BS::is_zero_w<LC>(own_blk)) continue;  // product is zero
                W acc[LC] = {};
                for (auto e = begin; e < end; ++e) {
                  const auto ref = view.adj[e];
                  const W* src =
                      ref.is_ghost()
                          ? &oth_ghost[static_cast<std::size_t>(ref.index()) *
                                           wpv +
                                       blk * LC]
                          : &oth[static_cast<std::size_t>(ref.index()) * wpv +
                                 blk * LC];
                  BS::add_into_w<LC>(acc, src);
                }
                bs.template mul_w<LC>(dst, own_blk, acc);
              }
            }
            // Same logical work as the scalar kernel: one add per adjacency
            // entry per lane plus one multiply per vertex-lane.
            ops = (view.adj.size() + nl) * static_cast<std::uint64_t>(batch);
          }
          world.charge_compute(ops);
          world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
          if (needs_exchange[s]) {
            auto& gbuf = bgh[s];
            gbuf.assign(static_cast<std::size_t>(ng) * wpv, 0);
            detail::halo_exchange_planes(group, view, bs, 1, batch, out, gbuf);
          }
        }
        const auto& root = bvals[static_cast<std::size_t>(td.root_id())];
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          total = f.add(total, static_cast<V>(gf::fold_xor_rows<LC>(
                                   root.data() + blk * LC, nl, wpv)));
      });
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    };

    auto begin_round = [&](int round) {
      for (std::uint32_t li = 0; li < nl; ++li)
        v[li] = v_vector(opt.seed, round, view.vertices[li], k);
      for (std::size_t s = 0; s < subs.size(); ++s) {
        if (subs[s].child1 >= 0) continue;
        leafc[s].resize(nl);
        for (std::uint32_t li = 0; li < nl; ++li)
          leafc[s][li] = field_coeff(f, opt.seed, round, view.vertices[li],
                                     static_cast<std::uint32_t>(s));
      }
    };
    rounds(begin_round, run_phase_scalar, run_phase_bs);
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
  using V = typename F::value_type;
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
    runtime::Comm& world = pr.world;
    runtime::Comm& group = pr.group;
    const auto& view = pr.view;
    const std::uint32_t nl = view.num_local();
    const std::uint32_t ng = view.num_ghosts();

    int round = 0;
    std::vector<std::uint32_t> v(nl);
    // vals[j][(li * width + z) * batch + b] — vertex-major so that one
    // vertex's whole (weight x batch) block is a contiguous message
    // payload; ghost mirrors the layout with ghost indices.
    std::vector<std::vector<V>> vals(static_cast<std::size_t>(k) + 1);
    std::vector<std::vector<V>> ghost(static_cast<std::size_t>(k) + 1);
    std::vector<V> scratch;
    // c1[li]: base-case coefficient, hashed once per round and shared
    // by every phase.
    std::vector<V> c1(nl);

    // Bit-sliced state: per-layer plane arrays with the same
    // (vertex, weight) nesting; halos are plane-native under both
    // kernels, one row per weight.
    gf::detail_bs::PerWord<gf::detail_bs::PlaneRows> bvals_w, bghost_w;
    gf::detail_bs::PerWord<detail_fold::LayeredFold> fold_w;

    auto run_phase_scalar = [&](std::uint64_t q0, std::size_t batch,
                                std::span<V> accum) {
      for (int j = 1; j <= k; ++j) {
        vals[static_cast<std::size_t>(j)].assign(
            static_cast<std::size_t>(width) * nl * batch, f.zero());
        ghost[static_cast<std::size_t>(j)].assign(
            static_cast<std::size_t>(width) * ng * batch, f.zero());
      }
      scratch.assign(batch, f.zero());
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t working_set =
          adj_bytes + static_cast<std::uint64_t>(k) * (nl + ng) *
                          width * batch * sizeof(V);

      // Base case.
      auto& base = vals[1];
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        V* row = base.data() +
                 (static_cast<std::size_t>(li) * width +
                  weights[gid]) *
                     batch;
        for (std::size_t b = 0; b < batch; ++b) {
          const auto q = static_cast<std::uint32_t>(q0 + b);
          row[b] = inner_product_odd(v[li], q) ? f.zero() : c1[li];
        }
      }
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
      detail::halo_exchange_scalar(group, view, f, width, batch, vals[1],
                                   ghost[1]);

      for (int j = 2; j <= k; ++j) {
        auto& out = vals[static_cast<std::size_t>(j)];
        std::uint64_t ops = 0;
        for (std::uint32_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          const auto begin = view.adj_offsets[li];
          const auto end = view.adj_offsets[li + 1];
          for (auto e = begin; e < end; ++e) {
            const auto ref = view.adj[e];
            const bool is_ghost = ref.is_ghost();
            const std::uint32_t idx = ref.index();
            const graph::VertexId u_gid =
                is_ghost ? view.ghosts[idx] : view.vertices[idx];
            const V sig =
                sigma_coeff(f, opt.seed, round, gid, u_gid,
                            static_cast<std::uint32_t>(j));
            for (int j1 = 1; j1 <= j - 1; ++j1) {
              const auto& own = vals[static_cast<std::size_t>(j1)];
              const auto& oth_local =
                  vals[static_cast<std::size_t>(j - j1)];
              const auto& oth_ghost =
                  ghost[static_cast<std::size_t>(j - j1)];
              const V* oth_vertex =
                  (is_ghost ? oth_ghost.data() : oth_local.data()) +
                  static_cast<std::size_t>(idx) * width * batch;
              const V* own_vertex =
                  own.data() +
                  static_cast<std::size_t>(li) * width * batch;
              V* out_vertex =
                  out.data() +
                  static_cast<std::size_t>(li) * width * batch;
              for (std::uint32_t z = 0; z < width; ++z) {
                V* row = out_vertex + static_cast<std::size_t>(z) * batch;
                // Convolve into a scratch row, then fold it in with a
                // single row-wide scale by sig (one log lookup).
                std::fill(scratch.begin(), scratch.end(), f.zero());
                for (std::uint32_t z1 = 0; z1 <= z; ++z1) {
                  const V* a =
                      own_vertex + static_cast<std::size_t>(z1) * batch;
                  const V* bvals =
                      oth_vertex +
                      static_cast<std::size_t>(z - z1) * batch;
                  gf::mul_add_rows(f, scratch.data(), a, bvals, batch);
                }
                gf::scale_add_row(f, row, sig, scratch.data(), batch);
                ops += static_cast<std::uint64_t>(z + 1) * batch;
              }
            }
          }
        }
        world.charge_compute(ops);
        world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
        if (j < k)
          detail::halo_exchange_scalar(
              group, view, f, width, batch,
              vals[static_cast<std::size_t>(j)],
              ghost[static_cast<std::size_t>(j)]);
      }
      // Accumulate per-(j,z) sums. As in the sequential detector,
      // size-j sums only fold iterations q < 2^j (degree-j detection
      // lives in the 2^j-element subgroup; folding all 2^k iterations
      // would cancel every size < k).
      for (int j = 1; j <= k; ++j) {
        const std::uint64_t jlimit = std::uint64_t{1} << j;
        if (q0 >= jlimit) continue;
        const std::size_t bmax =
            std::min<std::uint64_t>(batch, jlimit - q0);
        const auto& layer = vals[static_cast<std::size_t>(j)];
        V* acc_row = accum.data() + static_cast<std::size_t>(j) * width;
        for (std::uint32_t li = 0; li < nl; ++li) {
          const V* vertex_block =
              layer.data() + static_cast<std::size_t>(li) * width * batch;
          for (std::uint32_t z = 0; z < width; ++z) {
            const V* row =
                vertex_block + static_cast<std::size_t>(z) * batch;
            for (std::size_t b = 0; b < bmax; ++b)
              acc_row[z] = f.add(acc_row[z], row[b]);
          }
        }
      }
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch * k);
    };

    // The same phase, bit-sliced, folded neighbour-first at fixed width
    // (core/layered_fold.hpp). Per edge, one sigma matrix apply per
    // non-zero neighbour block builds N[j1][z'] = sum_u sigma *
    // b_u[j - j1][z']; per vertex, the weight convolution out[z] ^=
    // a_v[j1][z1] * N[j1][z - z1] pays the lane-wise multiplies once
    // instead of once per edge. The scalar kernel's per-edge order
    // regroups into this exactly by distributivity. Charges and halo
    // bytes mirror the scalar kernel exactly.
    auto run_phase_bs = [&](const auto& bs, std::uint64_t q0,
                            std::size_t batch, std::span<V> accum) {
      using BS = gf::BitslicedGF;
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t working_set =
          adj_bytes + static_cast<std::uint64_t>(k) * (nl + ng) *
                          width * batch * sizeof(V);

      gf::detail_bs::dispatch_block(batch, f, [&](auto wt, auto lc) {
        using W = typename decltype(wt)::type;
        constexpr int LC = decltype(lc)::value;
        constexpr std::size_t kLanes = gf::detail_bs::kLanesOf<W>;
        const std::size_t nblocks = (batch + kLanes - 1) / kLanes;
        const std::size_t wpv = nblocks * LC;
        const std::size_t wrow = static_cast<std::size_t>(width) * wpv;
        auto& bvals = bvals_w.get<W>();
        auto& bghost = bghost_w.get<W>();
        auto& fold = fold_w.get<W>();
        bvals.resize(static_cast<std::size_t>(k) + 1);
        bghost.resize(static_cast<std::size_t>(k) + 1);
        for (int j = 1; j <= k; ++j) {
          bvals[static_cast<std::size_t>(j)].assign(
              static_cast<std::size_t>(nl) * wrow, 0);
          bghost[static_cast<std::size_t>(j)].assign(
              static_cast<std::size_t>(ng) * wrow, 0);
        }
        // Each boundary vertex ships its whole (weight x batch) block,
        // one plane-native row per weight.
        auto exchange_layer = [&](int j) {
          detail::halo_exchange_planes(
              group, view, bs, width, batch,
              bvals[static_cast<std::size_t>(j)],
              bghost[static_cast<std::size_t>(j)]);
        };

        // Base case: liveness parity masks, coefficient broadcast at
        // the vertex's own weight.
        auto& base = bvals[1];
        for (std::uint32_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          for (std::size_t blk = 0; blk < nblocks; ++blk)
            BS::broadcast_w<LC>(
                &base[static_cast<std::size_t>(li) * wrow +
                      weights[gid] * wpv + blk * LC],
                static_cast<BS::value_type>(c1[li]),
                BS::live_mask<W>(v[li], q0 + blk * kLanes,
                                 static_cast<int>(std::min(
                                     kLanes, batch - blk * kLanes))));
        }
        world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
        exchange_layer(1);

        for (int j = 2; j <= k; ++j) {
          auto& out = bvals[static_cast<std::size_t>(j)];
          fold.level(j, width, nblocks, wpv, LC);
          for (std::uint32_t li = 0; li < nl; ++li) {
            const std::size_t row = static_cast<std::size_t>(li) * wrow;
            if (!fold.template vertex<LC>([&](int j1) {
                  return bvals[static_cast<std::size_t>(j1)].data() + row;
                }))
              continue;  // every own block is zero: out stays zero
            const graph::VertexId gid = view.vertices[li];
            const auto begin = view.adj_offsets[li];
            const auto end = view.adj_offsets[li + 1];
            for (auto e = begin; e < end; ++e) {
              const auto ref = view.adj[e];
              const bool is_ghost = ref.is_ghost();
              const std::uint32_t idx = ref.index();
              const graph::VertexId u_gid =
                  is_ghost ? view.ghosts[idx] : view.vertices[idx];
              const BS::Matrix sig = bs.matrix(
                  static_cast<BS::value_type>(sigma_coeff(
                      f, opt.seed, round, gid, u_gid,
                      static_cast<std::uint32_t>(j))));
              fold.template neighbour<LC>(sig, [&](int j2) {
                const auto& layer =
                    is_ghost ? bghost[static_cast<std::size_t>(j2)]
                             : bvals[static_cast<std::size_t>(j2)];
                return layer.data() + static_cast<std::size_t>(idx) * wrow;
              });
            }
            fold.template finish<LC>(bs, out.data() + row);
          }
          // Same logical work as the scalar kernel's (edge, j1, z, z1)
          // sweep, in closed form.
          const std::uint64_t ops =
              view.adj.size() * static_cast<std::uint64_t>(j - 1) *
              (static_cast<std::uint64_t>(width) * (width + 1) / 2) *
              batch;
          world.charge_compute(ops);
          world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
          if (j < k) exchange_layer(j);
        }
        // Accumulate per-(j,z) sums with the same q < 2^j lane cutoff.
        for (int j = 1; j <= k; ++j) {
          const std::uint64_t jlimit = std::uint64_t{1} << j;
          if (q0 >= jlimit) continue;
          const std::size_t bmax =
              std::min<std::uint64_t>(batch, jlimit - q0);
          const auto& layer = bvals[static_cast<std::size_t>(j)];
          V* acc_row = accum.data() + static_cast<std::size_t>(j) * width;
          for (std::uint32_t z = 0; z < width; ++z)
            for (std::size_t blk = 0; blk * kLanes < bmax; ++blk) {
              const auto m = static_cast<W>(gf::detail_bs::low_lanes(
                  static_cast<int>(std::min(kLanes, bmax - blk * kLanes))));
              acc_row[z] = f.add(
                  acc_row[z],
                  static_cast<V>(gf::fold_xor_rows<LC>(
                      layer.data() + z * wpv + blk * LC, nl, wrow, m)));
            }
        }
      });
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch * k);
    };

    auto begin_round = [&](int r) {
      round = r;
      for (std::uint32_t li = 0; li < nl; ++li) {
        v[li] = v_vector(opt.seed, round, view.vertices[li], k);
        c1[li] = field_coeff(f, opt.seed, round, view.vertices[li], 1);
      }
    };
    rounds(begin_round, run_phase_scalar, run_phase_bs);
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
  using V = typename F::value_type;
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
  const int k = plan.k;

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
    runtime::Comm& world = pr.world;
    runtime::Comm& group = pr.group;
    const auto& view = pr.view;
    const std::uint32_t nl = view.num_local();
    const std::uint32_t ng = view.num_ghosts();

    int round = 0;
    // us[li * k + s] = u_{gid(li),s}, refreshed per round; ghost leaf
    // values arrive through the halo, never by recomputation.
    std::vector<V> us(static_cast<std::size_t>(nl) * k);
    std::vector<std::vector<V>> vals(static_cast<std::size_t>(k) + 1);
    std::vector<std::vector<V>> ghost(static_cast<std::size_t>(k) + 1);
    std::vector<V> scratch;

    // Bit-sliced state: per-layer plane arrays; halos are plane-native
    // under both kernels.
    std::vector<gf::BitslicedGF::value_type> us16;
    gf::detail_bs::PerWord<gf::detail_bs::PlaneRows> bvals_w, bghost_w;
    gf::detail_bs::PerWord<detail_fold::LayeredFold> fold_w;
    if (pr.bs != nullptr) us16.resize(static_cast<std::size_t>(nl) * k);

    auto run_phase_scalar = [&](std::uint64_t q0, std::size_t batch,
                                std::span<V> acc) {
      V& total = acc[0];
      for (int j = 1; j <= k; ++j) {
        vals[static_cast<std::size_t>(j)].assign(
            static_cast<std::size_t>(nl) * batch, f.zero());
        ghost[static_cast<std::size_t>(j)].assign(
            static_cast<std::size_t>(ng) * batch, f.zero());
      }
      scratch.assign(batch, f.zero());
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t working_set =
          adj_bytes + static_cast<std::uint64_t>(k) * (nl + ng) * batch *
                          sizeof(V);

      // Base case: the shade-subset leaf values d_i(t).
      auto& base = vals[1];
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        const std::uint32_t mask = plan.vertex_mask[gid];
        V* row = base.data() + static_cast<std::size_t>(li) * batch;
        const V* urow = us.data() + static_cast<std::size_t>(li) * k;
        for (std::size_t b = 0; b < batch; ++b)
          row[b] = detail_motif::shade_value(
              f, urow, mask, static_cast<std::uint32_t>(q0 + b));
      }
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
      detail::halo_exchange_scalar(group, view, f, 1, batch, vals[1],
                                   ghost[1]);

      for (int j = 2; j <= k; ++j) {
        auto& out = vals[static_cast<std::size_t>(j)];
        std::uint64_t ops = 0;
        for (std::uint32_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          V* row = out.data() + static_cast<std::size_t>(li) * batch;
          const auto begin = view.adj_offsets[li];
          const auto end = view.adj_offsets[li + 1];
          for (auto e = begin; e < end; ++e) {
            const auto ref = view.adj[e];
            const bool is_ghost = ref.is_ghost();
            const std::uint32_t idx = ref.index();
            const graph::VertexId u_gid =
                is_ghost ? view.ghosts[idx] : view.vertices[idx];
            const V sig = sigma_coeff(f, opt.seed, round, gid, u_gid,
                                      static_cast<std::uint32_t>(j));
            // Convolve into a scratch row, then fold it in with a single
            // row-wide scale by sig (one log lookup).
            std::fill(scratch.begin(), scratch.end(), f.zero());
            for (int j1 = 1; j1 <= j - 1; ++j1) {
              const V* a = vals[static_cast<std::size_t>(j1)].data() +
                           static_cast<std::size_t>(li) * batch;
              const V* b = (is_ghost
                                ? ghost[static_cast<std::size_t>(j - j1)]
                                : vals[static_cast<std::size_t>(j - j1)])
                               .data() +
                           static_cast<std::size_t>(idx) * batch;
              gf::mul_add_rows(f, scratch.data(), a, b, batch);
            }
            gf::scale_add_row(f, row, sig, scratch.data(), batch);
            ops += static_cast<std::uint64_t>(j) * batch;
          }
        }
        world.charge_compute(ops);
        world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
        if (j < k)
          detail::halo_exchange_scalar(group, view, f, 1, batch,
                                       vals[static_cast<std::size_t>(j)],
                                       ghost[static_cast<std::size_t>(j)]);
      }
      detail::accumulate_level(f, vals[static_cast<std::size_t>(k)],
                               static_cast<std::size_t>(nl) * batch, total);
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    };

    // The same phase, bit-sliced: leaf blocks come from the word-parallel
    // shade-plane construction. Internal layers fold neighbour-first at
    // fixed width (core/layered_fold.hpp): per edge, one sigma matrix apply
    // per non-zero neighbour block into N[j1] = sum_u sigma * b_u[j - j1];
    // per vertex, one lane-wise multiply a_v[j1] * N[j1] per j1. The
    // scalar kernel's per-edge sum sigma * sum_j1 a_v[j1] * b_u[j - j1]
    // regroups into exactly this by distributivity, so every field element
    // is unchanged. Charges and halo bytes mirror the scalar kernel exactly.
    auto run_phase_bs = [&](const auto& bs, std::uint64_t q0,
                            std::size_t batch, std::span<V> acc) {
      V& total = acc[0];
      using BS = gf::BitslicedGF;
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t working_set =
          adj_bytes + static_cast<std::uint64_t>(k) * (nl + ng) * batch *
                          sizeof(V);

      gf::detail_bs::dispatch_block(batch, f, [&](auto wt, auto lc) {
        using W = typename decltype(wt)::type;
        constexpr int LC = decltype(lc)::value;
        constexpr std::size_t kLanes = gf::detail_bs::kLanesOf<W>;
        const std::size_t nblocks = (batch + kLanes - 1) / kLanes;
        const std::size_t wpv = nblocks * LC;
        auto& bvals = bvals_w.get<W>();
        auto& bghost = bghost_w.get<W>();
        auto& fold = fold_w.get<W>();
        bvals.resize(static_cast<std::size_t>(k) + 1);
        bghost.resize(static_cast<std::size_t>(k) + 1);
        for (int j = 1; j <= k; ++j) {
          bvals[static_cast<std::size_t>(j)].assign(
              static_cast<std::size_t>(nl) * wpv, 0);
          bghost[static_cast<std::size_t>(j)].assign(
              static_cast<std::size_t>(ng) * wpv, 0);
        }
        auto exchange_layer = [&](int j) {
          detail::halo_exchange_planes(group, view, bs, 1, batch,
                                       bvals[static_cast<std::size_t>(j)],
                                       bghost[static_cast<std::size_t>(j)]);
        };

        auto& base = bvals[1];
        for (std::uint32_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          const std::uint32_t mask = plan.vertex_mask[gid];
          for (std::size_t blk = 0; blk < nblocks; ++blk)
            detail_motif::shade_block(
                bs, &base[static_cast<std::size_t>(li) * wpv + blk * LC],
                us16.data() + static_cast<std::size_t>(li) * k, mask, k,
                q0 + blk * kLanes,
                static_cast<int>(std::min(kLanes, batch - blk * kLanes)));
        }
        world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
        exchange_layer(1);

        for (int j = 2; j <= k; ++j) {
          auto& out = bvals[static_cast<std::size_t>(j)];
          fold.level(j, 1, nblocks, 0, LC);
          for (std::uint32_t li = 0; li < nl; ++li) {
            const std::size_t row = static_cast<std::size_t>(li) * wpv;
            if (!fold.template vertex<LC>([&](int j1) {
                  return bvals[static_cast<std::size_t>(j1)].data() + row;
                }))
              continue;  // every own block is zero: out stays zero
            const graph::VertexId gid = view.vertices[li];
            const auto begin = view.adj_offsets[li];
            const auto end = view.adj_offsets[li + 1];
            for (auto e = begin; e < end; ++e) {
              const auto ref = view.adj[e];
              const bool is_ghost = ref.is_ghost();
              const std::uint32_t idx = ref.index();
              const graph::VertexId u_gid =
                  is_ghost ? view.ghosts[idx] : view.vertices[idx];
              const BS::Matrix sig = bs.matrix(
                  static_cast<BS::value_type>(sigma_coeff(
                      f, opt.seed, round, gid, u_gid,
                      static_cast<std::uint32_t>(j))));
              fold.template neighbour<LC>(sig, [&](int j2) {
                const auto& layer = is_ghost
                                        ? bghost[static_cast<std::size_t>(j2)]
                                        : bvals[static_cast<std::size_t>(j2)];
                return layer.data() + static_cast<std::size_t>(idx) * wpv;
              });
            }
            fold.template finish<LC>(bs, out.data() + row);
          }
          // Same logical work as the scalar kernel's (edge, j1) row sweep,
          // in closed form.
          const std::uint64_t ops =
              view.adj.size() * static_cast<std::uint64_t>(j) * batch;
          world.charge_compute(ops);
          world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
          if (j < k) exchange_layer(j);
        }
        const auto& top = bvals[static_cast<std::size_t>(k)];
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          total = f.add(total, static_cast<V>(gf::fold_xor_rows<LC>(
                                   top.data() + blk * LC, nl, wpv)));
      });
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    };

    auto begin_round = [&](int r) {
      round = r;
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        const std::uint32_t mask = plan.vertex_mask[gid];
        for (int s = 0; s < k; ++s)
          if (((mask >> s) & 1u) != 0) {
            const V u = shade_coeff(f, opt.seed, round, gid,
                                    static_cast<std::uint32_t>(s));
            us[static_cast<std::size_t>(li) * k + s] = u;
            if (!us16.empty())
              us16[static_cast<std::size_t>(li) * k + s] =
                  static_cast<gf::BitslicedGF::value_type>(u);
          }
      }
    };
    rounds(begin_round, run_phase_scalar, run_phase_bs);
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

/// Distributed maximum-weight k-path: the path DP with a weight dimension
/// (paper Problem 3 part 2). Messages carry the whole weight axis, like
/// the scan engine. Scalar-only: kernel=bitsliced is an options error.
template <gf::GaloisField F>
MidasWeightedResult midas_weighted_kpath(
    const graph::Graph& g, const partition::Partition& part,
    const std::vector<std::uint32_t>& weights, const MidasOptions& opt,
    const F& f = F{}) {
  using V = typename F::value_type;
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
      .stops_on_found = false,
      .bitsliced = false};

  auto run = detail::run_phase_engine(views, opt, f, rec, [&](
      const detail::PhaseRank& pr, auto&& rounds) {
    runtime::Comm& world = pr.world;
    runtime::Comm& group = pr.group;
    const auto& view = pr.view;
    const std::uint32_t nl = view.num_local();
    const std::uint32_t ng = view.num_ghosts();

    std::vector<std::uint32_t> v(nl);
    // r[(j - 1) * nl + li]: level-j coefficient, hashed once per round.
    std::vector<V> r(static_cast<std::size_t>(k) * nl);
    // Layout: (li * width + z) * batch + b (vertex-major, as in scan).
    std::vector<V> cur, next, ghost, scratch;
    std::vector<std::uint8_t> live_q;

    auto run_phase = [&](std::uint64_t q0, std::size_t batch,
                         std::span<V> accum) {
      const std::size_t stride = static_cast<std::size_t>(width) * batch;
      cur.assign(stride * nl, f.zero());
      next.assign(stride * nl, f.zero());
      ghost.assign(stride * ng, f.zero());
      scratch.assign(batch, f.zero());
      live_q.assign(static_cast<std::size_t>(nl) * batch, 0);
      const std::uint64_t adj_bytes = view.adjacency_bytes();
      const std::uint64_t working_set =
          adj_bytes + (stride * nl + stride * ng) * sizeof(V);

      // Liveness is per (vertex, iteration): compute it once per
      // phase and reuse across every level and weight row.
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        const V coeff = r[li];
        V* row = cur.data() + li * stride +
                 static_cast<std::size_t>(weights[gid]) * batch;
        std::uint8_t* lq =
            live_q.data() + static_cast<std::size_t>(li) * batch;
        for (std::size_t b = 0; b < batch; ++b) {
          const auto q = static_cast<std::uint32_t>(q0 + b);
          lq[b] = inner_product_odd(v[li], q) ? 0 : 1;
          row[b] = lq[b] ? coeff : f.zero();
        }
      }
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);

      for (int j = 2; j <= k; ++j) {
        detail::halo_exchange(group, view, cur, ghost, batch * width);
        std::fill(next.begin(), next.end(), f.zero());
        std::uint64_t ops = 0;
        for (std::uint32_t li = 0; li < nl; ++li) {
          const graph::VertexId gid = view.vertices[li];
          const std::uint32_t wi = weights[gid];
          const V rj = r[static_cast<std::size_t>(j - 1) * nl + li];
          V* out_vertex = next.data() + li * stride;
          const std::uint8_t* lq =
              live_q.data() + static_cast<std::size_t>(li) * batch;
          const auto begin = view.adj_offsets[li];
          const auto end = view.adj_offsets[li + 1];
          for (std::uint32_t z = wi; z < width; ++z) {
            V* row = out_vertex + static_cast<std::size_t>(z) * batch;
            // Neighbor fold into scratch, gate by liveness, then one
            // row-wide scale by the level coefficient.
            std::fill(scratch.begin(), scratch.end(), f.zero());
            for (auto e = begin; e < end; ++e) {
              const auto ref = view.adj[e];
              const V* src =
                  (ref.is_ghost() ? ghost.data() : cur.data()) +
                  static_cast<std::size_t>(ref.index()) * stride +
                  static_cast<std::size_t>(z - wi) * batch;
              for (std::size_t b = 0; b < batch; ++b)
                scratch[b] = f.add(scratch[b], src[b]);
            }
            ops += (end - begin) * batch;
            for (std::size_t b = 0; b < batch; ++b)
              if (!lq[b]) scratch[b] = f.zero();
            gf::scale_add_row(f, row, rj, scratch.data(), batch);
            ops += batch;
          }
        }
        world.charge_compute(ops);
        world.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
        std::swap(cur, next);
      }
      for (std::uint32_t li = 0; li < nl; ++li) {
        const V* vertex_block = cur.data() + li * stride;
        for (std::uint32_t z = 0; z < width; ++z) {
          const V* row = vertex_block + static_cast<std::size_t>(z) * batch;
          for (std::size_t b = 0; b < batch; ++b)
            accum[z] = f.add(accum[z], row[b]);
        }
      }
      world.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    };

    auto begin_round = [&](int round) {
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        v[li] = v_vector(opt.seed, round, gid, k);
        for (int j = 1; j <= k; ++j)
          r[static_cast<std::size_t>(j - 1) * nl + li] = field_coeff(
              f, opt.seed, round, gid, static_cast<std::uint32_t>(j));
      }
    };
    rounds(begin_round, run_phase, detail::ScalarOnly{});
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
