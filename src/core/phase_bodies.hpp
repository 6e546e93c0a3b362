// The phase bodies: one scalar and one bit-sliced evaluation of each
// recurrence (paper Section III-D), shared by every execution tier.
//
// A recurrence is leaf values, then a level-by-level neighbour fold, then
// an XOR over the 2^k iterations. Its body runs on a PhaseRank — one rank's
// seat: the part of the graph it owns (a partition::PartView), its halo
// exchanges and its cost charges. The distributed phase engine
// (detail::run_phase_engine, core/detect_par.hpp) seats N ranks with
// ghosts and a Comm each; the sequential detectors (detail::run_sequential,
// core/detect_seq.hpp) seat one rank on a one-part view with no ghosts and
// no Comm, where every exchange and charge is a no-op. Every body hashes a
// local vertex by view.vertices[li] and reads its per-vertex inputs
// (weights, colours) at that same id, so both tiers draw the same
// randomness and return bit-identical accumulators.
//
// A body is a function of (seat, rounds, inputs...). It builds its per-rank
// state and calls rounds(begin_round, phase_scalar, phase_bs):
// begin_round(round) does the per-round hashing; phase_scalar(q0, batch,
// acc) and phase_bs(bs, q0, batch, acc) evaluate the iterations
// [q0, q0 + batch) and XOR them into the accumulator span `acc`. Both
// kernels charge the same modeled work and ship byte-identical halos, so
// virtual clocks are kernel-independent (docs/ALGORITHM.md section 6).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/hashrand.hpp"
#include "core/layered_fold.hpp"
#include "core/tree_template.hpp"
#include "gf/bitsliced.hpp"
#include "gf/field.hpp"
#include "partition/partitioned_graph.hpp"
#include "runtime/comm.hpp"
#include "runtime/trace.hpp"
#include "util/require.hpp"

namespace midas::core {

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

/// Canonical shade assignment for a motif query (core/motif.hpp). Shades
/// are the k bit positions of the iteration counter: shade s carries the
/// s-th smallest color of the motif multiset (ties broken by position, so
/// each color owns a contiguous run of shades), and a vertex's mask is the
/// run of its own color — empty when the color does not occur in the motif,
/// which makes the vertex inert in every iteration. Sorting makes the plan
/// a pure function of the *multiset*, so permuted motif lists are the same
/// query.
struct ShadePlan {
  int k = 0;
  std::vector<std::uint32_t> shade_color;  // shade s -> color id (sorted)
  std::vector<std::uint32_t> vertex_mask;  // per vertex: allowed-shade bits
};

[[nodiscard]] inline ShadePlan make_shade_plan(
    const std::vector<std::uint32_t>& colors,
    const std::vector<std::uint32_t>& motif) {
  ShadePlan plan;
  plan.k = static_cast<int>(motif.size());
  MIDAS_REQUIRE(plan.k >= 1 && plan.k <= 28,
                "motif size must be in [1, 28]");
  plan.shade_color = motif;
  std::sort(plan.shade_color.begin(), plan.shade_color.end());
  std::unordered_map<std::uint32_t, std::uint32_t> mask_of;
  for (int s = 0; s < plan.k; ++s)
    mask_of[plan.shade_color[static_cast<std::size_t>(s)]] |= 1u << s;
  plan.vertex_mask.resize(colors.size(), 0);
  for (std::size_t i = 0; i < colors.size(); ++i) {
    const auto it = mask_of.find(colors[i]);
    if (it != mask_of.end()) plan.vertex_mask[i] = it->second;
  }
  return plan;
}

namespace detail_motif {

/// The scalar leaf value d_i(t): XOR of the shade coefficients selected by
/// the iteration's shade subset. `us[s]` must hold u_{i,s} for every shade
/// s in `mask` (other slots are never read).
template <typename V, typename F>
[[nodiscard]] inline V shade_value(const F& f, const V* us,
                                   std::uint32_t mask,
                                   std::uint32_t t) noexcept {
  V d = f.zero();
  std::uint32_t m = mask & t;
  while (m != 0) {
    d = f.add(d, us[__builtin_ctz(m)]);
    m &= m - 1;
  }
  return d;
}

/// Lane-periodic patterns for the six low shade bits: bit b of
/// kShadePeriod[s] is (b >> s) & 1, i.e. whether iteration t has shade s
/// set, for t & 63 == b.
inline constexpr std::uint64_t kShadePeriod[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Fill one block of W-bit planes with leaf values d_i for iterations
/// [base, base + lanes), lanes <= the lanes of W. `us` holds the vertex's
/// shade coefficients widened to the bitsliced value type. Word-parallel at
/// any base: the low shades follow t & 63, so their periodic masks rotate
/// by base & 63; the shades >= 6 follow t >> 6, constant over the lanes
/// before t crosses a multiple of 64 and over those after (a broadcast of
/// their XOR on each side). Produces the same exact field elements as
/// shade_value lane by lane.
template <gf::detail_bs::PlaneWord W>
void shade_block(const gf::BitslicedGF& bs, W* dst,
                 const gf::BitslicedGF::value_type* us, std::uint32_t mask,
                 int k, std::uint64_t base, int lanes) {
  using BS = gf::BitslicedGF;
  const int L = bs.words();
  if (mask == 0) {
    for (int p = 0; p < L; ++p) dst[p] = 0;
    return;
  }
  const auto sh = static_cast<unsigned>(base & 63u);
  const std::uint64_t live = gf::detail_bs::low_lanes(lanes);
  const std::uint64_t first = gf::detail_bs::first_chunk(sh);
  auto high_shades = [&](std::uint64_t h) {
    BS::value_type c = 0;
    for (int s = 6; s < k; ++s)
      if (((mask >> s) & 1u) != 0 && ((h >> (s - 6)) & 1u) != 0) c ^= us[s];
    return c;
  };
  const BS::value_type c_first = high_shades(base >> 6);
  const BS::value_type c_next = high_shades((base >> 6) + 1);
  // The low shades in the mask: rotated pattern and coefficient each.
  std::uint64_t pat[6] = {};
  BS::value_type coef[6] = {};
  int low = 0;
  for (int s = 0; s < 6 && s < k; ++s)
    if (((mask >> s) & 1u) != 0) {
      pat[low] = std::rotr(kShadePeriod[s], static_cast<int>(sh));
      coef[low++] = us[s];
    }
  for (int p = 0; p < L; ++p) {
    std::uint64_t plane = (((c_first >> p) & 1u) != 0 ? first : 0) ^
                          (((c_next >> p) & 1u) != 0 ? ~first : 0);
    for (int i = 0; i < low; ++i)
      if (((coef[i] >> p) & 1u) != 0) plane ^= pat[i];
    dst[p] = static_cast<W>(plane & live);
  }
}

}  // namespace detail_motif

namespace detail {

/// Exchange one DP level in the value layout: for each neighboring part,
/// pack the batch-wide values of the boundary vertices, alltoallv within
/// the phase group, and scatter incoming values into the ghost array. The
/// scalar halo's fallback for fields without bit planes (GF64, Z/2^e);
/// every other exchange goes through halo_exchange_planes.
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

/// Plane-native halo: the wire format of every recurrence over a field
/// with bit planes, under both kernels (docs/ALGORITHM.md section 6). A
/// vertex's halo value is `units` rows of `batch` lanes; for each row and
/// each 64-lane wire block of it, the message carries the block's l
/// bit-planes, each cut to its `lanes` live bits and packed back to back,
/// the block padded to a whole byte: ceil(l * lanes / 8) bytes, which is
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

/// A rank's seat in a run: the graph part it owns and what a phase body
/// needs from its rank — cost charges and each kernel's halo exchange. A
/// seat without a Comm (the sequential one-part seat) charges nothing and
/// exchanges nothing: its view has no ghosts.
struct PhaseRank {
  runtime::Comm* world = nullptr;   // charges; null on the sequential seat
  runtime::Comm* group = nullptr;   // this rank's phase group (halos)
  const partition::PartView& view;  // the graph part this rank owns
  const gf::BitslicedGF* bs = nullptr;  // set iff the bit-sliced kernel runs
  int part = 0;                     // index of `view` among the parts

  void charge_compute(std::uint64_t ops) const {
    if (world != nullptr) world->charge_compute(ops);
  }
  void charge_memory(std::uint64_t bytes, std::uint64_t working_set) const {
    if (world != nullptr) world->charge_memory(bytes, working_set);
  }
  /// The scalar kernel's halo of `units` rows of `batch` lanes.
  template <gf::GaloisField F>
  void halo_scalar(const F& f, std::size_t units, std::size_t batch,
                   const std::vector<typename F::value_type>& local,
                   std::vector<typename F::value_type>& ghost) const {
    if (group != nullptr)
      halo_exchange_scalar(*group, view, f, units, batch, local, ghost);
  }
  /// The bit-sliced kernel's halo of `units` rows of `batch` lanes.
  template <gf::detail_bs::PlaneWord W>
  void halo_planes(const gf::BitslicedGF& bs_, std::size_t units,
                   std::size_t batch, const std::vector<W>& local,
                   std::vector<W>& ghost) const {
    if (group != nullptr)
      halo_exchange_planes(*group, view, bs_, units, batch, local, ghost);
  }
};

/// Evaluate one phase with the seat's kernel: the bit-sliced body when the
/// seat has a BitslicedGF, else the scalar one.
template <gf::GaloisField F, typename Scalar, typename Sliced>
void run_phase(const F& /*f*/, const gf::BitslicedGF* bs, Scalar& phase_scalar,
               Sliced& phase_bs, std::uint64_t q0, std::size_t batch,
               std::span<typename F::value_type> acc) {
  if constexpr (gf::Bitsliceable<F>) {
    if (bs != nullptr) {
      phase_bs(*bs, q0, batch, acc);
      return;
    }
  }
  phase_scalar(q0, batch, acc);
}

// ---------------------------------------------------------------------------
// k-path (undirected and directed: the view's adjacency is the neighbours a
// walk extends from — all of them, or the in-neighbours), with a weight axis
// ---------------------------------------------------------------------------

/// The walk DP over `width` weight rows: P(i, j, z) sums walks of j
/// vertices ending at i whose vertex weights total z. Vertex i's leaf sits
/// at row w(i), and P(i, j, z) = r_{i,j} [v_i ⟂ t] sum_u P(u, j - 1,
/// z - w(i)) for z >= w(i); rows below w(i) are zero. The accumulator holds
/// one sum per row. k-path is width 1 with every weight 0 (an empty
/// `weights`); the max-weight k-path (paper Problem 3 part 2) runs it at
/// max_weight_of + 1. `weights` is indexed by the view's vertex ids. With
/// `tables`, the per-round hashes come from the precomputed RandTables.
template <gf::GaloisField F, typename Rounds>
void kpath_rank(const PhaseRank& pr, Rounds&& rounds, const F& f, int k,
                std::uint64_t seed, const RandTables* tables = nullptr,
                std::span<const std::uint32_t> weights = {},
                std::uint32_t width = 1) {
  using V = typename F::value_type;
  const auto& view = pr.view;
  const std::uint32_t nl = view.num_local();
  const std::uint32_t ng = view.num_ghosts();

  // wl[li]: vertex li's leaf row. level_ops: one level's logical work per
  // lane — one add per adjacency entry and one gate/scale per vertex, on
  // each row a vertex can reach (adj + nl at width 1).
  std::vector<std::uint32_t> wl(nl, 0);
  std::uint64_t level_ops = 0;
  for (std::uint32_t li = 0; li < nl; ++li) {
    if (!weights.empty()) wl[li] = weights[view.vertices[li]];
    MIDAS_ASSERT(wl[li] < width, "vertex weight outside the weight axis");
    level_ops += static_cast<std::uint64_t>(width - wl[li]) *
                 (view.adj_offsets[li + 1] - view.adj_offsets[li] + 1);
  }

  std::vector<std::uint32_t> v(nl);
  std::vector<V> r(static_cast<std::size_t>(k) * nl);
  // Layout: (li * width + z) * batch + b, so a vertex's rows are one halo
  // value of `width` units.
  std::vector<V> cur, next, ghost, scratch;
  std::vector<std::uint8_t> live_q;

  // Bit-sliced state (gf/bitsliced.hpp). Halos are plane-native under both
  // kernels (detail::halo_exchange_planes): boundary blocks ship as they
  // are and the scalar kernel does the transposes. With every charge
  // mirroring the scalar kernel, clocks, messages, snapshots, and the
  // failover protocol are identical across kernels.
  gf::detail_bs::PerWord<gf::detail_bs::Planes> bcur_w, bnext_w, bghost_w,
      blive_w;
  std::vector<gf::BitslicedGF::Matrix> mats;
  if (pr.bs != nullptr) mats.resize(static_cast<std::size_t>(k - 1) * nl);

  // Memory model: each level streams the local adjacency plus the active
  // state arrays; the resident working set decides hot/cold.
  auto working_set = [&](std::size_t batch) {
    return view.adjacency_bytes() +
           (static_cast<std::uint64_t>(nl) * 2 + ng) * width * batch *
               sizeof(V) +
           r.size() * sizeof(V);
  };

  // One phase of the walk DP, XOR-accumulated into acc[z].
  auto phase_scalar = [&](std::uint64_t q0, std::size_t batch,
                          std::span<V> acc) {
    const std::size_t stride = static_cast<std::size_t>(width) * batch;
    cur.assign(stride * nl, f.zero());
    next.assign(stride * nl, f.zero());
    ghost.assign(stride * ng, f.zero());
    scratch.assign(batch, f.zero());
    live_q.assign(static_cast<std::size_t>(nl) * batch, 0);
    const std::uint64_t adj_bytes = view.adjacency_bytes();
    const std::uint64_t ws = working_set(batch);

    // Base case P(i, q, 1); the liveness flags are per (vertex,
    // iteration), so compute them once and reuse across all k levels.
    for (std::uint32_t li = 0; li < nl; ++li) {
      V* row = cur.data() + li * stride + static_cast<std::size_t>(wl[li]) * batch;
      std::uint8_t* lq = live_q.data() + static_cast<std::size_t>(li) * batch;
      const V r1 = r[li];
      for (std::size_t b = 0; b < batch; ++b) {
        const auto q = static_cast<std::uint32_t>(q0 + b);
        lq[b] = inner_product_odd(v[li], q) ? 0 : 1;
        row[b] = lq[b] ? r1 : f.zero();
      }
    }
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);

    // Inductive steps with one halo exchange per level.
    for (int j = 2; j <= k; ++j) {
      pr.halo_scalar(f, width, batch, cur, ghost);
      const V* rj = r.data() + static_cast<std::size_t>(j - 1) * nl;
      for (std::uint32_t li = 0; li < nl; ++li) {
        const std::uint32_t wi = wl[li];
        V* out = next.data() + li * stride;
        std::fill(out, out + static_cast<std::size_t>(wi) * batch, f.zero());
        const std::uint8_t* lq =
            live_q.data() + static_cast<std::size_t>(li) * batch;
        const auto begin = view.adj_offsets[li];
        const auto end = view.adj_offsets[li + 1];
        for (std::uint32_t z = wi; z < width; ++z) {
          // Accumulate neighbor rows z - w(i) lane-wise into the scratch
          // row.
          std::fill(scratch.begin(), scratch.end(), f.zero());
          for (auto e = begin; e < end; ++e) {
            const auto ref = view.adj[e];
            const V* src = (ref.is_ghost() ? ghost.data() : cur.data()) +
                           static_cast<std::size_t>(ref.index()) * stride +
                           static_cast<std::size_t>(z - wi) * batch;
            for (std::size_t b = 0; b < batch; ++b)
              scratch[b] = f.add(scratch[b], src[b]);
          }
          // Gate by liveness, then scale the whole row by the level
          // coefficient — one log lookup for the row via scale_add/axpy.
          for (std::size_t b = 0; b < batch; ++b)
            if (!lq[b]) scratch[b] = f.zero();
          V* row = out + static_cast<std::size_t>(z) * batch;
          std::fill(row, row + batch, f.zero());
          gf::scale_add_row(f, row, rj[li], scratch.data(), batch);
        }
      }
      // Kernel traffic: every adjacency entry pulls a batch-wide row of
      // neighbor state (random access), plus one pass over adjacency.
      const std::uint64_t ops = level_ops * batch;
      pr.charge_compute(ops);
      pr.charge_memory(ops * sizeof(V) + adj_bytes, ws);
      std::swap(cur, next);
    }
    for (std::uint32_t li = 0; li < nl; ++li)
      for (std::uint32_t z = 0; z < width; ++z) {
        const V* row = cur.data() + li * stride +
                       static_cast<std::size_t>(z) * batch;
        for (std::size_t b = 0; b < batch; ++b) acc[z] = f.add(acc[z], row[b]);
      }
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
  };

  // The same phase, bit-sliced: blocks of W-bit planes per (vertex, row)
  // (W the narrowest of 8/16/32 lanes holding the batch, else
  // ceil(batch/64) 64-lane blocks), liveness as parity masks, constant
  // scaling as plane matrices. Generic lambda so the body only
  // instantiates for Bitsliceable fields.
  auto phase_bs = [&](const auto& bs, std::uint64_t q0, std::size_t batch,
                      std::span<V> acc) {
    using BS = gf::BitslicedGF;
    const std::uint64_t adj_bytes = view.adjacency_bytes();
    const std::uint64_t ws = working_set(batch);

    // (plane word, plane count) are compile-time from here.
    gf::detail_bs::dispatch_block(batch, f, [&](auto wt, auto lc) {
      using W = typename decltype(wt)::type;
      constexpr int LC = decltype(lc)::value;
      constexpr std::size_t kLanes = gf::detail_bs::kLanesOf<W>;
      const std::size_t nblocks = (batch + kLanes - 1) / kLanes;
      const std::size_t wpv = nblocks * LC;             // one row
      const std::size_t wrow = width * wpv;             // one vertex
      auto& bcur = bcur_w.get<W>();
      auto& bnext = bnext_w.get<W>();
      auto& bghost = bghost_w.get<W>();
      auto& blive = blive_w.get<W>();
      // Every local block is written before it is read: no zero fill.
      bcur.resize(static_cast<std::size_t>(nl) * wrow);
      bnext.resize(static_cast<std::size_t>(nl) * wrow);
      bghost.assign(static_cast<std::size_t>(ng) * wrow, 0);
      blive.resize(static_cast<std::size_t>(nl) * nblocks);

      // Base case: one parity mask per (vertex, block), level-1
      // coefficient broadcast into the live lanes of row w(i).
      for (std::uint32_t li = 0; li < nl; ++li)
        for (std::size_t blk = 0; blk < nblocks; ++blk) {
          const W m = BS::live_mask<W>(
              v[li], q0 + blk * kLanes,
              static_cast<int>(std::min(kLanes, batch - blk * kLanes)));
          blive[static_cast<std::size_t>(li) * nblocks + blk] = m;
          for (std::uint32_t z = 0; z < width; ++z) {
            W* dst = &bcur[li * wrow + z * wpv + blk * LC];
            if (z == wl[li])
              BS::broadcast_w<LC>(dst, static_cast<BS::value_type>(r[li]), m);
            else
              BS::clear_w<LC>(dst);
          }
        }
      pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);

      for (int j = 2; j <= k; ++j) {
        pr.halo_planes(bs, width, batch, bcur, bghost);
        const BS::Matrix* mj =
            mats.data() + static_cast<std::size_t>(j - 2) * nl;
        for (std::uint32_t li = 0; li < nl; ++li) {
          const std::uint32_t wi = wl[li];
          const auto begin = view.adj_offsets[li];
          const auto end = view.adj_offsets[li + 1];
          for (std::size_t blk = 0; blk < nblocks; ++blk) {
            const W m = blive[static_cast<std::size_t>(li) * nblocks + blk];
            for (std::uint32_t z = 0; z < width; ++z) {
              W* out = &bnext[li * wrow + z * wpv + blk * LC];
              if (m == 0 || z < wi) {
                BS::clear_w<LC>(out);
                continue;
              }
              const std::size_t off = (z - wi) * wpv + blk * LC;
              W acc_w[LC] = {};
              for (auto e = begin; e < end; ++e) {
                const auto ref = view.adj[e];
                const W* src = ref.is_ghost()
                                   ? &bghost[ref.index() * wrow + off]
                                   : &bcur[ref.index() * wrow + off];
                BS::add_into_w<LC>(acc_w, src);
              }
              BS::mul_matrix_masked_w<LC>(out, mj[li], acc_w, m);
            }
          }
        }
        // Charge the same logical work as the scalar kernel.
        const std::uint64_t ops = level_ops * batch;
        pr.charge_compute(ops);
        pr.charge_memory(ops * sizeof(V) + adj_bytes, ws);
        std::swap(bcur, bnext);
      }
      for (std::uint32_t z = 0; z < width; ++z)
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          acc[z] = f.add(acc[z], static_cast<V>(gf::fold_xor_rows<LC>(
                                     bcur.data() + z * wpv + blk * LC, nl,
                                     wrow)));
    });
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
  };

  auto begin_round = [&](int round) {
    if (tables != nullptr) {
      // Cached randomness: same hash values, precomputed once per
      // (seed, k) and shared across queries (see RandTables).
      const auto& vt = tables->v_of(round, pr.part);
      const auto& ct = tables->coeff_of(round, pr.part);
      std::copy(vt.begin(), vt.end(), v.begin());
      for (std::size_t idx = 0; idx < r.size(); ++idx)
        r[idx] = static_cast<V>(ct[idx]);
    } else {
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        v[li] = v_vector(seed, round, gid, k);
        for (int j = 1; j <= k; ++j)
          r[static_cast<std::size_t>(j - 1) * nl + li] = field_coeff(
              f, seed, round, gid, static_cast<std::uint32_t>(j));
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
  rounds(begin_round, phase_scalar, phase_bs);
}

// ---------------------------------------------------------------------------
// k-tree
// ---------------------------------------------------------------------------

/// The tree DP over the decomposition's subtemplates: leaves are liveness
/// times a per-position coefficient, an internal subtemplate multiplies its
/// own chain by the neighbour sum of the other; subtemplates that appear as
/// a child2 cross parts through the halo.
template <gf::GaloisField F, typename Rounds>
void ktree_rank(const PhaseRank& pr, Rounds&& rounds, const F& f,
                const TreeDecomposition& td, std::uint64_t seed) {
  using V = typename F::value_type;
  const int k = td.k();
  const auto& subs = td.subtemplates();
  const auto& view = pr.view;
  const std::uint32_t nl = view.num_local();
  const std::uint32_t ng = view.num_ghosts();

  // Which subtemplates ever appear as a child2 (their values cross parts).
  std::vector<bool> needs_exchange(subs.size(), false);
  for (const auto& sub : subs)
    if (sub.child1 >= 0)
      needs_exchange[static_cast<std::size_t>(sub.child2)] = true;

  std::vector<std::uint32_t> v(nl);
  std::vector<std::vector<V>> vals(subs.size());
  std::vector<std::vector<V>> ghost(subs.size());
  // leafc[s][li]: leaf coefficient of subtemplate s at vertex li, hashed
  // once per round and shared by every phase (internal subtemplates leave
  // their slot empty).
  std::vector<std::vector<V>> leafc(subs.size());

  // Bit-sliced state: plane arrays mirror vals/ghost subtemplate by
  // subtemplate; halos are plane-native under both kernels.
  gf::detail_bs::PerWord<gf::detail_bs::PlaneRows> bvals_w, bgh_w;
  gf::detail_bs::PerWord<gf::detail_bs::Planes> blive_w;

  auto phase_scalar = [&](std::uint64_t q0, std::size_t batch,
                          std::span<V> acc) {
    V& total = acc[0];
    const std::uint64_t adj_bytes = view.adjacency_bytes();
    const std::uint64_t working_set =
        adj_bytes +
        static_cast<std::uint64_t>(subs.size()) * nl * batch * sizeof(V);

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
        const auto& oth_ghost = ghost[static_cast<std::size_t>(sub.child2)];
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
          const V* own_row = own.data() + static_cast<std::size_t>(li) * batch;
          for (std::size_t b = 0; b < batch; ++b)
            row[b] = f.mul(own_row[b], row[b]);
          ops += batch;
        }
      }
      pr.charge_compute(ops);
      pr.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
      if (needs_exchange[s]) {
        auto& gbuf = ghost[s];
        gbuf.assign(static_cast<std::size_t>(ng) * batch, f.zero());
        pr.halo_scalar(f, 1, batch, out, gbuf);
      }
    }
    accumulate_level(f, vals[static_cast<std::size_t>(td.root_id())],
                     static_cast<std::size_t>(nl) * batch, total);
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
  };

  // The same phase, bit-sliced: leaves broadcast their coefficient into the
  // live lanes of each block, internal subtemplates do a lane-wise multiply
  // of the own chain against the neighbor sum. Charges and halo bytes
  // mirror the scalar kernel exactly.
  auto phase_bs = [&](const auto& bs, std::uint64_t q0, std::size_t batch,
                      std::span<V> acc) {
    V& total = acc[0];
    using BS = gf::BitslicedGF;
    const std::uint64_t adj_bytes = view.adjacency_bytes();
    const std::uint64_t working_set =
        adj_bytes +
        static_cast<std::uint64_t>(subs.size()) * nl * batch * sizeof(V);

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
      blive.resize(static_cast<std::size_t>(nl) * nblocks);
      for (std::uint32_t li = 0; li < nl; ++li)
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          blive[static_cast<std::size_t>(li) * nblocks + blk] =
              BS::live_mask<W>(
                  v[li], q0 + blk * kLanes,
                  static_cast<int>(std::min(kLanes, batch - blk * kLanes)));

      for (std::size_t s = 0; s < subs.size(); ++s) {
        const auto& sub = subs[s];
        auto& out = bvals[s];
        out.resize(static_cast<std::size_t>(nl) * wpv);  // all written below
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
              if (BS::is_zero_w<LC>(own_blk)) {  // product is zero
                BS::clear_w<LC>(dst);
                continue;
              }
              W acc_w[LC] = {};
              for (auto e = begin; e < end; ++e) {
                const auto ref = view.adj[e];
                const W* src =
                    ref.is_ghost()
                        ? &oth_ghost[static_cast<std::size_t>(ref.index()) *
                                         wpv +
                                     blk * LC]
                        : &oth[static_cast<std::size_t>(ref.index()) * wpv +
                               blk * LC];
                BS::add_into_w<LC>(acc_w, src);
              }
              bs.template mul_w<LC>(dst, own_blk, acc_w);
            }
          }
          // Same logical work as the scalar kernel: one add per adjacency
          // entry per lane plus one multiply per vertex-lane.
          ops = (view.adj.size() + nl) * static_cast<std::uint64_t>(batch);
        }
        pr.charge_compute(ops);
        pr.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
        if (needs_exchange[s]) {
          auto& gbuf = bgh[s];
          gbuf.assign(static_cast<std::size_t>(ng) * wpv, 0);
          pr.halo_planes(bs, 1, batch, out, gbuf);
        }
      }
      const auto& root = bvals[static_cast<std::size_t>(td.root_id())];
      for (std::size_t blk = 0; blk < nblocks; ++blk)
        total = f.add(total, static_cast<V>(gf::fold_xor_rows<LC>(
                                 root.data() + blk * LC, nl, wpv)));
    });
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
  };

  auto begin_round = [&](int round) {
    for (std::uint32_t li = 0; li < nl; ++li)
      v[li] = v_vector(seed, round, view.vertices[li], k);
    for (std::size_t s = 0; s < subs.size(); ++s) {
      if (subs[s].child1 >= 0) continue;
      leafc[s].resize(nl);
      for (std::uint32_t li = 0; li < nl; ++li)
        leafc[s][li] = field_coeff(f, seed, round, view.vertices[li],
                                   static_cast<std::uint32_t>(s));
    }
  };
  rounds(begin_round, phase_scalar, phase_bs);
}

// ---------------------------------------------------------------------------
// Scan statistics (paper Algorithm 5 and the full Problem 2)
// ---------------------------------------------------------------------------

/// The (size, baseline, weight) DP over cells (y, z), y < bw, z < ww:
/// P(i, 1, b(i), w(i)) = c_i [v_i ⟂ t] and P(i, j, y, z) = sum_u
/// sigma_{i,u,j} sum_{j1, y1, z1} P(i, j1, y1, z1) P(u, j - j1, y - y1,
/// z - z1), so a pair of cells combines only while y1 + y2 < bw and
/// z1 + z2 < ww. A vertex whose baseline alone reaches bw has no leaf. The
/// accumulator holds one sum per (j, cell): acc[(j * bw + y) * ww + z].
/// Size-j sums only fold iterations q < 2^j: degree-j detection lives in
/// the 2^j-element subgroup, and summing a degree-j term over all 2^k
/// iterations counts it 2^{k-rank} times with rank <= j < k — always even,
/// so every size below k would cancel. For q < 2^j the inner products
/// <v_i, q> see exactly the low j bits of v_i: degree-j detection with
/// j-dimensional vectors at no extra cost. Algorithm 5 is bw = 1 with
/// every baseline 0 (an empty `baselines`); the heterogeneous-baseline
/// scan (core/scan2d.hpp) runs bw = max_baseline + 1. `weights` and
/// `baselines` are indexed by the view's vertex ids.
template <gf::GaloisField F, typename Rounds>
void scan_rank(const PhaseRank& pr, Rounds&& rounds, const F& f, int k,
               std::uint64_t seed, std::span<const std::uint32_t> weights,
               std::uint32_t ww, std::span<const std::uint32_t> baselines = {},
               std::uint32_t bw = 1) {
  using V = typename F::value_type;
  const auto& view = pr.view;
  const std::uint32_t nl = view.num_local();
  const std::uint32_t ng = view.num_ghosts();
  const std::uint32_t cells = bw * ww;
  // Logical work of one (edge, j1) step: one lane-wise multiply per
  // combining pair of cells.
  const std::uint64_t pairs = static_cast<std::uint64_t>(bw) * (bw + 1) / 2 *
                              (static_cast<std::uint64_t>(ww) * (ww + 1) / 2);

  // leaf[li]: vertex li's leaf cell, or `cells` when it has none.
  std::vector<std::uint32_t> leaf(nl);
  for (std::uint32_t li = 0; li < nl; ++li) {
    const graph::VertexId gid = view.vertices[li];
    const std::uint32_t y = baselines.empty() ? 0 : baselines[gid];
    leaf[li] = y < bw ? y * ww + weights[gid] : cells;
  }

  int round = 0;
  std::vector<std::uint32_t> v(nl);
  // vals[j][(li * cells + y * ww + z) * batch + b] — vertex-major so that
  // one vertex's whole cell block is a contiguous message payload; ghost
  // mirrors the layout with ghost indices.
  std::vector<std::vector<V>> vals(static_cast<std::size_t>(k) + 1);
  std::vector<std::vector<V>> ghost(static_cast<std::size_t>(k) + 1);
  std::vector<V> scratch;
  // c1[li]: base-case coefficient, hashed once per round and shared by
  // every phase.
  std::vector<V> c1(nl);

  // Bit-sliced state: per-layer plane arrays with the same (vertex, cell)
  // nesting; halos are plane-native under both kernels, one row per cell.
  gf::detail_bs::PerWord<gf::detail_bs::PlaneRows> bvals_w, bghost_w;
  gf::detail_bs::PerWord<detail_fold::LayeredFold> fold_w;

  auto working_set = [&](std::size_t batch) {
    return view.adjacency_bytes() + static_cast<std::uint64_t>(k) *
                                        (nl + ng) * cells * batch * sizeof(V);
  };

  auto phase_scalar = [&](std::uint64_t q0, std::size_t batch,
                          std::span<V> accum) {
    const std::size_t stride = static_cast<std::size_t>(cells) * batch;
    for (int j = 1; j <= k; ++j) {
      vals[static_cast<std::size_t>(j)].assign(stride * nl, f.zero());
      ghost[static_cast<std::size_t>(j)].assign(stride * ng, f.zero());
    }
    scratch.assign(batch, f.zero());
    const std::uint64_t adj_bytes = view.adjacency_bytes();
    const std::uint64_t ws = working_set(batch);

    // Base case.
    auto& base = vals[1];
    for (std::uint32_t li = 0; li < nl; ++li) {
      if (leaf[li] == cells) continue;
      V* row = base.data() + li * stride +
               static_cast<std::size_t>(leaf[li]) * batch;
      for (std::size_t b = 0; b < batch; ++b) {
        const auto q = static_cast<std::uint32_t>(q0 + b);
        row[b] = inner_product_odd(v[li], q) ? f.zero() : c1[li];
      }
    }
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    pr.halo_scalar(f, cells, batch, vals[1], ghost[1]);

    for (int j = 2; j <= k; ++j) {
      auto& out = vals[static_cast<std::size_t>(j)];
      for (std::uint32_t li = 0; li < nl; ++li) {
        const graph::VertexId gid = view.vertices[li];
        V* out_vertex = out.data() + li * stride;
        const auto begin = view.adj_offsets[li];
        const auto end = view.adj_offsets[li + 1];
        for (auto e = begin; e < end; ++e) {
          const auto ref = view.adj[e];
          const bool is_ghost = ref.is_ghost();
          const std::uint32_t idx = ref.index();
          const graph::VertexId u_gid =
              is_ghost ? view.ghosts[idx] : view.vertices[idx];
          const V sig = sigma_coeff(f, seed, round, gid, u_gid,
                                    static_cast<std::uint32_t>(j));
          for (int j1 = 1; j1 <= j - 1; ++j1) {
            const V* own_vertex =
                vals[static_cast<std::size_t>(j1)].data() + li * stride;
            const V* oth_vertex =
                (is_ghost ? ghost[static_cast<std::size_t>(j - j1)]
                          : vals[static_cast<std::size_t>(j - j1)])
                    .data() +
                idx * stride;
            for (std::uint32_t y = 0; y < bw; ++y)
              for (std::uint32_t z = 0; z < ww; ++z) {
                // Convolve into a scratch row, then fold it in with a
                // single row-wide scale by sig (one log lookup).
                std::fill(scratch.begin(), scratch.end(), f.zero());
                for (std::uint32_t y1 = 0; y1 <= y; ++y1) {
                  const V* a = own_vertex +
                               static_cast<std::size_t>(y1) * ww * batch;
                  const V* c = oth_vertex +
                               static_cast<std::size_t>(y - y1) * ww * batch;
                  for (std::uint32_t z1 = 0; z1 <= z; ++z1)
                    gf::mul_add_rows(
                        f, scratch.data(),
                        a + static_cast<std::size_t>(z1) * batch,
                        c + static_cast<std::size_t>(z - z1) * batch, batch);
                }
                gf::scale_add_row(
                    f, out_vertex + (static_cast<std::size_t>(y) * ww + z) *
                                        batch,
                    sig, scratch.data(), batch);
              }
          }
        }
      }
      const std::uint64_t ops = view.adj.size() *
                                static_cast<std::uint64_t>(j - 1) * pairs *
                                batch;
      pr.charge_compute(ops);
      pr.charge_memory(ops * sizeof(V) + adj_bytes, ws);
      if (j < k)
        pr.halo_scalar(f, cells, batch, vals[static_cast<std::size_t>(j)],
                       ghost[static_cast<std::size_t>(j)]);
    }
    // Accumulate per-(j, cell) sums over the lanes q < 2^j.
    for (int j = 1; j <= k; ++j) {
      const std::uint64_t jlimit = std::uint64_t{1} << j;
      if (q0 >= jlimit) continue;
      const std::size_t bmax = std::min<std::uint64_t>(batch, jlimit - q0);
      const auto& layer = vals[static_cast<std::size_t>(j)];
      V* acc_row = accum.data() + static_cast<std::size_t>(j) * cells;
      for (std::uint32_t li = 0; li < nl; ++li) {
        const V* vertex_block = layer.data() + li * stride;
        for (std::uint32_t c = 0; c < cells; ++c) {
          const V* row = vertex_block + static_cast<std::size_t>(c) * batch;
          for (std::size_t b = 0; b < bmax; ++b)
            acc_row[c] = f.add(acc_row[c], row[b]);
        }
      }
    }
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch * k);
  };

  // The same phase, bit-sliced, folded neighbour-first at fixed width
  // (core/layered_fold.hpp). Per edge, one sigma matrix apply per non-zero
  // neighbour block builds N[j1][c'] = sum_u sigma * b_u[j - j1][c']; per
  // vertex, the cell convolution out[c] ^= a_v[j1][c1] * N[j1][c - c1]
  // pays the lane-wise multiplies once instead of once per edge. The
  // scalar kernel's per-edge order regroups into this exactly by
  // distributivity. Charges and halo bytes mirror the scalar kernel
  // exactly.
  auto phase_bs = [&](const auto& bs, std::uint64_t q0, std::size_t batch,
                      std::span<V> accum) {
    using BS = gf::BitslicedGF;
    const std::uint64_t adj_bytes = view.adjacency_bytes();
    const std::uint64_t ws = working_set(batch);

    gf::detail_bs::dispatch_block(batch, f, [&](auto wt, auto lc) {
      using W = typename decltype(wt)::type;
      constexpr int LC = decltype(lc)::value;
      constexpr std::size_t kLanes = gf::detail_bs::kLanesOf<W>;
      const std::size_t nblocks = (batch + kLanes - 1) / kLanes;
      const std::size_t wpv = nblocks * LC;
      const std::size_t wrow = static_cast<std::size_t>(cells) * wpv;
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

      // Base case: liveness parity masks, coefficient broadcast at the
      // vertex's own cell.
      auto& base = bvals[1];
      for (std::uint32_t li = 0; li < nl; ++li) {
        if (leaf[li] == cells) continue;
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          BS::broadcast_w<LC>(
              &base[li * wrow + leaf[li] * wpv + blk * LC],
              static_cast<BS::value_type>(c1[li]),
              BS::live_mask<W>(v[li], q0 + blk * kLanes,
                               static_cast<int>(std::min(
                                   kLanes, batch - blk * kLanes))));
      }
      pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
      // Each boundary vertex ships its whole cell block, one plane-native
      // row per cell.
      pr.halo_planes(bs, cells, batch, bvals[1], bghost[1]);

      for (int j = 2; j <= k; ++j) {
        auto& out = bvals[static_cast<std::size_t>(j)];
        fold.level(j, bw, ww, nblocks, wpv, LC);
        for (std::uint32_t li = 0; li < nl; ++li) {
          const std::size_t row = li * wrow;
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
            const BS::Matrix sig = bs.matrix(static_cast<BS::value_type>(
                sigma_coeff(f, seed, round, gid, u_gid,
                            static_cast<std::uint32_t>(j))));
            fold.template neighbour<LC>(sig, [&](int j2) {
              const auto& layer = is_ghost
                                      ? bghost[static_cast<std::size_t>(j2)]
                                      : bvals[static_cast<std::size_t>(j2)];
              return layer.data() + idx * wrow;
            });
          }
          fold.template finish<LC>(bs, out.data() + row);
        }
        // Same logical work as the scalar kernel's (edge, j1, cell pair)
        // sweep.
        const std::uint64_t ops = view.adj.size() *
                                  static_cast<std::uint64_t>(j - 1) * pairs *
                                  batch;
        pr.charge_compute(ops);
        pr.charge_memory(ops * sizeof(V) + adj_bytes, ws);
        if (j < k)
          pr.halo_planes(bs, cells, batch, bvals[static_cast<std::size_t>(j)],
                         bghost[static_cast<std::size_t>(j)]);
      }
      // Accumulate per-(j, cell) sums with the same q < 2^j lane cutoff.
      for (int j = 1; j <= k; ++j) {
        const std::uint64_t jlimit = std::uint64_t{1} << j;
        if (q0 >= jlimit) continue;
        const std::size_t bmax = std::min<std::uint64_t>(batch, jlimit - q0);
        const auto& layer = bvals[static_cast<std::size_t>(j)];
        V* acc_row = accum.data() + static_cast<std::size_t>(j) * cells;
        for (std::uint32_t c = 0; c < cells; ++c)
          for (std::size_t blk = 0; blk * kLanes < bmax; ++blk) {
            const auto m = static_cast<W>(gf::detail_bs::low_lanes(
                static_cast<int>(std::min(kLanes, bmax - blk * kLanes))));
            acc_row[c] = f.add(
                acc_row[c], static_cast<V>(gf::fold_xor_rows<LC>(
                                layer.data() + c * wpv + blk * LC, nl, wrow,
                                m)));
          }
      }
    });
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch * k);
  };

  auto begin_round = [&](int r) {
    round = r;
    for (std::uint32_t li = 0; li < nl; ++li) {
      v[li] = v_vector(seed, round, view.vertices[li], k);
      c1[li] = field_coeff(f, seed, round, view.vertices[li], 1);
    }
  };
  rounds(begin_round, phase_scalar, phase_bs);
}

// ---------------------------------------------------------------------------
// Constrained (Graph Motif) detection
// ---------------------------------------------------------------------------

/// The constrained sieve of core/motif.hpp on a scan-style layered DP with
/// no weight axis: P(i, 1) = d_i(t), P(i, j) = sum_u sigma_{i,u,j}
/// sum_{j1} P(i, j1) P(u, j - j1), and the decision value sum_i P(i, k)
/// folded over every iteration. `plan.vertex_mask` is indexed by the view's
/// vertex ids.
template <gf::GaloisField F, typename Rounds>
void motif_rank(const PhaseRank& pr, Rounds&& rounds, const F& f,
                const ShadePlan& plan, std::uint64_t seed) {
  using V = typename F::value_type;
  const int k = plan.k;
  const auto& view = pr.view;
  const std::uint32_t nl = view.num_local();
  const std::uint32_t ng = view.num_ghosts();

  int round = 0;
  // us[li * k + s] = u_{gid(li),s}, refreshed per round; ghost leaf values
  // arrive through the halo, never by recomputation.
  std::vector<V> us(static_cast<std::size_t>(nl) * k);
  std::vector<std::vector<V>> vals(static_cast<std::size_t>(k) + 1);
  std::vector<std::vector<V>> ghost(static_cast<std::size_t>(k) + 1);
  std::vector<V> scratch;

  // Bit-sliced state: per-layer plane arrays; halos are plane-native under
  // both kernels.
  std::vector<gf::BitslicedGF::value_type> us16;
  gf::detail_bs::PerWord<gf::detail_bs::PlaneRows> bvals_w, bghost_w;
  gf::detail_bs::PerWord<detail_fold::LayeredFold> fold_w;
  if (pr.bs != nullptr) us16.resize(static_cast<std::size_t>(nl) * k);

  auto phase_scalar = [&](std::uint64_t q0, std::size_t batch,
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
        adj_bytes +
        static_cast<std::uint64_t>(k) * (nl + ng) * batch * sizeof(V);

    // Base case: the shade-subset leaf values d_i(t).
    auto& base = vals[1];
    for (std::uint32_t li = 0; li < nl; ++li) {
      const std::uint32_t mask = plan.vertex_mask[view.vertices[li]];
      V* row = base.data() + static_cast<std::size_t>(li) * batch;
      const V* urow = us.data() + static_cast<std::size_t>(li) * k;
      for (std::size_t b = 0; b < batch; ++b)
        row[b] = detail_motif::shade_value(f, urow, mask,
                                           static_cast<std::uint32_t>(q0 + b));
    }
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
    pr.halo_scalar(f, 1, batch, vals[1], ghost[1]);

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
          const V sig = sigma_coeff(f, seed, round, gid, u_gid,
                                    static_cast<std::uint32_t>(j));
          // Convolve into a scratch row, then fold it in with a single
          // row-wide scale by sig (one log lookup).
          std::fill(scratch.begin(), scratch.end(), f.zero());
          for (int j1 = 1; j1 <= j - 1; ++j1) {
            const V* a = vals[static_cast<std::size_t>(j1)].data() +
                         static_cast<std::size_t>(li) * batch;
            const V* b = (is_ghost ? ghost[static_cast<std::size_t>(j - j1)]
                                   : vals[static_cast<std::size_t>(j - j1)])
                             .data() +
                         static_cast<std::size_t>(idx) * batch;
            gf::mul_add_rows(f, scratch.data(), a, b, batch);
          }
          gf::scale_add_row(f, row, sig, scratch.data(), batch);
          ops += static_cast<std::uint64_t>(j) * batch;
        }
      }
      pr.charge_compute(ops);
      pr.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
      if (j < k)
        pr.halo_scalar(f, 1, batch, vals[static_cast<std::size_t>(j)],
                       ghost[static_cast<std::size_t>(j)]);
    }
    accumulate_level(f, vals[static_cast<std::size_t>(k)],
                     static_cast<std::size_t>(nl) * batch, total);
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
  };

  // The same phase, bit-sliced: leaf blocks come from the word-parallel
  // shade-plane construction. Internal layers fold neighbour-first at fixed
  // width (core/layered_fold.hpp): per edge, one sigma matrix apply per
  // non-zero neighbour block into N[j1] = sum_u sigma * b_u[j - j1]; per
  // vertex, one lane-wise multiply a_v[j1] * N[j1] per j1. The scalar
  // kernel's per-edge sum sigma * sum_j1 a_v[j1] * b_u[j - j1] regroups
  // into exactly this by distributivity, so every field element is
  // unchanged. Charges and halo bytes mirror the scalar kernel exactly.
  auto phase_bs = [&](const auto& bs, std::uint64_t q0, std::size_t batch,
                      std::span<V> acc) {
    V& total = acc[0];
    using BS = gf::BitslicedGF;
    const std::uint64_t adj_bytes = view.adjacency_bytes();
    const std::uint64_t working_set =
        adj_bytes +
        static_cast<std::uint64_t>(k) * (nl + ng) * batch * sizeof(V);

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

      auto& base = bvals[1];
      for (std::uint32_t li = 0; li < nl; ++li) {
        const std::uint32_t mask = plan.vertex_mask[view.vertices[li]];
        for (std::size_t blk = 0; blk < nblocks; ++blk)
          detail_motif::shade_block(
              bs, &base[static_cast<std::size_t>(li) * wpv + blk * LC],
              us16.data() + static_cast<std::size_t>(li) * k, mask, k,
              q0 + blk * kLanes,
              static_cast<int>(std::min(kLanes, batch - blk * kLanes)));
      }
      pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
      pr.halo_planes(bs, 1, batch, bvals[1], bghost[1]);

      for (int j = 2; j <= k; ++j) {
        auto& out = bvals[static_cast<std::size_t>(j)];
        fold.level(j, 1, 1, nblocks, 0, LC);
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
            const BS::Matrix sig = bs.matrix(static_cast<BS::value_type>(
                sigma_coeff(f, seed, round, gid, u_gid,
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
        // Same logical work as the scalar kernel's (edge, j1) row sweep, in
        // closed form.
        const std::uint64_t ops =
            view.adj.size() * static_cast<std::uint64_t>(j) * batch;
        pr.charge_compute(ops);
        pr.charge_memory(ops * sizeof(V) + adj_bytes, working_set);
        if (j < k)
          pr.halo_planes(bs, 1, batch, bvals[static_cast<std::size_t>(j)],
                         bghost[static_cast<std::size_t>(j)]);
      }
      const auto& top = bvals[static_cast<std::size_t>(k)];
      for (std::size_t blk = 0; blk < nblocks; ++blk)
        total = f.add(total, static_cast<V>(gf::fold_xor_rows<LC>(
                                 top.data() + blk * LC, nl, wpv)));
    });
    pr.charge_compute(static_cast<std::uint64_t>(nl) * batch);
  };

  auto begin_round = [&](int r) {
    round = r;
    for (std::uint32_t li = 0; li < nl; ++li) {
      const graph::VertexId gid = view.vertices[li];
      const std::uint32_t mask = plan.vertex_mask[gid];
      for (int s = 0; s < k; ++s)
        if (((mask >> s) & 1u) != 0) {
          const V u =
              shade_coeff(f, seed, round, gid, static_cast<std::uint32_t>(s));
          us[static_cast<std::size_t>(li) * k + s] = u;
          if (!us16.empty())
            us16[static_cast<std::size_t>(li) * k + s] =
                static_cast<gf::BitslicedGF::value_type>(u);
        }
    }
  };
  rounds(begin_round, phase_scalar, phase_bs);
}

}  // namespace detail
}  // namespace midas::core
