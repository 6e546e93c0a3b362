// Neighbour-first bit-sliced fold for the layered DP of Graph Motif and
// scan statistics (docs/ALGORITHM.md section 6).
//
// Both recurrences extend a size-j1 walk at v by a size-(j - j1) walk at a
// neighbour u, summed over the splits of a cell c = (y, z) — baseline y
// and weight z — into c1 + c2:
//
//   out_v[j][c] = sum_u sigma(v,u,j) * sum_{j1 < j} sum_{c1 <= c}
//                 a_v[j1][c1] * b_u[j - j1][c - c1]
//
// (motif is the 1 x 1 case, scan 1 x W). Evaluated edge by edge this costs
// a full lane-wise multiply per (edge, j1, c1, c). By distributivity over
// GF(2^l) the sum regroups exactly as
//
//   N[j1][c'] = sum_u sigma(v,u,j) * b_u[j - j1][c']      (per edge)
//   out_v[j][c] ^= sum_{j1} sum_{c1} a_v[j1][c1] * N[j1][c - c1]  (per vertex)
//
// so each edge pays only one multiply-by-constant matrix apply per non-zero
// neighbour block, and the full multiplies happen once per vertex. Rows
// where v's own layer is zero are skipped on both sides. Every field
// element — hence every accumulator bit — equals the edge-first order's.
//
// Layout: a vertex's row in one layer holds the block for cell (y, z) and
// block blk at row + (y * ww + z) * zstride + blk * L, for every caller
// (the distributed engines and the sequential detectors the witness peel
// runs). The plane word W is the phase's (gf::detail_bs::dispatch_block).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf/bitsliced.hpp"

namespace midas::core::detail_fold {

/// Per-rank buffers and steps of the neighbour-first fold over blocks of
/// plane word W. Buffers only grow, so one instance per word type serves
/// every vertex, level and phase of a run without allocating in the hot
/// loop. Usage per (level j, vertex v): level() once per level, then
/// vertex(); if it returns true, neighbour() for every edge (v, u) and
/// finish() once.
template <typename W>
class LayeredFold {
 public:
  using BS = gf::BitslicedGF;
  using word = W;

  /// Fix the shape of level j: `bw` x `ww` cells (1 x 1 for motif) of
  /// `nblocks` blocks, `zstride` words from one cell to the next, at L
  /// words a block.
  void level(int j, std::uint32_t bw, std::uint32_t ww, std::size_t nblocks,
             std::size_t zstride, int L) {
    j_ = j;
    bw_ = bw;
    ww_ = ww;
    nblocks_ = nblocks;
    zstride_ = zstride;
    const std::size_t cells =
        static_cast<std::size_t>(j - 1) * bw * ww * nblocks;
    if (n_.size() < cells * static_cast<std::size_t>(L))
      n_.resize(cells * static_cast<std::size_t>(L));
    if (n_nz_.size() < cells) n_nz_.resize(cells);
    if (own_nz_.size() < cells) own_nz_.resize(cells);
    const auto layers = static_cast<std::size_t>(j - 1);
    if (own_.size() < layers) {
      own_.resize(layers);
      ylo_.resize(layers);
      zlo_.resize(layers);
    }
    if (any_.size() < layers * nblocks) any_.resize(layers * nblocks);
  }

  /// Start vertex v; own(j1) is v's row in layer j1 for j1 in [1, j).
  /// Returns false when every own block is zero: then every term vanishes,
  /// v's output stays as it is, and the caller skips its edges.
  template <int L, typename OwnRow>
  bool vertex(OwnRow&& own) {
    bool live = false;
    for (int j1 = 1; j1 < j_; ++j1) {
      const auto t = static_cast<std::size_t>(j1 - 1);
      const word* row = own(j1);
      own_[t] = row;
      std::uint32_t ylo = bw_, zlo = ww_;
      for (std::size_t blk = 0; blk < nblocks_; ++blk)
        any_[t * nblocks_ + blk] = 0;
      for (std::uint32_t y1 = 0; y1 < bw_; ++y1)
        for (std::uint32_t z1 = 0; z1 < ww_; ++z1)
          for (std::size_t blk = 0; blk < nblocks_; ++blk) {
            const bool nz = !BS::is_zero_w<L>(at(row, y1, z1, blk, L));
            own_nz_[cell(t, y1, z1, blk)] = nz ? 1 : 0;
            if (nz) {
              any_[t * nblocks_ + blk] = 1;
              ylo = std::min(ylo, y1);
              zlo = std::min(zlo, z1);
            }
          }
      ylo_[t] = ylo;
      zlo_[t] = zlo;
      live = live || ylo < bw_;
    }
    if (live)
      std::fill(n_nz_.begin(),
                n_nz_.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(j_ - 1) * bw_ *
                                    ww_ * nblocks_),
                std::uint8_t{0});
    return live;
  }

  /// Fold one neighbour u into N: nbr(j2) is u's row in layer j2, `sig` the
  /// multiply matrix of sigma(v, u, j). Only cells (y', z') that some
  /// non-zero own block can still pair with (y1 + y' < bw, z1 + z' < ww)
  /// are touched.
  template <int L, typename NbrRow>
  void neighbour(const BS::Matrix& sig, NbrRow&& nbr) {
    for (int j1 = 1; j1 < j_; ++j1) {
      const auto t = static_cast<std::size_t>(j1 - 1);
      if (ylo_[t] == bw_) continue;
      const word* row = nbr(j_ - j1);
      for (std::uint32_t y = 0; y < bw_ - ylo_[t]; ++y)
        for (std::uint32_t z = 0; z < ww_ - zlo_[t]; ++z)
          for (std::size_t blk = 0; blk < nblocks_; ++blk) {
            if (any_[t * nblocks_ + blk] == 0) continue;
            const word* src = at(row, y, z, blk, L);
            if (BS::is_zero_w<L>(src)) continue;
            const std::size_t c = cell(t, y, z, blk);
            word* dst = &n_[c * L];
            if (n_nz_[c] != 0) {
              word tmp[L];
              BS::mul_matrix_w<L>(tmp, sig, src);
              BS::add_into_w<L>(dst, tmp);
            } else {
              BS::mul_matrix_w<L>(dst, sig, src);
              n_nz_[c] = 1;
            }
          }
    }
  }

  /// out[c] ^= sum_{j1, c1} a_v[j1][c1] * N[j1][c - c1], where out is v's
  /// row in layer j (same layout as the own rows).
  template <int L>
  void finish(const BS& bs, word* out) const {
    for (int j1 = 1; j1 < j_; ++j1) {
      const auto t = static_cast<std::size_t>(j1 - 1);
      for (std::uint32_t y1 = ylo_[t]; y1 < bw_; ++y1)
        for (std::uint32_t z1 = zlo_[t]; z1 < ww_; ++z1)
          for (std::size_t blk = 0; blk < nblocks_; ++blk) {
            if (own_nz_[cell(t, y1, z1, blk)] == 0) continue;
            const word* a = at(own_[t], y1, z1, blk, L);
            for (std::uint32_t y = 0; y1 + y < bw_; ++y)
              for (std::uint32_t z = 0; z1 + z < ww_; ++z) {
                const std::size_t c = cell(t, y, z, blk);
                if (n_nz_[c] == 0) continue;
                word prod[L];
                bs.mul_w<L>(prod, a, &n_[c * L]);
                BS::add_into_w<L>(at(out, y1 + y, z1 + z, blk, L), prod);
              }
          }
    }
  }

 private:
  [[nodiscard]] std::size_t cell(std::size_t t, std::uint32_t y,
                                 std::uint32_t z,
                                 std::size_t blk) const noexcept {
    return ((t * bw_ + y) * ww_ + z) * nblocks_ + blk;
  }
  template <typename P>
  [[nodiscard]] P* at(P* row, std::uint32_t y, std::uint32_t z,
                      std::size_t blk, int L) const noexcept {
    return row + (static_cast<std::size_t>(y) * ww_ + z) * zstride_ +
           blk * static_cast<std::size_t>(L);
  }

  int j_ = 0;
  std::uint32_t bw_ = 1;
  std::uint32_t ww_ = 1;
  std::size_t nblocks_ = 1;
  std::size_t zstride_ = 0;
  std::vector<word> n_;                // N[j1][c'] blocks, by cell()
  std::vector<std::uint8_t> n_nz_;     // N block written for this vertex
  std::vector<std::uint8_t> own_nz_;   // own block a_v[j1][c1] non-zero
  std::vector<std::uint8_t> any_;      // some own cell non-zero, per (j1, blk)
  std::vector<const word*> own_;       // v's row in layer j1, at j1 - 1
  std::vector<std::uint32_t> ylo_;     // lowest non-zero own y1 (bw_: none)
  std::vector<std::uint32_t> zlo_;     // lowest non-zero own z1 (ww_: none)
};

}  // namespace midas::core::detail_fold
