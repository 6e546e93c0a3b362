// Bit-sliced GF(2^l) arithmetic: 64 iteration-lanes per machine word.
//
// The detection kernels evaluate the same polynomial once per iteration
// t in [0, 2^k), with per-element GF(2^l) log/antilog lookups. Since l <= 16
// and GF(2^l) addition is XOR, the algebra bit-slices perfectly: a *block*
// holds one GF(2^l) value for each of W = 64 consecutive iterations as l
// 64-bit bit-planes (word p carries bit p of all 64 lane values). Then
//
//  * lane-wise addition is l XORs (vs 64 scalar XORs),
//  * multiplication by a constant c is the l x l binary matrix of c over
//    the polynomial basis — built with l shift/XOR (xtime) steps, applied
//    with ~l^2/2 word-XORs, amortized over all 64 lanes,
//  * full lane-wise multiplication is schoolbook plane convolution plus a
//    sparse modulus reduction (~l^2 AND/XOR + l*wt(poly) XOR),
//  * the liveness indicator [<v_i, t> = 0] over a 64-iteration block is a
//    single 64-bit parity mask: with a 64-aligned block base, t = base | b,
//    so parity(v & t) = parity(v & base) ^ parity(v & b) — a fixed
//    per-vertex pattern over the low 6 bits of t plus one parity flip per
//    block from the high bits.
//
// This is the characteristic-2 sieving layout of Björklund–Kaski–Kowalik
// and the GF(2^l)-evaluation framing of Abasi–Bshouty, specialized to the
// MIDAS inner loops (see docs/ALGORITHM.md section 6).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf/field.hpp"
#include "gf/polynomials.hpp"

namespace midas::gf {

/// A field usable by the bit-sliced kernels: exposes its modulus polynomial
/// (leading bit included) so BitslicedGF can mirror its arithmetic exactly.
/// GF256 and GFSmall qualify; GF64 (l = 64 > 16) and ZMod2e do not.
template <typename F>
concept Bitsliceable = GaloisField<F> && requires(const F f) {
  { f.modulus() } -> std::convertible_to<std::uint32_t>;
  { f.bits() } -> std::convertible_to<int>;
};

namespace detail_bs {

/// kLowParity[w] bit b = parity(w & b) for b in [0, 64): the fixed
/// contribution of the low 6 bits of t to <v, t>, indexed by v & 63.
constexpr std::array<std::uint64_t, 64> build_low_parity() {
  std::array<std::uint64_t, 64> t{};
  for (unsigned w = 0; w < 64; ++w) {
    std::uint64_t m = 0;
    for (unsigned b = 0; b < 64; ++b)
      if (std::popcount(w & b) & 1u) m |= std::uint64_t{1} << b;
    t[w] = m;
  }
  return t;
}

inline constexpr std::array<std::uint64_t, 64> kLowParity = build_low_parity();

/// Lift a runtime width l in [2, 16] to a compile-time constant: calls
/// fn(std::integral_constant<int, l>{}) so the kernel body it wraps is
/// instantiated once per width with fully unrollable loops.
template <typename Fn>
decltype(auto) dispatch_width(int l, Fn&& fn) {
  switch (l) {
    case 2: return fn(std::integral_constant<int, 2>{});
    case 3: return fn(std::integral_constant<int, 3>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 5: return fn(std::integral_constant<int, 5>{});
    case 6: return fn(std::integral_constant<int, 6>{});
    case 7: return fn(std::integral_constant<int, 7>{});
    case 8: return fn(std::integral_constant<int, 8>{});
    case 9: return fn(std::integral_constant<int, 9>{});
    case 10: return fn(std::integral_constant<int, 10>{});
    case 11: return fn(std::integral_constant<int, 11>{});
    case 12: return fn(std::integral_constant<int, 12>{});
    case 13: return fn(std::integral_constant<int, 13>{});
    case 14: return fn(std::integral_constant<int, 14>{});
    case 15: return fn(std::integral_constant<int, 15>{});
    default: return fn(std::integral_constant<int, 16>{});
  }
}

/// Transpose the 8x8 bit matrix held in `x` (byte i = row i, bit j of a
/// byte = column j) in three shift/mask swap steps: 1x1 cells within 2x2
/// blocks, then 2x2 cells within 4x4 blocks, then the 4x4 quadrants.
constexpr std::uint64_t transpose8x8(std::uint64_t x) noexcept {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace detail_bs

/// Bit-sliced GF(2^l) engine over 64-lane blocks. A block is `words() == l`
/// consecutive std::uint64_t: word p is bit-plane p of the 64 lane values.
/// Stateless apart from (l, modulus); cheap to copy.
class BitslicedGF {
 public:
  static constexpr int kLanes = 64;
  using word = std::uint64_t;
  using value_type = std::uint16_t;

  /// Construct the engine for GF(2^l) with the given modulus polynomial
  /// (leading bit included, as in irreducible_poly). Throws unless
  /// 2 <= l <= 16 and the modulus has degree exactly l.
  BitslicedGF(int l, std::uint32_t modulus);

  /// Mirror the arithmetic of an existing field instance.
  template <Bitsliceable F>
  explicit BitslicedGF(const F& f)
      : BitslicedGF(f.bits(), static_cast<std::uint32_t>(f.modulus())) {}

  [[nodiscard]] int bits() const noexcept { return l_; }
  [[nodiscard]] std::uint32_t modulus() const noexcept { return poly_; }
  /// Words per 64-lane block (== bits()).
  [[nodiscard]] int words() const noexcept { return l_; }

  // --- block primitives -----------------------------------------------

  void clear(word* x) const noexcept {
    for (int p = 0; p < l_; ++p) x[p] = 0;
  }

  /// dst ^= src, lane-wise field addition of whole blocks.
  void add_into(word* dst, const word* src) const noexcept {
    for (int p = 0; p < l_; ++p) dst[p] ^= src[p];
  }

  /// dst = the scalar c in every lane of `lane_mask`, zero elsewhere.
  void broadcast(word* dst, value_type c, word lane_mask) const noexcept {
    for (int p = 0; p < l_; ++p)
      dst[p] = ((c >> p) & 1u) ? lane_mask : 0;
  }

  // --- multiplication ---------------------------------------------------

  /// The multiply-by-constant matrix of c: row[p] = c * x^p. Built with l
  /// branch-free xtime (shift/masked-XOR) steps, since kernels build one
  /// per edge from random constants; apply with mul_matrix.
  struct Matrix {
    std::array<value_type, 16> row;
  };

  [[nodiscard]] Matrix matrix(value_type c) const noexcept {
    Matrix m{};
    std::uint32_t x = c;
    for (int p = 0; p < l_; ++p) {
      m.row[static_cast<std::size_t>(p)] = static_cast<value_type>(x);
      x <<= 1;
      x ^= poly_ & (0u - ((x >> l_) & 1u));
    }
    return m;
  }

  /// dst = M * src lane-wise (dst must not alias src): output plane q is
  /// the XOR of the input planes p with bit q set in row[p].
  void mul_matrix(word* dst, const Matrix& m, const word* src) const noexcept {
    for (int q = 0; q < l_; ++q) dst[q] = 0;
    for (int p = 0; p < l_; ++p) {
      const word s = src[p];
      if (s == 0) continue;
      std::uint32_t r = m.row[static_cast<std::size_t>(p)];
      while (r != 0) {
        dst[std::countr_zero(r)] ^= s;
        r &= r - 1;
      }
    }
  }

  /// dst = a * b lane-wise (dst must not alias a or b): schoolbook plane
  /// convolution into 2l-1 planes, then modulus reduction plane by plane.
  void mul(word* dst, const word* a, const word* b) const noexcept {
    word tmp[2 * 16 - 1] = {};
    for (int p = 0; p < l_; ++p) {
      const word ap = a[p];
      if (ap == 0) continue;
      for (int q = 0; q < l_; ++q) tmp[p + q] ^= ap & b[q];
    }
    for (int s = 2 * l_ - 2; s >= l_; --s) {
      const word x = tmp[s];
      if (x == 0) continue;
      std::uint32_t r = low_;  // poly minus the leading term
      while (r != 0) {
        tmp[s - l_ + std::countr_zero(r)] ^= x;
        r &= r - 1;
      }
    }
    for (int p = 0; p < l_; ++p) dst[p] = tmp[p];
  }

  // --- folding and lane access -----------------------------------------

  /// XOR of all 64 lane values: bit p of the result is the parity of
  /// plane p. This is how a block folds into the round accumulator.
  [[nodiscard]] value_type fold_xor(const word* x) const noexcept {
    value_type out = 0;
    for (int p = 0; p < l_; ++p)
      out = static_cast<value_type>(
          out | ((std::popcount(x[p]) & 1) << p));
    return out;
  }

  /// XOR of the lanes selected by `lane_mask` only.
  [[nodiscard]] value_type fold_xor(const word* x,
                                    word lane_mask) const noexcept {
    value_type out = 0;
    for (int p = 0; p < l_; ++p)
      out = static_cast<value_type>(
          out | ((std::popcount(x[p] & lane_mask) & 1) << p));
    return out;
  }

  [[nodiscard]] value_type lane(const word* x, int b) const noexcept {
    value_type out = 0;
    for (int p = 0; p < l_; ++p)
      out = static_cast<value_type>(out | (((x[p] >> b) & 1u) << p));
    return out;
  }

  /// Scatter `lanes` scalar values into a block's bit-planes (lanes beyond
  /// the count are cleared). Eight lanes at a time: their value bytes form
  /// an 8x8 bit matrix whose transpose holds one byte of each of 8 planes.
  /// Used where values meet planes: the scalar kernel's halo and unaligned
  /// shade blocks.
  template <typename Vt>
  void pack_lanes(word* block, const Vt* vals, int lanes) const noexcept {
    clear(block);
    for (int b0 = 0; b0 < lanes; b0 += 8) {
      const int n = lanes - b0 < 8 ? lanes - b0 : 8;
      for (int p0 = 0; p0 < l_; p0 += 8) {
        word rows = 0;
        for (int i = 0; i < n; ++i)
          rows |= static_cast<word>(
                      (static_cast<std::uint32_t>(vals[b0 + i]) >> p0) &
                      0xFFu)
                  << (8 * i);
        const word cols = detail_bs::transpose8x8(rows);
        const int np = l_ - p0 < 8 ? l_ - p0 : 8;
        for (int p = 0; p < np; ++p)
          block[p0 + p] |= ((cols >> (8 * p)) & 0xFFu) << b0;
      }
    }
  }

  /// Gather `lanes` scalar values out of a block's bit-planes: the inverse
  /// 8x8 transposes of pack_lanes. Values past `lanes` are not written.
  template <typename Vt>
  void unpack_lanes(Vt* vals, const word* block, int lanes) const noexcept {
    for (int b0 = 0; b0 < lanes; b0 += 8) {
      const int n = lanes - b0 < 8 ? lanes - b0 : 8;
      std::uint32_t out[8] = {};
      for (int p0 = 0; p0 < l_; p0 += 8) {
        const int np = l_ - p0 < 8 ? l_ - p0 : 8;
        word cols = 0;
        for (int p = 0; p < np; ++p)
          cols |= ((block[p0 + p] >> b0) & 0xFFu) << (8 * p);
        const word rows = detail_bs::transpose8x8(cols);
        for (int i = 0; i < n; ++i)
          out[i] |= static_cast<std::uint32_t>((rows >> (8 * i)) & 0xFFu)
                    << p0;
      }
      for (int i = 0; i < n; ++i) vals[b0 + i] = static_cast<Vt>(out[i]);
    }
  }

  void set_lane(word* x, int b, value_type v) const noexcept {
    const word bit = word{1} << b;
    for (int p = 0; p < l_; ++p) {
      if ((v >> p) & 1u)
        x[p] |= bit;
      else
        x[p] &= ~bit;
    }
  }

  // --- compile-time-width fast paths ------------------------------------
  //
  // Same semantics as the runtime-width methods above, with the plane count
  // as a template parameter so the inner loops fully unroll and vectorize
  // (the runtime-bound loops keep the accumulator in stack memory and defeat
  // SIMD). Every kernel's level fold dispatches on words() once per level
  // via detail_bs::dispatch_width and uses only these in its block loops;
  // the runtime-width methods are the reference the tests check them
  // against.

  template <int L>
  static void clear_w(word* x) noexcept {
    for (int p = 0; p < L; ++p) x[p] = 0;
  }

  template <int L>
  static void add_into_w(word* dst, const word* src) noexcept {
    for (int p = 0; p < L; ++p) dst[p] ^= src[p];
  }

  template <int L>
  static void broadcast_w(word* dst, value_type c, word lane_mask) noexcept {
    for (int p = 0; p < L; ++p) dst[p] = ((c >> p) & 1u) ? lane_mask : 0;
  }

  template <int L>
  static void mask_block_w(word* x, word lane_mask) noexcept {
    for (int p = 0; p < L; ++p) x[p] &= lane_mask;
  }

  /// dst = M * src (dst may alias src), branch-free: every (p, q) pair
  /// contributes src[p] under an all-ones/all-zeros mask derived from bit q
  /// of row[p].
  template <int L>
  static void mul_matrix_w(word* dst, const Matrix& m,
                           const word* src) noexcept {
    word out[L] = {};
    for (int p = 0; p < L; ++p) {
      const word s = src[p];
      const std::uint32_t r = m.row[static_cast<std::size_t>(p)];
      for (int q = 0; q < L; ++q)
        out[q] ^= s & (word{0} - static_cast<word>((r >> q) & 1u));
    }
    for (int q = 0; q < L; ++q) dst[q] = out[q];
  }

  /// dst = (M * src) & lane_mask (dst may alias src).
  template <int L>
  static void mul_matrix_masked_w(word* dst, const Matrix& m, const word* src,
                                  word lane_mask) noexcept {
    mul_matrix_w<L>(dst, m, src);
    mask_block_w<L>(dst, lane_mask);
  }

  template <int L>
  [[nodiscard]] static bool is_zero_w(const word* x) noexcept {
    word any = 0;
    for (int p = 0; p < L; ++p) any |= x[p];
    return any == 0;
  }

  /// Fixed-width lane-wise multiply, branch-free throughout: the plane
  /// convolution and the modulus reduction (each high plane folds into the
  /// L planes below it under the modulus tap masks) both vectorize.
  template <int L>
  void mul_w(word* dst, const word* a, const word* b) const noexcept {
    word tmp[2 * L - 1] = {};
    for (int p = 0; p < L; ++p) {
      const word ap = a[p];
      for (int q = 0; q < L; ++q) tmp[p + q] ^= ap & b[q];
    }
    for (int s = 2 * L - 2; s >= L; --s) {
      const word x = tmp[s];
      for (int t = 0; t < L; ++t) tmp[s - L + t] ^= x & tap_[t];
    }
    for (int p = 0; p < L; ++p) dst[p] = tmp[p];
  }

  template <int L>
  [[nodiscard]] static value_type fold_xor_w(const word* x) noexcept {
    value_type out = 0;
    for (int p = 0; p < L; ++p)
      out = static_cast<value_type>(out | ((std::popcount(x[p]) & 1) << p));
    return out;
  }

  // --- liveness ---------------------------------------------------------

  /// Lane mask of live iterations for vertex vector `v` over the block
  /// [base, base + lanes): bit b is set iff <v, base + b> = 0 over GF(2).
  /// With a 64-aligned base this is the fixed low-bit parity pattern of v,
  /// complemented once per block by the high-bit parity; unaligned bases
  /// (an N2 phase boundary that is not a multiple of 64) fall back to one
  /// popcount per lane. Lanes >= `lanes` are always cleared.
  [[nodiscard]] static word live_mask(std::uint32_t v, std::uint64_t base,
                                      int lanes) noexcept {
    word live;
    if ((base & 63u) == 0) {
      const word pattern = detail_bs::kLowParity[v & 63u];
      const bool odd_base =
          (std::popcount((v >> 6) & static_cast<std::uint32_t>(base >> 6)) &
           1) != 0;
      live = odd_base ? pattern : ~pattern;
    } else {
      live = 0;
      for (int b = 0; b < lanes; ++b) {
        const auto t = static_cast<std::uint32_t>(base) +
                       static_cast<std::uint32_t>(b);
        if ((std::popcount(v & t) & 1) == 0) live |= word{1} << b;
      }
    }
    if (lanes < kLanes) live &= (word{1} << lanes) - 1;
    return live;
  }

 private:
  int l_;
  std::uint32_t poly_;  // modulus with the leading bit included
  std::uint32_t low_;   // modulus minus the leading term
  std::array<word, 16> tap_{};  // tap_[t] = all-ones iff bit t of low_ is set
};

/// The bit-sliced accumulate at fixed width: the XOR, over the lanes of
/// `lane_mask`, of `count` blocks `stride` words apart starting at word
/// `offset` of `planes` (one block per vertex).
inline BitslicedGF::value_type fold_xor_rows(
    const BitslicedGF& bs, const std::vector<BitslicedGF::word>& planes,
    std::size_t offset, std::size_t count, std::size_t stride,
    BitslicedGF::word lane_mask = ~BitslicedGF::word{0}) {
  using BS = BitslicedGF;
  return detail_bs::dispatch_width(bs.words(), [&](auto lc) {
    constexpr int LC = decltype(lc)::value;
    BS::word sum[LC] = {};
    for (std::size_t i = 0; i < count; ++i)
      BS::add_into_w<LC>(sum, planes.data() + offset + i * stride);
    BS::mask_block_w<LC>(sum, lane_mask);
    return BS::fold_xor_w<LC>(sum);
  });
}

}  // namespace midas::gf
