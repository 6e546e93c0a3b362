// Bit-sliced GF(2^l) arithmetic: up to 64 iteration-lanes per machine word.
//
// The detection kernels evaluate the same polynomial once per iteration
// t in [0, 2^k), with per-element GF(2^l) log/antilog lookups. Since l <= 16
// and GF(2^l) addition is XOR, the algebra bit-slices perfectly: a *block*
// holds one GF(2^l) value for each of W consecutive iterations as l W-bit
// bit-planes (word p carries bit p of all W lane values). The plane word
// follows the batch: uint8_t, uint16_t or uint32_t planes for a batch of at
// most 8, 16 or 32 iterations, uint64_t planes (and ceil(batch / 64)
// blocks) above that, so a narrow phase carries no empty lanes. Then
//
//  * lane-wise addition is l XORs (vs W scalar XORs),
//  * multiplication by a constant c is the l x l binary matrix of c over
//    the polynomial basis — built with l shift/XOR (xtime) steps, applied
//    with ~l^2/2 word-XORs, amortized over all W lanes,
//  * full lane-wise multiplication is schoolbook plane convolution plus a
//    sparse modulus reduction (~l^2 AND/XOR + l*wt(poly) XOR),
//  * the liveness indicator [<v_i, t> = 0] over a block is a parity mask:
//    parity(v & t) splits into a fixed per-vertex pattern over the low 6
//    bits of t (rotated by the block base) and one parity flip from the
//    high bits, which changes at most once inside a block.
//
// This is the characteristic-2 sieving layout of Björklund–Kaski–Kowalik
// and the GF(2^l)-evaluation framing of Abasi–Bshouty, specialized to the
// MIDAS inner loops (see docs/ALGORITHM.md section 6).
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
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

/// The bit-plane word types of a block, one per batch width.
template <typename W>
concept PlaneWord =
    std::same_as<W, std::uint8_t> || std::same_as<W, std::uint16_t> ||
    std::same_as<W, std::uint32_t> || std::same_as<W, std::uint64_t>;

/// Lanes of a block whose planes are W words.
template <PlaneWord W>
inline constexpr int kLanesOf = std::numeric_limits<W>::digits;

/// All-ones W when bit 0 of `bit` is set, else zero. Formed in 64 bits and
/// narrowed once, so no int promotion of a narrow W leaks into the result.
template <PlaneWord W>
constexpr W spread(std::uint32_t bit) noexcept {
  return static_cast<W>(std::uint64_t{0} - (bit & 1u));
}

/// The low `lanes` bits set, for lanes in [0, 64].
constexpr std::uint64_t low_lanes(int lanes) noexcept {
  return lanes >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << lanes) - 1;
}

/// Lanes [0, 64 - sh) of a block whose first iteration has low bits sh:
/// the lanes whose iteration t still has the block base's t >> 6.
constexpr std::uint64_t first_chunk(unsigned sh) noexcept {
  return sh == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (64 - sh)) - 1;
}

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

template <typename W>
struct WordTag {
  using type = W;
};

/// Plane word of a block for a batch of `batch` iterations: the narrowest
/// of 8/16/32 lanes that holds the batch in one block, else 64.
template <typename Fn>
decltype(auto) dispatch_word(std::uint64_t batch, Fn&& fn) {
  if (batch <= 8) return fn(WordTag<std::uint8_t>{});
  if (batch <= 16) return fn(WordTag<std::uint16_t>{});
  if (batch <= 32) return fn(WordTag<std::uint32_t>{});
  return fn(WordTag<std::uint64_t>{});
}

/// The width of field F when every instance has the same one (GF256: 8),
/// else 0.
template <typename F>
constexpr int static_bits() {
  if constexpr (requires { typename std::integral_constant<int, F{}.bits()>; })
    return F{}.bits();
  else
    return 0;
}

/// Lift (plane word, l) once per phase for a field of type F: calls
/// fn(WordTag<W>{}, std::integral_constant<int, l>{}) with W the plane word
/// for `batch` and l = f.bits(), so a kernel's phase body instantiates once
/// per (word, width) pair — only for F's own width when it is fixed.
template <typename F, typename Fn>
decltype(auto) dispatch_block(std::uint64_t batch, const F& f, Fn&& fn) {
  return dispatch_word(batch, [&](auto wt) -> decltype(auto) {
    if constexpr (static_bits<F>() != 0)
      return fn(wt, std::integral_constant<int, static_bits<F>()>{});
    else
      return dispatch_width(
          f.bits(), [&](auto lc) -> decltype(auto) { return fn(wt, lc); });
  });
}

/// One Of<W> per plane word type. Each word type keeps its own buffers,
/// grown once and reused across phases, so storage of one word type is
/// never read through a pointer to another.
template <template <typename> class Of>
class PerWord {
 public:
  template <PlaneWord W>
  [[nodiscard]] Of<W>& get() noexcept {
    return std::get<Of<W>>(parts_);
  }

 private:
  std::tuple<Of<std::uint8_t>, Of<std::uint16_t>, Of<std::uint32_t>,
             Of<std::uint64_t>>
      parts_;
};

template <typename W>
using Planes = std::vector<W>;
template <typename W>
using PlaneRows = std::vector<std::vector<W>>;

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

/// Bit-sliced GF(2^l) engine. A block is `words() == l` consecutive plane
/// words: word p is bit-plane p of the block's lane values. The runtime-width
/// methods work on 64-lane std::uint64_t blocks; the fixed-width `*_w` forms
/// take any detail_bs::PlaneWord. Stateless apart from (l, modulus); cheap
/// to copy.
class BitslicedGF {
 public:
  /// Lanes of a uint64_t block, and of a block of the halo wire format.
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
  /// Words per block (== bits()), whatever the plane word.
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
  /// Used where values meet planes: the scalar kernel's halo.
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
  // L as a template parameter so the inner loops fully unroll and vectorize
  // (the runtime-bound loops keep the accumulator in stack memory and defeat
  // SIMD), and the plane word W (deduced from the block pointer) any of
  // uint8_t/16/32/64. Every kernel lifts (W, L) once per phase via
  // detail_bs::dispatch_block and uses only these in its block loops; the
  // runtime-width methods are the uint64_t reference the tests check them
  // against. Narrow words promote to int in arithmetic, so every store
  // narrows back with an explicit cast.

  template <int L, detail_bs::PlaneWord W>
  static void clear_w(W* x) noexcept {
    for (int p = 0; p < L; ++p) x[p] = 0;
  }

  template <int L, detail_bs::PlaneWord W>
  static void add_into_w(W* dst, const W* src) noexcept {
    for (int p = 0; p < L; ++p) dst[p] = static_cast<W>(dst[p] ^ src[p]);
  }

  template <int L, detail_bs::PlaneWord W>
  static void broadcast_w(W* dst, value_type c,
                          std::type_identity_t<W> lane_mask) noexcept {
    const unsigned cu = c;
    for (int p = 0; p < L; ++p)
      dst[p] = static_cast<W>(lane_mask & detail_bs::spread<W>(cu >> p));
  }

  template <int L, detail_bs::PlaneWord W>
  static void mask_block_w(W* x, std::type_identity_t<W> lane_mask) noexcept {
    for (int p = 0; p < L; ++p) x[p] = static_cast<W>(x[p] & lane_mask);
  }

  /// dst = M * src (dst may alias src), branch-free: every (p, q) pair
  /// contributes src[p] under an all-ones/all-zeros mask derived from bit q
  /// of row[p].
  template <int L, detail_bs::PlaneWord W>
  static void mul_matrix_w(W* dst, const Matrix& m, const W* src) noexcept {
    W out[L] = {};
    for (int p = 0; p < L; ++p) {
      const W s = src[p];
      const std::uint32_t r = m.row[static_cast<std::size_t>(p)];
      for (int q = 0; q < L; ++q)
        out[q] = static_cast<W>(out[q] ^ (s & detail_bs::spread<W>(r >> q)));
    }
    for (int q = 0; q < L; ++q) dst[q] = out[q];
  }

  /// dst = (M * src) & lane_mask (dst may alias src).
  template <int L, detail_bs::PlaneWord W>
  static void mul_matrix_masked_w(W* dst, const Matrix& m, const W* src,
                                  std::type_identity_t<W> lane_mask) noexcept {
    mul_matrix_w<L>(dst, m, src);
    mask_block_w<L>(dst, lane_mask);
  }

  template <int L, detail_bs::PlaneWord W>
  [[nodiscard]] static bool is_zero_w(const W* x) noexcept {
    W any = 0;
    for (int p = 0; p < L; ++p) any = static_cast<W>(any | x[p]);
    return any == 0;
  }

  /// Fixed-width lane-wise multiply, branch-free throughout: the plane
  /// convolution and the modulus reduction (each high plane folds into the
  /// L planes below it under the modulus tap masks) both vectorize.
  template <int L, detail_bs::PlaneWord W>
  void mul_w(W* dst, const W* a, const W* b) const noexcept {
    W tmp[2 * L - 1] = {};
    for (int p = 0; p < L; ++p) {
      const W ap = a[p];
      for (int q = 0; q < L; ++q)
        tmp[p + q] = static_cast<W>(tmp[p + q] ^ (ap & b[q]));
    }
    for (int s = 2 * L - 2; s >= L; --s) {
      const W x = tmp[s];
      for (int t = 0; t < L; ++t)
        tmp[s - L + t] = static_cast<W>(
            tmp[s - L + t] ^
            (x & static_cast<W>(tap_[static_cast<std::size_t>(t)])));
    }
    for (int p = 0; p < L; ++p) dst[p] = tmp[p];
  }

  template <int L, detail_bs::PlaneWord W>
  [[nodiscard]] static value_type fold_xor_w(const W* x) noexcept {
    value_type out = 0;
    for (int p = 0; p < L; ++p)
      out = static_cast<value_type>(out | ((std::popcount(x[p]) & 1) << p));
    return out;
  }

  // --- liveness ---------------------------------------------------------

  /// Lane mask of live iterations for vertex vector `v` over the block
  /// [base, base + lanes), lanes <= the lanes of W: bit b is set iff
  /// <v, base + b> = 0 over GF(2). Any base takes the word-parallel path:
  /// the low 6 bits of t = base + b give v's fixed low-bit parity pattern
  /// rotated by base & 63, and the high bits t >> 6 complement it once for
  /// the lanes before t crosses a multiple of 64 and once for those after.
  /// Lanes >= `lanes` are always cleared.
  template <detail_bs::PlaneWord W = word>
  [[nodiscard]] static W live_mask(std::uint32_t v, std::uint64_t base,
                                   int lanes) noexcept {
    const auto sh = static_cast<unsigned>(base & 63u);
    const std::uint64_t hi = base >> 6;
    auto even = [v](std::uint64_t h) {
      return (std::popcount((v >> 6) & static_cast<std::uint32_t>(h)) & 1) ==
             0;
    };
    const std::uint64_t first = detail_bs::first_chunk(sh);
    std::uint64_t live = std::rotr(detail_bs::kLowParity[v & 63u],
                                   static_cast<int>(sh));
    if (even(hi)) live ^= first;
    if (even(hi + 1)) live ^= ~first;
    return static_cast<W>(live & detail_bs::low_lanes(lanes));
  }

 private:
  int l_;
  std::uint32_t poly_;  // modulus with the leading bit included
  std::uint32_t low_;   // modulus minus the leading term
  std::array<word, 16> tap_{};  // tap_[t] = all-ones iff bit t of low_ is set
};

/// The bit-sliced accumulate at fixed width: the XOR, over the lanes of
/// `lane_mask`, of `count` L-word blocks `stride` words apart starting at
/// `first` (one block per vertex).
template <int L, detail_bs::PlaneWord W>
[[nodiscard]] BitslicedGF::value_type fold_xor_rows(
    const W* first, std::size_t count, std::size_t stride,
    std::type_identity_t<W> lane_mask = static_cast<W>(~W{0})) noexcept {
  using BS = BitslicedGF;
  W sum[L] = {};
  for (std::size_t i = 0; i < count; ++i)
    BS::add_into_w<L>(sum, first + i * stride);
  BS::mask_block_w<L>(sum, lane_mask);
  return BS::fold_xor_w<L>(sum);
}

/// The same at the engine's runtime width, over blocks starting at word
/// `offset` of `planes`.
template <detail_bs::PlaneWord W>
[[nodiscard]] BitslicedGF::value_type fold_xor_rows(
    const BitslicedGF& bs, const std::vector<W>& planes, std::size_t offset,
    std::size_t count, std::size_t stride,
    std::type_identity_t<W> lane_mask = static_cast<W>(~W{0})) {
  return detail_bs::dispatch_width(bs.words(), [&](auto lc) {
    return fold_xor_rows<decltype(lc)::value>(planes.data() + offset, count,
                                              stride, lane_mask);
  });
}

}  // namespace midas::gf
