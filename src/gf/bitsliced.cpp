#include "gf/bitsliced.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace midas::gf {

BitslicedGF::BitslicedGF(int l, std::uint32_t modulus) : l_(l), poly_(modulus) {
  if (l < 2 || l > 16)
    throw std::invalid_argument("BitslicedGF: l must be in [2, 16], got " +
                                std::to_string(l));
  if (modulus == 0 || static_cast<int>(std::bit_width(modulus)) != l + 1)
    throw std::invalid_argument(
        "BitslicedGF: modulus must have degree exactly l");
  low_ = poly_ ^ (1u << l_);
  for (int t = 0; t < l_; ++t)
    tap_[static_cast<std::size_t>(t)] =
        word{0} - static_cast<word>((low_ >> t) & 1u);
}

}  // namespace midas::gf
