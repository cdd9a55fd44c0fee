// Fixture: std::ranges::copy / copy_n between byte spans must be flagged
// (data-plane scope).
#include <algorithm>
#include <cstdint>
#include <span>

void bad_coeff_copy(std::span<const std::uint8_t> cs,
                    std::span<std::uint8_t> dst) {
  std::ranges::copy(cs, dst.begin());
}

void bad_prefix_copy(std::span<const std::uint8_t> src,
                     std::span<std::uint8_t> dst) {
  std::ranges::copy_n(src.begin(), 8, dst.begin());
}
