// Fixture: copy_bytes and the other copy_* spellings pass, and allow()
// suppresses a deliberate ranges::copy.
#include <algorithm>
#include <cstdint>
#include <span>

bool copy_bytes(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src);

void good_copy(std::span<const std::uint8_t> cs, std::span<std::uint8_t> dst) {
  copy_bytes(dst, cs);
  std::ranges::copy_backward(cs, dst.end());
}

void tolerated_copy(std::span<const std::uint16_t> src,
                    std::span<std::uint16_t> dst) {
  // ncfn-lint: allow(span-copy) — fixture; 16-bit elements, not a byte span
  std::ranges::copy(src, dst.begin());
}
