#include "gf/gf256.hpp"

#include <cassert>

#include "gf/gf256_simd.hpp"

namespace ncfn::gf {

namespace detail {

namespace {
Tables build_tables() noexcept {
  Tables t{};
  // Generate exp/log from the primitive element g = 0x02.
  unsigned x = 1;
  for (int i = 0; i < kFieldSize - 1; ++i) {
    t.exp[i] = static_cast<u8>(x);
    t.log[x] = static_cast<u8>(i);
    x <<= 1;
    if (x & 0x100u) x ^= kPrimitivePoly;
  }
  for (int i = kFieldSize - 1; i < 2 * kFieldSize; ++i) {
    t.exp[i] = t.exp[i - (kFieldSize - 1)];
  }
  t.log[0] = 0;  // never consulted for 0
  // Product table; row/col 0 are all zeros.
  for (int a = 1; a < kFieldSize; ++a) {
    for (int b = 1; b < kFieldSize; ++b) {
      t.mul[a][b] = t.exp[t.log[a] + t.log[b]];
    }
  }
  // Inverses: a * inv(a) == 1.
  t.inv[1] = 1;
  for (int a = 2; a < kFieldSize; ++a) {
    t.inv[a] = t.exp[(kFieldSize - 1) - t.log[a]];
  }
  return t;
}
}  // namespace

const Tables& tables() noexcept {
  static const Tables t = build_tables();
  return t;
}

}  // namespace detail

u8 inv(u8 a) noexcept {
  assert(a != 0 && "division by zero in GF(2^8)");
  return detail::tables().inv[a];
}

u8 pow(u8 a, unsigned e) noexcept {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::tables();
  const unsigned l = (static_cast<unsigned>(t.log[a]) * e) % (kFieldSize - 1);
  return t.exp[l];
}

// The bulk kernels route through the runtime-dispatched tier table
// (scalar / AVX2 / GFNI — see gf256_simd.hpp); every tier handles
// arbitrary lengths and alignments internally.

void bulk_xor(std::span<u8> dst, std::span<const u8> src) noexcept {
  assert(dst.size() == src.size());
  if (dst.empty()) return;
  simd::kernels().bxor(dst.data(), src.data(), dst.size());
}

void bulk_mul(std::span<u8> dst, u8 c) noexcept {
  if (c == 1 || dst.empty()) return;
  if (c == 0) {
    for (auto& b : dst) b = 0;
    return;
  }
  simd::kernels().mul(dst.data(), dst.size(), c);
}

void bulk_muladd(std::span<u8> dst, std::span<const u8> src, u8 c) noexcept {
  assert(dst.size() == src.size());
  if (c == 0 || dst.empty()) return;
  if (c == 1) {
    simd::kernels().bxor(dst.data(), src.data(), dst.size());
    return;
  }
  simd::kernels().muladd(dst.data(), src.data(), dst.size(), c);
}

void bulk_muladd_x4(std::span<u8> dst, const u8* const src[4],
                    const u8 c[4]) noexcept {
  if (dst.empty()) return;
  u8* const d = dst.data();
  simd::kernels().muladd_rows(&d, 1, src, 4, c, 4, dst.size());
}

void bulk_muladd_rows(std::span<u8* const> dst, std::span<const u8* const> src,
                      const u8* c, std::size_t ldc, std::size_t n) noexcept {
  assert(dst.size() <= 1 || ldc >= src.size());
  if (dst.empty() || src.empty() || n == 0) return;
  simd::kernels().muladd_rows(dst.data(), dst.size(), src.data(), src.size(),
                              c, ldc, n);
}

u8 dot(std::span<const u8> a, std::span<const u8> b) noexcept {
  assert(a.size() == b.size());
  u8 acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc ^= mul(a[i], b[i]);
  return acc;
}

}  // namespace ncfn::gf
