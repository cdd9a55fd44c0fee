// Scalar tier: 256-byte product-table row walks. Baseline for the
// ablation benches and the tail path of the AVX2 tier. Built without
// ISA-specific flags so it runs anywhere.
#include "gf/gf256.hpp"
#include "gf/gf256_kernels.hpp"

namespace ncfn::gf::simd::detail {

namespace {

void muladd_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                   std::uint8_t c) {
  const std::uint8_t* row = gf::detail::tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void mul_scalar(std::uint8_t* dst, std::size_t n, std::uint8_t c) {
  const std::uint8_t* row = gf::detail::tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[dst[i]];
}

void xor_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void muladd_x4_scalar(std::uint8_t* dst, const std::uint8_t* const src[4],
                      const std::uint8_t c[4], std::size_t n) {
  const auto& t = gf::detail::tables();
  const std::uint8_t* r0 = t.mul[c[0]];
  const std::uint8_t* r1 = t.mul[c[1]];
  const std::uint8_t* r2 = t.mul[c[2]];
  const std::uint8_t* r3 = t.mul[c[3]];
  const std::uint8_t* s0 = src[0];
  const std::uint8_t* s1 = src[1];
  const std::uint8_t* s2 = src[2];
  const std::uint8_t* s3 = src[3];
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ r0[s0[i]] ^ r1[s1[i]] ^
                                       r2[s2[i]] ^ r3[s3[i]]);
  }
}

constexpr KernelTable kScalarTable{muladd_scalar, mul_scalar, xor_scalar,
                                   muladd_x4_scalar, Tier::kScalar};

}  // namespace

const KernelTable* scalar_table() noexcept { return &kScalarTable; }

}  // namespace ncfn::gf::simd::detail
