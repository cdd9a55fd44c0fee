// Scalar tier: 256-byte product-table row walks. The oracle every tier
// must match, baseline for the ablation benches and the tail path of the
// AVX2 tier. Built without
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

// The oracle of muladd_rows: each output row takes its sources four at a
// time in one fused walk, then the remainder one at a time.
void muladd_rows_scalar(std::uint8_t* const dst[], std::size_t k,
                        const std::uint8_t* const src[], std::size_t m,
                        const std::uint8_t* c, std::size_t ldc,
                        std::size_t n) {
  const auto& t = gf::detail::tables();
  for (std::size_t r = 0; r < k; ++r) {
    std::uint8_t* d = dst[r];
    const std::uint8_t* cr = c + r * ldc;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const std::uint8_t* r0 = t.mul[cr[j]];
      const std::uint8_t* r1 = t.mul[cr[j + 1]];
      const std::uint8_t* r2 = t.mul[cr[j + 2]];
      const std::uint8_t* r3 = t.mul[cr[j + 3]];
      const std::uint8_t* s0 = src[j];
      const std::uint8_t* s1 = src[j + 1];
      const std::uint8_t* s2 = src[j + 2];
      const std::uint8_t* s3 = src[j + 3];
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = static_cast<std::uint8_t>(d[i] ^ r0[s0[i]] ^ r1[s1[i]] ^
                                         r2[s2[i]] ^ r3[s3[i]]);
      }
    }
    for (; j < m; ++j) muladd_scalar(d, src[j], n, cr[j]);
  }
}

constexpr KernelTable kScalarTable{muladd_scalar, mul_scalar, xor_scalar,
                                   muladd_rows_scalar, Tier::kScalar};

}  // namespace

const KernelTable* scalar_table() noexcept { return &kScalarTable; }

}  // namespace ncfn::gf::simd::detail
