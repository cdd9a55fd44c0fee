// Internal: per-tier kernel tables, the vector load/store helpers and the
// one body of the 32-byte kernels. Included only by the gf256_* kernel
// translation units and the dispatcher — the public surface is
// gf256.hpp / gf256_simd.hpp.
#pragma once

#include "gf/gf256_simd.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ncfn::gf::simd::detail {

/// Scalar table-walk kernels; always present (also the tail path of the
/// vector tiers).
[[nodiscard]] const KernelTable* scalar_table() noexcept;

/// Vector tiers: null when the build lacks the ISA or the CPU doesn't
/// report it, so the dispatcher can treat "supported" as non-null.
[[nodiscard]] const KernelTable* avx2_table() noexcept;
[[nodiscard]] const KernelTable* gfni_table() noexcept;

#if defined(__AVX2__)

// ---- Vector memory access -------------------------------------------
//
// The kernels' single sanctioned window onto raw packet memory. Every
// tier routes its loads/stores through these helpers instead of casting
// pointers inline, so the intrinsic pointer-cast idiom lives on exactly
// the annotated lines below and nowhere else (ncfn-lint rule
// `raw-bytes`). All four are unaligned — _mm_loadu / _mm256_loadu are
// defined for any alignment, so arbitrary packet-row offsets are safe
// under -fsanitize=alignment.

inline __m128i load_u128(const std::uint8_t* p) noexcept {
  // ncfn-lint: allow(raw-bytes) — unaligned vector load; _mm_loadu_si128 permits any alignment
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store_u128(std::uint8_t* p, __m128i v) noexcept {
  // ncfn-lint: allow(raw-bytes) — unaligned vector store; _mm_storeu_si128 permits any alignment
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

inline __m256i load_u256(const std::uint8_t* p) noexcept {
  // ncfn-lint: allow(raw-bytes) — unaligned vector load; _mm256_loadu_si256 permits any alignment
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store_u256(std::uint8_t* p, __m256i v) noexcept {
  // ncfn-lint: allow(raw-bytes) — unaligned vector store; _mm256_storeu_si256 permits any alignment
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// ---- The 32-byte kernels, written once ------------------------------
//
// A vector tier differs from another only in how it multiplies 32 bytes
// by a constant, so it supplies just that as `Mul`:
//
//   Mul::kTier                   the tier's enum value;
//   Mul::tables()                its per-coefficient tables, resolved
//                                once per kernel call;
//   Mul(tables, c)               the multiplier for coefficient c;
//   __m256i operator()(__m256i)  c * x, 32 bytes;
//   __m128i half(__m128i)        c * x, 16 bytes.
//
// Each tier defines its Mul in an anonymous namespace of its own
// translation unit, so every instantiation below has internal linkage
// and is compiled only with that unit's ISA flags — the linker never
// folds one tier's code into another's. Sub-vector tails take one
// 16-byte step where the loop shape allows it, then the scalar walk.
template <class Mul>
struct VectorKernels {
  static void muladd(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n, std::uint8_t c) {
    const Mul m(Mul::tables(), c);
    std::size_t i = 0;
    // Two independent 32-byte streams per iteration hide the
    // multiply->xor->store latency chain on long buffers.
    for (; i + 64 <= n; i += 64) {
      const __m256i s0 = load_u256(src + i);
      const __m256i s1 = load_u256(src + i + 32);
      const __m256i d0 = load_u256(dst + i);
      const __m256i d1 = load_u256(dst + i + 32);
      store_u256(dst + i, _mm256_xor_si256(d0, m(s0)));
      store_u256(dst + i + 32, _mm256_xor_si256(d1, m(s1)));
    }
    for (; i + 32 <= n; i += 32) {
      const __m256i s = load_u256(src + i);
      const __m256i d = load_u256(dst + i);
      store_u256(dst + i, _mm256_xor_si256(d, m(s)));
    }
    if (i + 16 <= n) {
      const __m128i s = load_u128(src + i);
      const __m128i d = load_u128(dst + i);
      store_u128(dst + i, _mm_xor_si128(d, m.half(s)));
      i += 16;
    }
    if (i < n) scalar_table()->muladd(dst + i, src + i, n - i, c);
  }

  static void mul(std::uint8_t* dst, std::size_t n, std::uint8_t c) {
    const Mul m(Mul::tables(), c);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) store_u256(dst + i, m(load_u256(dst + i)));
    if (i < n) scalar_table()->mul(dst + i, n - i, c);
  }

  static void bxor(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t n) {
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      store_u256(dst + i,
                 _mm256_xor_si256(load_u256(dst + i), load_u256(src + i)));
    }
    if (i < n) scalar_table()->bxor(dst + i, src + i, n - i);
  }

  static void muladd_x4(std::uint8_t* dst, const std::uint8_t* const src[4],
                        const std::uint8_t c[4], std::size_t n) {
    const auto& tabs = Mul::tables();
    const Mul m[4] = {{tabs, c[0]}, {tabs, c[1]}, {tabs, c[2]}, {tabs, c[3]}};
    std::size_t i = 0;
    // Two accumulators, one per row pair, split the four-xor dependency
    // chain in half; they fold together once per 32-byte block.
    for (; i + 32 <= n; i += 32) {
      __m256i acc0 = load_u256(dst + i);
      __m256i acc1 = _mm256_setzero_si256();
      for (int j = 0; j < 4; j += 2) {
        acc0 = _mm256_xor_si256(acc0, m[j](load_u256(src[j] + i)));
        acc1 = _mm256_xor_si256(acc1, m[j + 1](load_u256(src[j + 1] + i)));
      }
      store_u256(dst + i, _mm256_xor_si256(acc0, acc1));
    }
    if (i + 16 <= n) {
      __m128i acc = load_u128(dst + i);
      for (int j = 0; j < 4; ++j) {
        acc = _mm_xor_si128(acc, m[j].half(load_u128(src[j] + i)));
      }
      store_u128(dst + i, acc);
      i += 16;
    }
    if (i < n) {
      const std::uint8_t* tails[4] = {src[0] + i, src[1] + i, src[2] + i,
                                      src[3] + i};
      scalar_table()->muladd_x4(dst + i, tails, c, n - i);
    }
  }
};

/// The kernel table of the tier whose multiply is `Mul`.
template <class Mul>
inline constexpr KernelTable kVectorTable{
    VectorKernels<Mul>::muladd, VectorKernels<Mul>::mul,
    VectorKernels<Mul>::bxor, VectorKernels<Mul>::muladd_x4, Mul::kTier};

#endif  // __AVX2__

}  // namespace ncfn::gf::simd::detail
