// Internal: per-tier kernel tables, the vector load/store helpers and the
// one body of the vector kernels. Included only by the gf256_* kernel
// translation units and the dispatcher — the public surface is
// gf256.hpp / gf256_simd.hpp.
#pragma once

#include "gf/gf256_simd.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ncfn::gf::simd::detail {

/// Scalar table-walk kernels; always present (also the tail path of the
/// AVX2 tier).
[[nodiscard]] const KernelTable* scalar_table() noexcept;

/// Vector tiers: null when the build lacks the ISA or the CPU doesn't
/// report it, so the dispatcher can treat "supported" as non-null.
[[nodiscard]] const KernelTable* avx2_table() noexcept;
[[nodiscard]] const KernelTable* gfni_table() noexcept;

#if defined(__AVX2__)

// ---- Vector memory access -------------------------------------------
//
// The kernels' single sanctioned window onto raw packet memory. Every
// 16- and 32-byte load/store goes through these helpers instead of
// casting pointers inline, so the intrinsic pointer-cast idiom lives on
// exactly the annotated lines below and nowhere else (ncfn-lint rule
// `raw-bytes`); the 64-byte intrinsics take void pointers and need no
// cast. Every access is unaligned — the loadu/storeu forms are defined
// for any alignment, so arbitrary packet-row offsets are safe under
// -fsanitize=alignment.

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

// ---- Vector width -----------------------------------------------------
//
// Everything in the kernels that depends on the vector width W: whole-
// vector load/store/xor, and the tail — bytes [i, n) of a call once its
// W-byte loop is done, 0 to W-1 of them. Keyed on W rather than on the
// vector type, because a vector type as a template argument drops its
// attributes.
template <std::size_t W>
struct Lanes;

/// 32 bytes (AVX2): a tail takes one 16-byte step where the loop shape
/// allows it, then the scalar walk.
template <>
struct Lanes<32> {
  static __m256i load(const std::uint8_t* p) noexcept { return load_u256(p); }
  static void store(std::uint8_t* p, __m256i v) noexcept { store_u256(p, v); }
  static __m256i vxor(__m256i a, __m256i b) noexcept {
    return _mm256_xor_si256(a, b);
  }
  static __m256i zero() noexcept { return _mm256_setzero_si256(); }

  template <class Mul>
  static void muladd_tail(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t i, std::size_t n, const Mul& m,
                          std::uint8_t c) {
    if (i + 16 <= n) {
      const __m128i s = load_u128(src + i);
      const __m128i d = load_u128(dst + i);
      store_u128(dst + i, _mm_xor_si128(d, m.half(s)));
      i += 16;
    }
    if (i < n) scalar_table()->muladd(dst + i, src + i, n - i, c);
  }

  template <class Mul>
  static void mul_tail(std::uint8_t* dst, std::size_t i, std::size_t n,
                       const Mul& /*m*/, std::uint8_t c) {
    if (i < n) scalar_table()->mul(dst + i, n - i, c);
  }

  static void bxor_tail(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t i, std::size_t n) {
    if (i < n) scalar_table()->bxor(dst + i, src + i, n - i);
  }

  template <class Mul>
  static void muladd_x4_tail(std::uint8_t* dst,
                             const std::uint8_t* const src[4], std::size_t i,
                             std::size_t n, const Mul m[4],
                             const std::uint8_t c[4]) {
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

#if defined(__AVX512BW__)

/// 64 bytes (AVX-512BW): a tail is one masked block, so no call ever
/// reaches the scalar walk.
template <>
struct Lanes<64> {
  static __m512i load(const std::uint8_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static void store(std::uint8_t* p, __m512i v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  static __m512i vxor(__m512i a, __m512i b) noexcept {
    return _mm512_xor_si512(a, b);
  }
  static __m512i zero() noexcept { return _mm512_setzero_si512(); }

  template <class Mul>
  static void muladd_tail(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t i, std::size_t n, const Mul& m,
                          std::uint8_t /*c*/) {
    if (i == n) return;
    const __mmask64 k = first_bytes(n - i);
    store_part(dst + i, k,
               vxor(load_part(dst + i, k), m(load_part(src + i, k))));
  }

  template <class Mul>
  static void mul_tail(std::uint8_t* dst, std::size_t i, std::size_t n,
                       const Mul& m, std::uint8_t /*c*/) {
    if (i == n) return;
    const __mmask64 k = first_bytes(n - i);
    store_part(dst + i, k, m(load_part(dst + i, k)));
  }

  static void bxor_tail(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t i, std::size_t n) {
    if (i == n) return;
    const __mmask64 k = first_bytes(n - i);
    store_part(dst + i, k, vxor(load_part(dst + i, k), load_part(src + i, k)));
  }

  template <class Mul>
  static void muladd_x4_tail(std::uint8_t* dst,
                             const std::uint8_t* const src[4], std::size_t i,
                             std::size_t n, const Mul m[4],
                             const std::uint8_t /*c*/[4]) {
    if (i == n) return;
    const __mmask64 k = first_bytes(n - i);
    // The body's block, masked: two accumulators, one per row pair.
    __m512i acc0 = load_part(dst + i, k);
    __m512i acc1 = zero();
    for (int j = 0; j < 4; j += 2) {
      acc0 = vxor(acc0, m[j](load_part(src[j] + i, k)));
      acc1 = vxor(acc1, m[j + 1](load_part(src[j + 1] + i, k)));
    }
    store_part(dst + i, k, vxor(acc0, acc1));
  }

 private:
  /// Byte mask selecting the first r (1..63) bytes of a block.
  static __mmask64 first_bytes(std::size_t r) noexcept {
    return (std::uint64_t{1} << r) - 1;
  }

  /// Masked load: bytes outside k read as zero and are never accessed,
  /// so the block may run past the end of the span (AVX-512 suppresses
  /// faults on masked-off bytes).
  static __m512i load_part(const std::uint8_t* p, __mmask64 k) noexcept {
    return _mm512_maskz_loadu_epi8(k, p);
  }

  /// Masked store: writes only the bytes in k.
  static void store_part(std::uint8_t* p, __mmask64 k, __m512i v) noexcept {
    _mm512_mask_storeu_epi8(p, k, v);
  }
};

#endif  // __AVX512BW__

// ---- The vector kernels, written once --------------------------------
//
// A vector tier differs from another only in how it multiplies a vector
// by a constant, so it supplies just that as `Mul`:
//
//   Mul::Vec                 its vector type, W = sizeof(Vec) bytes;
//   Mul::kTier               the tier's enum value;
//   Mul::tables()            its per-coefficient tables, resolved once
//                            per kernel call;
//   Mul(tables, c)           the multiplier for coefficient c;
//   Vec operator()(Vec)      c * x, W bytes;
//   __m128i half(__m128i)    c * x, 16 bytes (32-byte tiers only: the
//                            16-byte tail step).
//
// Each tier defines its Mul in an anonymous namespace of its own
// translation unit, so every instantiation below has internal linkage
// and is compiled only with that unit's ISA flags — the linker never
// folds one tier's code into another's. Every kernel steps W bytes at a
// time and hands the rest of the call to its Lanes<W> tail.
template <class Mul>
struct VectorKernels {
  using Vec = typename Mul::Vec;
  static constexpr std::size_t W = sizeof(Vec);
  using L = Lanes<W>;

  static void muladd(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n, std::uint8_t c) {
    const Mul m(Mul::tables(), c);
    std::size_t i = 0;
    // Two independent streams per iteration hide the
    // multiply->xor->store latency chain on long buffers.
    for (; i + 2 * W <= n; i += 2 * W) {
      const Vec s0 = L::load(src + i);
      const Vec s1 = L::load(src + i + W);
      const Vec d0 = L::load(dst + i);
      const Vec d1 = L::load(dst + i + W);
      L::store(dst + i, L::vxor(d0, m(s0)));
      L::store(dst + i + W, L::vxor(d1, m(s1)));
    }
    for (; i + W <= n; i += W) {
      const Vec s = L::load(src + i);
      const Vec d = L::load(dst + i);
      L::store(dst + i, L::vxor(d, m(s)));
    }
    L::muladd_tail(dst, src, i, n, m, c);
  }

  static void mul(std::uint8_t* dst, std::size_t n, std::uint8_t c) {
    const Mul m(Mul::tables(), c);
    std::size_t i = 0;
    for (; i + W <= n; i += W) L::store(dst + i, m(L::load(dst + i)));
    L::mul_tail(dst, i, n, m, c);
  }

  static void bxor(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      L::store(dst + i, L::vxor(L::load(dst + i), L::load(src + i)));
    }
    L::bxor_tail(dst, src, i, n);
  }

  static void muladd_x4(std::uint8_t* dst, const std::uint8_t* const src[4],
                        const std::uint8_t c[4], std::size_t n) {
    const auto& tabs = Mul::tables();
    const Mul m[4] = {{tabs, c[0]}, {tabs, c[1]}, {tabs, c[2]}, {tabs, c[3]}};
    std::size_t i = 0;
    // Two accumulators, one per row pair, split the four-xor dependency
    // chain in half; they fold together once per block.
    for (; i + W <= n; i += W) {
      Vec acc0 = L::load(dst + i);
      Vec acc1 = L::zero();
      for (int j = 0; j < 4; j += 2) {
        acc0 = L::vxor(acc0, m[j](L::load(src[j] + i)));
        acc1 = L::vxor(acc1, m[j + 1](L::load(src[j + 1] + i)));
      }
      L::store(dst + i, L::vxor(acc0, acc1));
    }
    L::muladd_x4_tail(dst, src, i, n, m, c);
  }
};

/// The kernel table of the tier whose multiply is `Mul`.
template <class Mul>
inline constexpr KernelTable kVectorTable{
    VectorKernels<Mul>::muladd, VectorKernels<Mul>::mul,
    VectorKernels<Mul>::bxor, VectorKernels<Mul>::muladd_x4, Mul::kTier};

#endif  // __AVX2__

}  // namespace ncfn::gf::simd::detail
