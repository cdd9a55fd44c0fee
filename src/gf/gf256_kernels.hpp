// Internal: per-tier kernel tables, the vector load/store helpers and the
// one body of the vector kernels. Included only by the gf256_* kernel
// translation units and the dispatcher — the public surface is
// gf256.hpp / gf256_simd.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <utility>

#include "gf/gf256_simd.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

/// Unroll the next loop in full: the muladd_rows loops run over a
/// pass's compile-time groups of rows and sources, and only unrolled do
/// their row pointers, multipliers and accumulators stay in registers.
#define NCFN_UNROLL_ALL _Pragma("GCC unroll 32")

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
// vector load/store/xor, and the tails — bytes [i, n) of a call (or of a
// muladd_rows pass) once its W-byte loop is done, 0 to W-1 of them.
// Keyed on W rather than on the vector type, because a vector type as a
// template argument drops its attributes.
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

  /// The tail of one muladd_rows pass: G output rows by S source rows,
  /// with the pass's multipliers `m`.
  template <std::size_t G, std::size_t S, class Mul>
  static void rows_tail(std::uint8_t* const dst[],
                        const std::uint8_t* const src[], const Mul (&m)[G][S],
                        const std::uint8_t* c, std::size_t ldc, std::size_t i,
                        std::size_t n) {
    if (i + 16 <= n) {
      __m128i acc[G];
      NCFN_UNROLL_ALL
      for (std::size_t g = 0; g < G; ++g) acc[g] = load_u128(dst[g] + i);
      NCFN_UNROLL_ALL
      for (std::size_t s = 0; s < S; ++s) {
        const __m128i x = load_u128(src[s] + i);
        NCFN_UNROLL_ALL
        for (std::size_t g = 0; g < G; ++g) {
          acc[g] = _mm_xor_si128(acc[g], m[g][s].half(x));
        }
      }
      NCFN_UNROLL_ALL
      for (std::size_t g = 0; g < G; ++g) store_u128(dst[g] + i, acc[g]);
      i += 16;
    }
    if (i < n) {
      std::uint8_t* d[G];
      const std::uint8_t* x[S];
      for (std::size_t g = 0; g < G; ++g) d[g] = dst[g] + i;
      for (std::size_t s = 0; s < S; ++s) x[s] = src[s] + i;
      scalar_table()->muladd_rows(d, G, x, S, c, ldc, n - i);
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

  /// The tail of one muladd_rows pass, masked: G output rows by S
  /// source rows, with the pass's multipliers `m`.
  template <std::size_t G, std::size_t S, class Mul>
  static void rows_tail(std::uint8_t* const dst[],
                        const std::uint8_t* const src[], const Mul (&m)[G][S],
                        const std::uint8_t* /*c*/, std::size_t /*ldc*/,
                        std::size_t i, std::size_t n) {
    if (i == n) return;
    const __mmask64 k = first_bytes(n - i);
    __m512i acc[G];
    NCFN_UNROLL_ALL
    for (std::size_t g = 0; g < G; ++g) acc[g] = load_part(dst[g] + i, k);
    NCFN_UNROLL_ALL
    for (std::size_t s = 0; s < S; ++s) {
      const __m512i x = load_part(src[s] + i, k);
      NCFN_UNROLL_ALL
      for (std::size_t g = 0; g < G; ++g) acc[g] = vxor(acc[g], m[g][s](x));
    }
    NCFN_UNROLL_ALL
    for (std::size_t g = 0; g < G; ++g) store_part(dst[g] + i, k, acc[g]);
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
//   Mul::kRowGroup,          the output and source rows one muladd_rows
//   Mul::kSourceGroup        pass holds: their product of multipliers,
//                            plus the accumulators, must fit the
//                            register file;
//   Mul::kChunkStrips        the strips of a muladd_rows column chunk,
//                            or 0 to take whole rows;
//   Mul::tables()            its per-coefficient tables, resolved once
//                            per kernel call (or pass);
//   Mul(tables, c)           the multiplier for coefficient c, and
//   Mul()                    an unset one to assign later;
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

  // ---- muladd_rows: k output rows from m source rows ----
  //
  // A pass takes up to G output rows and up to S source rows: it builds
  // their G x S multipliers once, then per W-byte strip loads the G
  // accumulators, loads each source strip once for all G rows, and
  // stores the accumulators — every multiplier and accumulator stays in
  // a register. G and S are the tier's register budget. A call runs one
  // pass per (row group, source group). With more than one row group, a
  // tier with a column chunk walks the columns in chunks of that many
  // strips, so the source strips stay in L1 from one row group to the
  // next.
  static constexpr std::size_t G = Mul::kRowGroup;
  static constexpr std::size_t S = Mul::kSourceGroup;

  static void muladd_rows(std::uint8_t* const dst[], std::size_t k,
                          const std::uint8_t* const src[], std::size_t m,
                          const std::uint8_t* c, std::size_t ldc,
                          std::size_t n) {
    const std::size_t body = n - n % W;
    const std::size_t chunk =
        k > G && Mul::kChunkStrips > 0 ? Mul::kChunkStrips * W : body;
    std::size_t i = 0;
    do {
      const std::size_t end = std::min(body, i + chunk);
      for (std::size_t r = 0; r < k; r += G) {
        for (std::size_t j = 0; j < m; j += S) {
          const std::size_t g = std::min(G, k - r), s = std::min(S, m - j);
          kPasses[(g - 1) * S + (s - 1)](dst + r, src + j, c + r * ldc + j,
                                         ldc, i, end, n);
        }
      }
      i = end;
    } while (i < body);
  }

  /// One pass of GG <= G output rows by SS <= S source rows over the
  /// strips [i, end); the pass that reaches the last strip also takes the
  /// call's tail, bytes [end, n).
  template <std::size_t GG, std::size_t SS>
  static void rows_pass(std::uint8_t* const dst[],
                        const std::uint8_t* const src[], const std::uint8_t* c,
                        std::size_t ldc, std::size_t i, std::size_t end,
                        std::size_t n) {
    const auto& tabs = Mul::tables();
    // Local copies of the row pointers: a byte store may alias any
    // memory, so pointers read through dst[] and src[] would be reloaded
    // after every store.
    std::uint8_t* d[GG];
    const std::uint8_t* x[SS];
    Mul mul[GG][SS];
    NCFN_UNROLL_ALL
    for (std::size_t g = 0; g < GG; ++g) {
      d[g] = dst[g];
      NCFN_UNROLL_ALL
      for (std::size_t s = 0; s < SS; ++s) {
        mul[g][s] = Mul(tabs, c[g * ldc + s]);
      }
    }
    NCFN_UNROLL_ALL
    for (std::size_t s = 0; s < SS; ++s) x[s] = src[s];
    for (; i < end; i += W) {
      Vec acc[GG];
      NCFN_UNROLL_ALL
      for (std::size_t g = 0; g < GG; ++g) acc[g] = L::load(d[g] + i);
      NCFN_UNROLL_ALL
      for (std::size_t s = 0; s < SS; ++s) {
        const Vec v = L::load(x[s] + i);
        NCFN_UNROLL_ALL
        for (std::size_t g = 0; g < GG; ++g) {
          acc[g] = L::vxor(acc[g], mul[g][s](v));
        }
      }
      NCFN_UNROLL_ALL
      for (std::size_t g = 0; g < GG; ++g) L::store(d[g] + i, acc[g]);
    }
    if (n - end < W) L::rows_tail(d, x, mul, c, ldc, end, n);
  }

  using PassFn = void (*)(std::uint8_t* const[], const std::uint8_t* const[],
                          const std::uint8_t*, std::size_t, std::size_t,
                          std::size_t, std::size_t);

  /// rows_pass for every group shape, at index (GG-1)*S + (SS-1).
  template <std::size_t... I>
  static constexpr std::array<PassFn, sizeof...(I)> passes(
      std::index_sequence<I...>) {
    return {&rows_pass<I / S + 1, I % S + 1>...};
  }
  static constexpr std::array<PassFn, G * S> kPasses =
      passes(std::make_index_sequence<G * S>{});
};

/// The kernel table of the tier whose multiply is `Mul`.
template <class Mul>
inline constexpr KernelTable kVectorTable{
    VectorKernels<Mul>::muladd, VectorKernels<Mul>::mul,
    VectorKernels<Mul>::bxor, VectorKernels<Mul>::muladd_rows, Mul::kTier};

#endif  // __AVX2__

}  // namespace ncfn::gf::simd::detail
