// GFNI tier: the GF2P8AFFINEQB multiply, 64 bytes per instruction.
// Multiplying GF(2^8) by a constant c is a linear map over GF(2), so it
// can be expressed as one 8x8 bit-matrix affine transform: the
// per-coefficient matrix packs the products c*2^k column-wise, and a
// single vgf2p8affineqb replaces the two shuffles + masking of the nibble
// path. The loops around it are the shared body in gf256_kernels.hpp at
// 64 bytes, whose last 1-63 bytes take one masked block. Compiled with
// -mavx2 -mgfni -mavx512f -mavx512bw; the runtime probe in gfni_table()
// keeps the dispatcher honest on hardware without GFNI or AVX-512, which
// runs the AVX2 tier instead.
//
// Note: GF2P8AFFINEQB's sibling GF2P8MULB multiplies in the AES field
// (poly 0x11B), not ours (0x11D) — the affine form works for any poly
// because the matrix is built from our own mul().
#include "gf/gf256.hpp"
#include "gf/gf256_kernels.hpp"

namespace ncfn::gf::simd::detail {

#if defined(__GFNI__) && defined(__AVX512BW__)

namespace {

bool cpu_has_gfni() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  // The avx512* probes also check that the OS saves the ZMM state.
  return __builtin_cpu_supports("gfni") != 0 &&
         __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
#else
  return true;  // built with GFNI and AVX-512: assume the target can run them
#endif
}

/// Per-coefficient affine matrices. GF2P8AFFINEQB computes output bit i
/// as the parity of (matrix byte [7-i] AND source byte), so byte 7-i of
/// the qword holds, at bit k, bit i of c * 2^k.
struct AffineMatrices {
  std::uint64_t m[256];
};

struct AffineMul {
  using Vec = __m512i;
  static constexpr Tier kTier = Tier::kGfni;
  // 32 zmm registers: 2 x 12 multipliers, 2 accumulators and the source
  // strip. The multiply is cheap next to a load from L2, so a batch's
  // row pairs share 512-byte column chunks of the sources in L1.
  static constexpr std::size_t kRowGroup = 2;
  static constexpr std::size_t kSourceGroup = 12;
  static constexpr std::size_t kChunkStrips = 8;

  static const AffineMatrices& tables() noexcept {
    static const AffineMatrices tabs = [] {
      AffineMatrices t{};
      for (int c = 0; c < 256; ++c) {
        std::uint64_t qw = 0;
        for (int i = 0; i < 8; ++i) {
          std::uint8_t row = 0;
          for (int k = 0; k < 8; ++k) {
            const u8 prod =
                gf::mul(static_cast<u8>(c), static_cast<u8>(1u << k));
            if ((prod >> i) & 1u) row |= static_cast<std::uint8_t>(1u << k);
          }
          qw |= static_cast<std::uint64_t>(row) << (8 * (7 - i));
        }
        t.m[c] = qw;
      }
      return t;
    }();
    return tabs;
  }

  AffineMul() = default;
  AffineMul(const AffineMatrices& am, std::uint8_t c)
      : a(_mm512_set1_epi64(static_cast<long long>(am.m[c]))) {}

  __m512i operator()(__m512i x) const {
    return _mm512_gf2p8affine_epi64_epi8(x, a, 0);
  }

  __m512i a;
};

}  // namespace

const KernelTable* gfni_table() noexcept {
  static const KernelTable* t =
      cpu_has_gfni() ? &kVectorTable<AffineMul> : nullptr;
  return t;
}

#else  // !(__GFNI__ && __AVX512BW__)

const KernelTable* gfni_table() noexcept { return nullptr; }

#endif

}  // namespace ncfn::gf::simd::detail
