// AVX2 tier: the VPSHUFB nibble-table multiply, 32 bytes per shuffle
// pair. Every source byte splits into nibbles, and c*x resolves through
// two 16-entry product tables broadcast to both 128-bit lanes; VPSHUFB
// shuffles within each lane, which is exactly the semantics the nibble
// lookup needs. The loops around it are the shared body in
// gf256_kernels.hpp. Compiled with -mavx2; the runtime CPU probe in
// avx2_table() keeps the dispatcher honest on older hardware.
#include "gf/gf256.hpp"
#include "gf/gf256_kernels.hpp"

namespace ncfn::gf::simd::detail {

#if defined(__AVX2__)

namespace {

bool cpu_has_avx2() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return true;  // built with AVX2: assume the target can run it
#endif
}

/// Per-coefficient nibble product tables: lo[c][x] = c * x,
/// hi[c][x] = c * (x << 4), each 16 bytes — VPSHUFB operands.
struct NibbleTables {
  std::uint8_t lo[256][16];
  std::uint8_t hi[256][16];
};

struct NibbleMul {
  using Vec = __m256i;
  static constexpr Tier kTier = Tier::kAvx2;
  // 16 ymm registers: a multiplier takes two, so 1 x 4 multipliers next
  // to the accumulator, the source strip, its nibbles and the mask. The
  // shuffles, not the loads, bound this multiply, so a pass takes whole
  // rows: column chunks only add passes (BM_RecodeBatch/32 ran ~20 %
  // slower with 256-byte chunks).
  static constexpr std::size_t kRowGroup = 1;
  static constexpr std::size_t kSourceGroup = 4;
  static constexpr std::size_t kChunkStrips = 0;

  static const NibbleTables& tables() noexcept {
    static const NibbleTables t = [] {
      NibbleTables nt{};
      for (int c = 0; c < 256; ++c) {
        for (int x = 0; x < 16; ++x) {
          nt.lo[c][x] = gf::mul(static_cast<u8>(c), static_cast<u8>(x));
          nt.hi[c][x] = gf::mul(static_cast<u8>(c), static_cast<u8>(x << 4));
        }
      }
      return nt;
    }();
    return t;
  }

  NibbleMul() = default;
  NibbleMul(const NibbleTables& nt, std::uint8_t c)
      : lo(_mm256_broadcastsi128_si256(load_u128(nt.lo[c]))),
        hi(_mm256_broadcastsi128_si256(load_u128(nt.hi[c]))) {}

  __m256i operator()(__m256i x) const {
    const __m256i mask = _mm256_set1_epi8(0x0F);
    return _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask)),
        _mm256_shuffle_epi8(hi,
                            _mm256_and_si256(_mm256_srli_epi64(x, 4), mask)));
  }

  __m128i half(__m128i x) const {
    const __m128i mask = _mm_set1_epi8(0x0F);
    return _mm_xor_si128(
        _mm_shuffle_epi8(_mm256_castsi256_si128(lo), _mm_and_si128(x, mask)),
        _mm_shuffle_epi8(_mm256_castsi256_si128(hi),
                         _mm_and_si128(_mm_srli_epi64(x, 4), mask)));
  }

  __m256i lo, hi;
};

}  // namespace

const KernelTable* avx2_table() noexcept {
  static const KernelTable* t =
      cpu_has_avx2() ? &kVectorTable<NibbleMul> : nullptr;
  return t;
}

#else  // !__AVX2__

const KernelTable* avx2_table() noexcept { return nullptr; }

#endif

}  // namespace ncfn::gf::simd::detail
