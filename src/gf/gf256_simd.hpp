// SIMD kernels for the GF(2^8) hot path, behind a runtime dispatch table.
//
// Three tiers. The two vector tiers share one kernel body
// (gf256_kernels.hpp) and each supplies only its multiply-by-constant:
//
//   * scalar — one 256-byte product-table row per coefficient (the
//     oracle every tier must match, and the tail path of the avx2 tier);
//   * avx2   — the classic nibble-table technique (Kodo, ISA-L,
//     Jerasure): split every source byte into nibbles and resolve c*x
//     through two 16-entry tables with VPSHUFB, 32 bytes per shuffle;
//   * gfni   — GF2P8AFFINEQB: multiplication by a constant is a linear
//     map over GF(2), so one affine instruction per 64 bytes replaces the
//     whole nibble dance (the ISA-L modern path), and the last 1-63
//     bytes of a call take one masked block. Needs AVX-512F/BW next to
//     GFNI; GFNI hosts without AVX-512 run the avx2 tier.
//
// Each tier also provides one fused multi-row kernel (muladd_rows): k
// output rows from m source rows, the multi-output dot product of ISA-L's
// gf_Nvect_dot_prod. A vector tier walks a group of output rows and a
// group of source rows per pass, with the group's accumulators and
// multipliers in registers, so every source strip is loaded once per
// group of output rows and every output strip once per group of sources;
// the group sizes are per-tier constants set by the register budget.
// gf::bulk_muladd_x4 is its one-row, four-source call.
//
// The active tier is resolved once on first use: the best tier the build
// and CPU both support, unless the NCFN_GF_ISA environment variable
// ("scalar" | "avx2" | "gfni"; anything else means auto) or force_tier()
// overrides it. All tiers are bit-exact (tests assert equality across
// every tier).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ncfn::gf::simd {

/// Instruction-set tiers for the bulk kernels, worst to best. The values
/// are stable: benchmark rows are named after them.
enum class Tier : int { kScalar = 0, kAvx2 = 2, kGfni = 3 };

/// One tier's kernels. Raw-pointer signatures — the gf:: wrappers add the
/// span/precondition layer. Every kernel accepts any n and handles
/// sub-vector tails internally.
struct KernelTable {
  void (*muladd)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 std::uint8_t c);  // dst[i] ^= c * src[i]
  void (*mul)(std::uint8_t* dst, std::size_t n,
              std::uint8_t c);  // dst[i] = c * dst[i]
  void (*bxor)(std::uint8_t* dst, const std::uint8_t* src,
               std::size_t n);  // dst[i] ^= src[i]
  /// dst[r][i] ^= sum over j < m of c[r*ldc + j] * src[j][i], for r < k
  /// and i < n — k output rows from m source rows, register-blocked.
  void (*muladd_rows)(std::uint8_t* const dst[], std::size_t k,
                      const std::uint8_t* const src[], std::size_t m,
                      const std::uint8_t* c, std::size_t ldc, std::size_t n);
  Tier tier;
};

/// The active kernel table (dispatch resolved on first call).
[[nodiscard]] const KernelTable& kernels() noexcept;

[[nodiscard]] Tier active_tier() noexcept;
/// Best tier this build + CPU can run.
[[nodiscard]] Tier best_tier() noexcept;
[[nodiscard]] bool tier_supported(Tier t) noexcept;
[[nodiscard]] const char* tier_name(Tier t) noexcept;

/// Force dispatch to a tier (tests, ablation). Returns false and leaves
/// dispatch unchanged when the build/CPU can't run it.
bool force_tier(Tier t) noexcept;
/// Drop any force_tier() override; dispatch reverts to env/auto selection.
void reset_tier() noexcept;

}  // namespace ncfn::gf::simd
