// GF(2^8) arithmetic for random linear network coding.
//
// The paper (Sec. III.B.1) follows the practice of Chou et al. and Airlift
// and fixes the field to GF(2^8), "observed to enable the maximum throughput
// among all field sizes".  This module provides scalar field operations plus
// the bulk buffer kernels the codec hot path runs on: each coded block is
// a sum of c * src over 1460-byte payloads, so bulk_muladd_rows(), which
// the encoder, the recoder and the decoder all run those sums through, is
// the most performance-critical routine in the data plane.
//
// Representation: polynomial basis over the AES/Rijndael-compatible
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).  Multiplication
// uses a full 256x256 product table (64 KiB, L2-resident); each bulk kernel
// walks one 256-byte row of it, which keeps the inner loop free of
// log/exp branching on zero operands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ncfn::gf {

/// Field element of GF(2^8).
using u8 = std::uint8_t;

/// Number of elements in GF(2^8).
inline constexpr int kFieldSize = 256;

/// Primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
inline constexpr unsigned kPrimitivePoly = 0x11D;

namespace detail {
struct Tables {
  u8 exp[2 * kFieldSize];        // exp[i] = g^i, doubled to skip a mod
  u8 log[kFieldSize];            // log[exp[i]] = i; log[0] unused
  u8 inv[kFieldSize];            // multiplicative inverse; inv[0] unused
  u8 mul[kFieldSize][kFieldSize];
};
const Tables& tables() noexcept;
}  // namespace detail

/// Addition in GF(2^8) is XOR (characteristic 2). Subtraction is identical.
[[nodiscard]] inline u8 add(u8 a, u8 b) noexcept { return a ^ b; }
[[nodiscard]] inline u8 sub(u8 a, u8 b) noexcept { return a ^ b; }

/// Field multiplication via the product table.
[[nodiscard]] inline u8 mul(u8 a, u8 b) noexcept {
  return detail::tables().mul[a][b];
}

/// Multiplicative inverse. Precondition: a != 0.
[[nodiscard]] u8 inv(u8 a) noexcept;

/// Division a / b. Precondition: b != 0.
[[nodiscard]] inline u8 div(u8 a, u8 b) noexcept { return mul(a, inv(b)); }

/// a raised to integer power e (e >= 0); 0^0 defined as 1.
[[nodiscard]] u8 pow(u8 a, unsigned e) noexcept;

// ---- Bulk kernels over byte buffers (the codec hot path) ----

/// dst[i] ^= src[i].  Buffers must be the same length.
void bulk_xor(std::span<u8> dst, std::span<const u8> src) noexcept;

/// dst[i] = c * dst[i].
void bulk_mul(std::span<u8> dst, u8 c) noexcept;

/// dst[i] ^= c * src[i].  The decoder's coefficient elimination step.
void bulk_muladd(std::span<u8> dst, std::span<const u8> src, u8 c) noexcept;

/// dst[i] ^= c[0]*src[0][i] ^ c[1]*src[1][i] ^ c[2]*src[2][i]
///           ^ c[3]*src[3][i].
/// Fused four-row accumulate: one pass over dst for four source rows
/// (the ISA-L/Jerasure trick — ~4x less dst load/store traffic than four
/// bulk_muladd calls); bulk_muladd_rows with one output row. Each src[j]
/// must point at dst.size() bytes; zero and one coefficients are handled
/// by the product tables, so callers need not compact the rows. No
/// caller in src: the codec makes one bulk_muladd_rows call instead.
void bulk_muladd_x4(std::span<u8> dst, const u8* const src[4],
                    const u8 c[4]) noexcept;

/// dst[r][i] ^= sum over j of c[r*ldc + j] * src[j][i], for every output
/// row r < dst.size() and byte i < n: k output rows from m source rows
/// in one register-blocked pass, the multi-output dot product of ISA-L's
/// gf_Nvect_dot_prod. Each source strip is loaded once per group of
/// output rows and each output strip once per group of sources, instead
/// of a pass over the sources per output row. Every row holds n bytes,
/// and no output row may alias a source row; zero and one coefficients
/// go through the product tables like any other.
void bulk_muladd_rows(std::span<u8* const> dst, std::span<const u8* const> src,
                      const u8* c, std::size_t ldc, std::size_t n) noexcept;

/// Dot product sum_i a[i] * b[i]. No caller in src: a relay combines
/// whole [coeffs | payload] rows with bulk_muladd_rows instead.
[[nodiscard]] u8 dot(std::span<const u8> a, std::span<const u8> b) noexcept;

}  // namespace ncfn::gf
