// Coded packet and NC header wire format.
//
// The paper introduces the network-coding layer between UDP and the
// application, with a header carrying session id, generation id and the
// encoding coefficient vector: "a total of 8 bytes plus the length of
// coefficients, which depends on the number of blocks in each generation".
//
// Wire layout (big-endian):
//   [0..3]  session id
//   [4..7]  generation id
//   [8..8+g)  g coefficient bytes (GF(2^8) elements)
//   [8+g..]   coded block payload
//
// In memory the coefficient vector and the payload live in ONE contiguous
// pool-recycled buffer ([coeffs | payload], the `row()` span). That makes
// a packet a single bulk-kernel operand: relay recoding and decoder row
// elimination apply one fused GF op across coefficients and payload
// instead of two, serialization is one memcpy, and the steady-state data
// plane allocates nothing per packet (see pool.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coding/pool.hpp"
#include "coding/types.hpp"

namespace ncfn::coding {

/// One coded block: a linear combination of the blocks of one generation,
/// tagged with the combination's coefficient vector. Move-only, like the
/// pooled buffer that holds it.
struct CodedPacket {
  SessionId session = 0;
  GenerationId generation = 0;

  CodedPacket() = default;

  /// Allocate zero-filled storage for `g` coefficients plus
  /// `payload_bytes` of payload, drawn from `pool` (heap when null).
  void acquire(std::size_t g, std::size_t payload_bytes,
               const PacketPool& pool = {});

  /// Convenience constructor (tests, systematic emitters): storage sized
  /// and filled from the given coefficient vector and payload.
  [[nodiscard]] static CodedPacket make(SessionId session,
                                        GenerationId generation,
                                        std::span<const std::uint8_t> coeffs,
                                        std::span<const std::uint8_t> payload,
                                        const PacketPool& pool = {});

  [[nodiscard]] std::size_t coeff_count() const noexcept { return g_; }
  [[nodiscard]] std::size_t payload_size() const noexcept {
    return buf_.size() - g_;
  }

  [[nodiscard]] std::span<std::uint8_t> coeffs() noexcept {
    return buf_.span().subspan(0, g_);
  }
  [[nodiscard]] std::span<const std::uint8_t> coeffs() const noexcept {
    return buf_.span().subspan(0, g_);
  }
  [[nodiscard]] std::span<std::uint8_t> payload() noexcept {
    return buf_.span().subspan(g_);
  }
  [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept {
    return buf_.span().subspan(g_);
  }
  /// The whole contiguous [coeffs | payload] region — one GF bulk-kernel
  /// operand (linear ops act identically on both halves).
  [[nodiscard]] std::span<std::uint8_t> row() noexcept { return buf_.span(); }
  [[nodiscard]] std::span<const std::uint8_t> row() const noexcept {
    return buf_.span();
  }

  /// Serialize header + coeffs + payload to the UDP wire format.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Same, into a caller-provided buffer (cleared first). With a recycled
  /// buffer of sufficient capacity this allocates nothing.
  void serialize_into(std::vector<std::uint8_t>& out) const;

  /// Parse a datagram. Returns std::nullopt if the datagram is malformed
  /// (wrong size for the session's coding parameters). Storage comes from
  /// `pool` when one is given.
  [[nodiscard]] static std::optional<CodedPacket> parse(
      std::span<const std::uint8_t> wire, const CodingParams& params,
      const PacketPool& pool = {});

  /// Wire size of this packet.
  [[nodiscard]] std::size_t wire_size() const { return 8 + buf_.size(); }

 private:
  PooledBuf buf_;           // [coeffs | payload], pool-recycled
  std::uint32_t g_ = 0;     // split point: number of coefficients
};

}  // namespace ncfn::coding
