#include "coding/packet.hpp"

#include <cassert>

#include "coding/byteview.hpp"

namespace ncfn::coding {

void CodedPacket::acquire(std::size_t g, std::size_t payload_bytes,
                          const PacketPool& pool) {
  buf_ = pool.acquire(g + payload_bytes);
  g_ = static_cast<std::uint32_t>(g);
}

CodedPacket CodedPacket::make(SessionId session, GenerationId generation,
                              std::span<const std::uint8_t> coeffs,
                              std::span<const std::uint8_t> payload,
                              const PacketPool& pool) {
  CodedPacket pkt;
  pkt.session = session;
  pkt.generation = generation;
  pkt.acquire(coeffs.size(), payload.size(), pool);
  copy_bytes(pkt.coeffs(), coeffs);
  copy_bytes(pkt.payload(), payload);
  return pkt;
}

std::vector<std::uint8_t> CodedPacket::serialize() const {
  std::vector<std::uint8_t> out;
  serialize_into(out);
  return out;
}

void CodedPacket::serialize_into(std::vector<std::uint8_t>& out) const {
  out.resize(wire_size());
  ByteWriter w(out);
  w.u32(session);
  w.u32(generation);
  // Coeffs + payload are contiguous: one copy covers both.
  w.bytes(buf_.span());
  assert(w.done());
}

std::optional<CodedPacket> CodedPacket::parse(
    std::span<const std::uint8_t> wire, const CodingParams& params,
    const PacketPool& pool) {
  if (wire.size() != params.packet_bytes()) return std::nullopt;
  ByteView v(wire);
  CodedPacket pkt;
  pkt.session = v.u32();
  pkt.generation = v.u32();
  pkt.acquire(params.generation_blocks, params.block_size, pool);
  if (!v.bytes(pkt.buf_.span()) || !v.done()) return std::nullopt;
  return pkt;
}

}  // namespace ncfn::coding
