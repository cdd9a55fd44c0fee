// Source encoder: produces coded packets from one generation.
//
// Randomized network coding (Ho et al., cited by the paper): each coded
// block is a linear combination of the generation's blocks with
// coefficients drawn uniformly at random from GF(2^8). The encoder also
// supports systematic operation (first emit each original block with a
// unit coefficient vector, then random combinations), an ablation the
// bench suite compares against fully-random encoding.
//
// Hot-path shape: packets come from the (optional) PacketPool, so the
// steady state allocates nothing, and the payload accumulation drives the
// fused four-row muladd kernel — one pass over the output block per four
// source blocks instead of one per block.
#pragma once

#include <random>

#include "coding/batch.hpp"
#include "coding/generation.hpp"
#include "coding/packet.hpp"
#include "coding/pool.hpp"

namespace ncfn::coding {

class Encoder {
 public:
  Encoder(SessionId session, const Generation& generation, std::mt19937& rng,
          PacketPool pool = {})
      : session_(session),
        generation_(&generation),
        rng_(&rng),
        pool_(std::move(pool)) {
    require_generation_blocks(generation.block_count(), "Encoder");
  }

  /// Emit one random coded packet. The coefficient vector is redrawn if it
  /// comes out all-zero (probability 2^-8g, but correctness demands it).
  [[nodiscard]] CodedPacket encode_random();

  /// Batched source coding: append `k` random coded packets to `out`
  /// (k <= out.room()). Draws one k x g coefficient block per call so the
  /// RNG fill amortizes across the batch; for g % 4 == 0 the draw stream
  /// matches k successive encode_random() calls, except that an all-zero
  /// row (probability 2^-8g) is redrawn after all k fills rather than
  /// before the next row's.
  void encode_random_batch(std::size_t k, PacketBatch& out);

  /// Emit original block `i` as a systematic packet (unit coefficients).
  [[nodiscard]] CodedPacket encode_systematic(std::size_t i);

  /// Emit a packet with caller-chosen coefficients (used by tests).
  [[nodiscard]] CodedPacket encode_with(
      std::span<const std::uint8_t> coeffs) const;

 private:
  /// The one random-coding routine behind encode_random() and each row of
  /// encode_random_batch(): redraw pkt's freshly drawn coefficients while
  /// they are all zero, then encode the payload.
  void encode_drawn(CodedPacket& pkt);
  /// Accumulate sum_i coeffs[i] * block(i) into pkt's (zeroed) payload,
  /// four source rows per fused kernel pass.
  void encode_payload(CodedPacket& pkt) const;

  SessionId session_;
  const Generation* generation_;
  std::mt19937* rng_;
  PacketPool pool_;
};

}  // namespace ncfn::coding
