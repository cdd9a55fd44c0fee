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
// steady state allocates nothing, the weights come from the one draw
// rule relays recode with (detail::draw_weights), and the payloads of a
// call — one packet or a batch — are summed in one gf::bulk_muladd_rows
// call over the generation's blocks.
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
        pool_(std::move(pool)) {}

  /// Emit one random coded packet. The coefficient vector is redrawn if it
  /// comes out all-zero (probability 2^-8g, but correctness demands it).
  [[nodiscard]] CodedPacket encode_random();

  /// Batched source coding: append `k` random coded packets to `out`
  /// (k <= out.room()). Draws one k x g coefficient block per call so the
  /// RNG fill amortizes across the batch; the draw stream matches k
  /// successive encode_random() calls at every g, except that an all-zero
  /// row (probability 2^-8g) is redrawn after all k fills rather than
  /// before the next row's.
  void encode_random_batch(std::size_t k, PacketBatch& out);

  /// Emit original block `i` as a systematic packet (unit coefficients).
  [[nodiscard]] CodedPacket encode_systematic(std::size_t i);

  /// Emit a packet with caller-chosen coefficients (used by tests).
  [[nodiscard]] CodedPacket encode_with(
      std::span<const std::uint8_t> coeffs) const;

 private:
  /// A zero-filled packet of this session and generation.
  [[nodiscard]] CodedPacket blank() const;
  /// Add sum_i weights[r*g + i] * block(i) into each zeroed payload
  /// rows[r], in one bulk_muladd_rows call.
  void encode_payloads(std::span<std::uint8_t* const> rows,
                       const std::uint8_t* weights) const;

  SessionId session_;
  const Generation* generation_;
  std::mt19937* rng_;
  PacketPool pool_;
};

}  // namespace ncfn::coding
