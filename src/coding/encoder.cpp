#include "coding/encoder.hpp"

#include <algorithm>
#include <cassert>

#include "coding/byteview.hpp"
#include "coding/rng_fill.hpp"
#include "gf/gf256.hpp"

namespace ncfn::coding {

CodedPacket Encoder::encode_random() {
  CodedPacket pkt;
  pkt.session = session_;
  pkt.generation = generation_->id();
  pkt.acquire(generation_->block_count(), generation_->block_size(), pool_);
  detail::fill_random_bytes(pkt.coeffs(), *rng_);
  encode_drawn(pkt);
  return pkt;
}

void Encoder::encode_random_batch(std::size_t k, PacketBatch& out) {
  const std::size_t g = generation_->block_count();
  assert(k <= out.room());
  if (k == 0) return;
  // One coefficient block for the whole batch (see the recode routine in
  // decoder.cpp for the g % 4 draw-order note).
  std::uint8_t coeffs[kBatchCapacity * kMaxGenerationBlocks];
  const std::span<std::uint8_t> block(coeffs, k * g);
  if (g % 4 == 0) {
    detail::fill_random_bytes(block, *rng_);
  } else {
    for (std::size_t j = 0; j < k; ++j) {
      detail::fill_random_bytes(block.subspan(j * g, g), *rng_);
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    CodedPacket& pkt = out.emplace(g, generation_->block_size(), pool_);
    pkt.session = session_;
    pkt.generation = generation_->id();
    copy_bytes(pkt.coeffs(), block.subspan(j * g, g));
    encode_drawn(pkt);
  }
}

void Encoder::encode_drawn(CodedPacket& pkt) {
  const auto cs = pkt.coeffs();
  while (std::all_of(cs.begin(), cs.end(),
                     [](std::uint8_t c) { return c == 0; })) {
    detail::fill_random_bytes(cs, *rng_);
  }
  encode_payload(pkt);
}

CodedPacket Encoder::encode_systematic(std::size_t i) {
  const std::size_t g = generation_->block_count();
  assert(i < g);
  CodedPacket pkt;
  pkt.session = session_;
  pkt.generation = generation_->id();
  pkt.acquire(g, generation_->block_size(), pool_);
  pkt.coeffs()[i] = 1;
  copy_bytes(pkt.payload(), generation_->block(i));
  return pkt;
}

CodedPacket Encoder::encode_with(
    std::span<const std::uint8_t> coeffs) const {
  const std::size_t g = generation_->block_count();
  assert(coeffs.size() == g);
  CodedPacket pkt;
  pkt.session = session_;
  pkt.generation = generation_->id();
  pkt.acquire(g, generation_->block_size(), pool_);
  copy_bytes(pkt.coeffs(), coeffs);
  encode_payload(pkt);
  return pkt;
}

void Encoder::encode_payload(CodedPacket& pkt) const {
  const auto dst = pkt.payload();
  const auto cs = pkt.coeffs();
  const std::size_t g = cs.size();
  std::size_t i = 0;
  for (; i + 4 <= g; i += 4) {
    const std::uint8_t* src[4] = {
        generation_->block(i).data(), generation_->block(i + 1).data(),
        generation_->block(i + 2).data(), generation_->block(i + 3).data()};
    const std::uint8_t c4[4] = {cs[i], cs[i + 1], cs[i + 2], cs[i + 3]};
    gf::bulk_muladd_x4(dst, src, c4);
  }
  for (; i < g; ++i) gf::bulk_muladd(dst, generation_->block(i), cs[i]);
}

}  // namespace ncfn::coding
