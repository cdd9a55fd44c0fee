#include "coding/encoder.hpp"

#include <array>
#include <cassert>

#include "coding/byteview.hpp"
#include "coding/rng_fill.hpp"
#include "gf/gf256.hpp"

namespace ncfn::coding {

namespace {

/// Column indices 0, 1, 2, ...: a source row must weight some block, so
/// the encoder's redraw test spans all g columns.
constexpr auto kAllColumns = [] {
  std::array<std::uint16_t, kMaxGenerationBlocks> cols{};
  for (std::size_t c = 0; c < cols.size(); ++c) {
    cols[c] = static_cast<std::uint16_t>(c);
  }
  return cols;
}();

std::span<const std::uint16_t> all_columns(std::size_t g) {
  return std::span<const std::uint16_t>(kAllColumns).first(g);
}

}  // namespace

CodedPacket Encoder::blank() const {
  CodedPacket pkt;
  pkt.session = session_;
  pkt.generation = generation_->id();
  pkt.acquire(generation_->block_count(), generation_->block_size(), pool_);
  return pkt;
}

CodedPacket Encoder::encode_random() {
  CodedPacket pkt = blank();
  const std::size_t g = generation_->block_count();
  detail::draw_weights(pkt.coeffs(), g, all_columns(g), *rng_);
  std::uint8_t* const row = pkt.payload().data();
  encode_payloads({&row, 1}, pkt.coeffs().data());
  return pkt;
}

void Encoder::encode_random_batch(std::size_t k, PacketBatch& out) {
  const std::size_t g = generation_->block_count();
  assert(k <= out.room());
  if (k == 0) return;
  std::uint8_t weights[kBatchCapacity * kMaxGenerationBlocks];
  const std::span<std::uint8_t> block(weights, k * g);
  detail::draw_weights(block, g, all_columns(g), *rng_);
  std::uint8_t* rows[kBatchCapacity];
  for (std::size_t j = 0; j < k; ++j) {
    CodedPacket& pkt = out.emplace(g, generation_->block_size(), pool_);
    pkt.session = session_;
    pkt.generation = generation_->id();
    copy_bytes(pkt.coeffs(), block.subspan(j * g, g));
    rows[j] = pkt.payload().data();
  }
  encode_payloads({rows, k}, weights);
}

CodedPacket Encoder::encode_systematic(std::size_t i) {
  assert(i < generation_->block_count());
  CodedPacket pkt = blank();
  pkt.coeffs()[i] = 1;
  copy_bytes(pkt.payload(), generation_->block(i));
  return pkt;
}

CodedPacket Encoder::encode_with(
    std::span<const std::uint8_t> coeffs) const {
  assert(coeffs.size() == generation_->block_count());
  CodedPacket pkt = blank();
  copy_bytes(pkt.coeffs(), coeffs);
  std::uint8_t* const row = pkt.payload().data();
  encode_payloads({&row, 1}, pkt.coeffs().data());
  return pkt;
}

void Encoder::encode_payloads(std::span<std::uint8_t* const> rows,
                              const std::uint8_t* weights) const {
  const std::size_t g = generation_->block_count();
  const std::uint8_t* blocks[kMaxGenerationBlocks];
  for (std::size_t i = 0; i < g; ++i) blocks[i] = generation_->block(i).data();
  gf::bulk_muladd_rows(rows, {blocks, g}, weights, g,
                       generation_->block_size());
}

}  // namespace ncfn::coding
