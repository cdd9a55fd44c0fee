#include "coding/decoder.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "coding/byteview.hpp"
#include "coding/rng_fill.hpp"
#include "gf/gf256.hpp"

namespace ncfn::coding {

namespace {

/// A decoder's present pivot rows and their columns, in column order;
/// only the first n entries are set.
struct PivotRows {
  const std::uint8_t* rows[kMaxGenerationBlocks];
  std::uint16_t cols[kMaxGenerationBlocks];
  std::size_t n = 0;
};

PivotRows pivot_rows(const std::vector<std::optional<CodedPacket>>& pivots) {
  PivotRows piv;
  for (std::size_t c = 0; c < pivots.size(); ++c) {
    if (!pivots[c].has_value()) continue;
    piv.rows[piv.n] = pivots[c]->row().data();
    piv.cols[piv.n] = static_cast<std::uint16_t>(c);
    ++piv.n;
  }
  return piv;
}

/// The one recoding routine behind recode() and recode_batch(): draw
/// k = out.size() rows of g per-column weights from `rng` with the
/// encoder's draw rule over the present pivot columns, and accumulate
/// the weighted pivot rows into the zero-filled rows `out` in one
/// bulk_muladd_rows call.
void recode_rows(std::mt19937& rng, const PivotRows& piv, std::size_t g,
                 std::span<std::uint8_t* const> out, std::size_t row_bytes) {
  const std::size_t k = out.size();
  std::uint8_t weights[kBatchCapacity * kMaxGenerationBlocks];
  detail::draw_weights({weights, k * g}, g, {piv.cols, piv.n}, rng);
  // The weights of the present pivots, row by row: the k x piv.n
  // coefficient matrix of the one multi-row pass.
  std::uint8_t coeffs[kBatchCapacity * kMaxGenerationBlocks];
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t t = 0; t < piv.n; ++t) {
      coeffs[j * piv.n + t] = weights[j * g + piv.cols[t]];
    }
  }
  gf::bulk_muladd_rows(out, {piv.rows, piv.n}, coeffs, piv.n, row_bytes);
}

}  // namespace

CodingObs CodingObs::bind(obs::Observability& obs, std::uint32_t node) {
  CodingObs o;
  o.trace = &obs.trace;
  o.packets_seen = &obs.metrics.counter("coding.packets_seen");
  o.packets_innovative = &obs.metrics.counter("coding.packets_innovative");
  o.generations_decoded = &obs.metrics.counter("coding.generations_decoded");
  o.recode_ops = &obs.metrics.counter("coding.recode_ops");
  o.node = node;
  return o;
}

Decoder::Decoder(SessionId session, GenerationId generation,
                 const CodingParams& params, PacketPool pool)
    : session_(session),
      generation_(generation),
      g_(require_generation_blocks(params.generation_blocks, "Decoder")),
      block_size_(params.block_size),
      pool_(std::move(pool)),
      pivots_(g_) {}

void Decoder::install_pivot(CodedPacket&& row, std::size_t c) {
  pivots_[c] = std::move(row);
  ++rank_;
  if (obs_ != nullptr) {
    obs_->packets_innovative->inc();
    if (rank_ == g_) {
      obs_->generations_decoded->inc();
      obs_->trace->gen_decode(obs_->node, session_, generation_, seen_);
    }
  }
}

void Decoder::require_rows(const char* op) const {
  if (!released_) return;
  std::fprintf(stderr,
               "ncfn: Decoder::%s on released generation %u of session %u\n",
               op, generation_, session_);
  std::abort();
}

void Decoder::release() {
  assert(complete());
  pivots_.clear();
  pivots_.shrink_to_fit();
  released_ = true;
}

bool Decoder::add(const CodedPacket& pkt) {
  assert(pkt.session == session_ && pkt.generation == generation_);
  assert(pkt.coeff_count() == g_ && pkt.payload_size() == block_size_);
  ++seen_;
  if (obs_ != nullptr) obs_->packets_seen->inc();
  if (complete()) return false;

  // Copy the arrival into a pooled working row and eliminate over its g
  // coefficient bytes first, recording each pivot's multiplier. Once a
  // new pivot is found, the payload takes those pivots' payloads in one
  // bulk_muladd_rows call: a dense arrival at rank r costs ceil(r/S)
  // payload passes (S the tier's source group, 4 to 12) instead of r,
  // and a non-innovative one costs none. Every payload byte sums the
  // same products as a row-at-a-time elimination, and XOR sums do not
  // depend on their order.
  CodedPacket row;
  row.session = session_;
  row.generation = generation_;
  row.acquire(g_, block_size_, pool_);
  copy_bytes(row.row(), pkt.row());
  const std::span<std::uint8_t> coeffs = row.coeffs();
  const std::uint8_t* src[kMaxGenerationBlocks];
  std::uint8_t mult[kMaxGenerationBlocks];
  std::size_t m = 0;
  for (std::size_t c = 0; c < g_; ++c) {
    const std::uint8_t lead = coeffs[c];
    if (lead == 0) continue;
    if (pivots_[c].has_value()) {
      gf::bulk_muladd(coeffs, pivots_[c]->coeffs(), lead);
      src[m] = pivots_[c]->payload().data();
      mult[m] = lead;
      ++m;
      continue;
    }
    // New pivot at column c: finish the payload, then normalize the
    // leading coefficient to 1.
    std::uint8_t* const payload = row.payload().data();
    gf::bulk_muladd_rows({&payload, 1}, {src, m}, mult, m, block_size_);
    if (lead != 1) gf::bulk_mul(row.row(), gf::inv(lead));
    install_pivot(std::move(row), c);
    return true;
  }
  return false;  // reduced to zero: linearly dependent
}

CodedPacket Decoder::recode(std::mt19937& rng) const {
  require_rows("recode");
  if (obs_ != nullptr) obs_->recode_ops->inc();
  CodedPacket out;
  out.session = session_;
  out.generation = generation_;
  out.acquire(g_, block_size_, pool_);
  std::uint8_t* const row = out.row().data();
  recode_rows(rng, pivot_rows(pivots_), g_, {&row, 1}, g_ + block_size_);
  return out;
}

void Decoder::recode_batch(std::mt19937& rng, std::size_t k,
                           PacketBatch& out) const {
  assert(k <= out.room());
  require_rows("recode_batch");
  if (k == 0) return;
  if (obs_ != nullptr) obs_->recode_ops->inc(k);
  std::uint8_t* rows[kBatchCapacity];
  for (std::size_t j = 0; j < k; ++j) {
    CodedPacket& pkt = out.emplace(g_, block_size_, pool_);
    pkt.session = session_;
    pkt.generation = generation_;
    rows[j] = pkt.row().data();
  }
  recode_rows(rng, pivot_rows(pivots_), g_, {rows, k}, g_ + block_size_);
}

std::vector<std::vector<std::uint8_t>> Decoder::recover() const {
  assert(complete());
  require_rows("recover");
  std::vector<std::vector<std::uint8_t>> blocks(g_);
  const std::uint8_t* src[kMaxGenerationBlocks];
  std::uint8_t mult[kMaxGenerationBlocks];
  for (std::size_t c = g_; c-- > 0;) {
    const CodedPacket& pivot = *pivots_[c];
    const auto payload = pivot.payload();
    blocks[c].assign(payload.begin(), payload.end());
    const auto coeffs = pivot.coeffs();
    std::size_t m = 0;
    for (std::size_t j = c + 1; j < g_; ++j) {
      if (coeffs[j] == 0) continue;
      src[m] = blocks[j].data();
      mult[m] = coeffs[j];
      ++m;
    }
    std::uint8_t* const dst = blocks[c].data();
    gf::bulk_muladd_rows({&dst, 1}, {src, m}, mult, m, block_size_);
  }
  return blocks;
}

}  // namespace ncfn::coding
