#include "coding/decoder.hpp"

#include <algorithm>
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
  const std::uint8_t* rows[256];
  std::uint16_t cols[256];
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

/// The one recoding routine behind recode() and each row of
/// recode_batch(): redraw the per-column weights `w` while every weight
/// on a present pivot is zero, then accumulate the weighted pivot rows
/// into `out` (zero-filled) four at a time through the fused kernel.
void recode_row(std::mt19937& rng, const PivotRows& piv,
                std::span<std::uint8_t> w, CodedPacket& out) {
  while (std::none_of(piv.cols, piv.cols + piv.n,
                      [w](std::uint16_t c) { return w[c] != 0; })) {
    detail::fill_random_bytes(w, rng);
  }
  const std::uint8_t* src[4];
  std::uint8_t c4[4];
  int m = 0;
  for (std::size_t i = 0; i < piv.n; ++i) {
    const std::uint8_t c = w[piv.cols[i]];
    if (c == 0) continue;
    src[m] = piv.rows[i];
    c4[m] = c;
    if (++m == 4) {
      gf::bulk_muladd_x4(out.row(), src, c4);
      m = 0;
    }
  }
  for (int t = 0; t < m; ++t) {
    gf::bulk_muladd(out.row(),
                    std::span<const std::uint8_t>(src[t], out.row().size()),
                    c4[t]);
  }
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
      g_(params.generation_blocks),
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

  // Systematic fast path: an identity-coefficient arrival whose column
  // has no pivot yet is already a fully-reduced unit row (every
  // coefficient past the pivot is zero), so elimination cannot change it
  // — copy it straight into place. When the column is occupied the
  // general path below reduces it as usual.
  if (systematic_fastpath_) {
    if (const auto idx = pkt.systematic_index();
        idx.has_value() && !pivots_[*idx].has_value()) {
      CodedPacket row;
      row.session = session_;
      row.generation = generation_;
      row.acquire(g_, block_size_, pool_);
      copy_bytes(row.row(), pkt.row());
      install_pivot(std::move(row), *idx);
      return true;
    }
  }

  // Copy the arrival into a pooled working row; all elimination below is
  // fused over the contiguous [coeffs | payload] region.
  CodedPacket row;
  row.session = session_;
  row.generation = generation_;
  row.acquire(g_, block_size_, pool_);
  copy_bytes(row.row(), pkt.row());

  // Forward-eliminate against existing pivots.
  for (std::size_t c = 0; c < g_; ++c) {
    const std::uint8_t lead = row.coeffs()[c];
    if (lead == 0) continue;
    if (pivots_[c].has_value()) {
      gf::bulk_muladd(row.row(), pivots_[c]->row(), lead);
      continue;
    }
    // New pivot at column c: normalize leading coefficient to 1.
    if (lead != 1) gf::bulk_mul(row.row(), gf::inv(lead));
    install_pivot(std::move(row), c);
    return true;
  }
  return false;  // reduced to zero: linearly dependent
}

CodedPacket Decoder::recode(std::mt19937& rng) const {
  assert(rank_ >= 1);
  require_rows("recode");
  if (obs_ != nullptr) obs_->recode_ops->inc();
  std::uint8_t weights[256];
  assert(g_ <= sizeof(weights));
  const std::span<std::uint8_t> w(weights, g_);
  detail::fill_random_bytes(w, rng);
  CodedPacket out;
  out.session = session_;
  out.generation = generation_;
  out.acquire(g_, block_size_, pool_);
  recode_row(rng, pivot_rows(pivots_), w, out);
  return out;
}

void Decoder::recode_batch(std::mt19937& rng, std::size_t k,
                           PacketBatch& out) const {
  assert(rank_ >= 1);
  assert(k <= out.room());
  assert(g_ <= 256);
  require_rows("recode_batch");
  if (k == 0) return;
  if (obs_ != nullptr) obs_->recode_ops->inc(k);
  const PivotRows piv = pivot_rows(pivots_);

  // One coefficient block for the whole batch. fill_random_bytes slices
  // each 32-bit Twister word into four bytes and discards the remainder
  // of a partial tail word, so a single fill of k*g bytes consumes the
  // exact byte stream of k successive g-byte fills iff g % 4 == 0; for
  // other g we fill row slices sequentially to keep recode_batch
  // draw-for-draw identical to k recode() calls. (If a rejection redraw
  // fires in recode_row — all present-pivot weights zero, probability
  // 256^-rank — the single-fill ordering appends the redraw instead of
  // interleaving it; k == 1 is always exactly equivalent.)
  std::uint8_t weights[kBatchCapacity * 256];
  const std::span<std::uint8_t> block(weights, k * g_);
  if (g_ % 4 == 0) {
    detail::fill_random_bytes(block, rng);
  } else {
    for (std::size_t j = 0; j < k; ++j) {
      detail::fill_random_bytes(block.subspan(j * g_, g_), rng);
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    CodedPacket& pkt = out.emplace(g_, block_size_, pool_);
    pkt.session = session_;
    pkt.generation = generation_;
    recode_row(rng, piv, block.subspan(j * g_, g_), pkt);
  }
}

std::vector<std::vector<std::uint8_t>> Decoder::recover() const {
  assert(complete());
  require_rows("recover");
  std::vector<std::vector<std::uint8_t>> blocks(g_);
  for (std::size_t c = g_; c-- > 0;) {
    const CodedPacket& pivot = *pivots_[c];
    const auto payload = pivot.payload();
    blocks[c].assign(payload.begin(), payload.end());
    const std::span<std::uint8_t> dst(blocks[c]);
    const auto coeffs = pivot.coeffs();
    const std::uint8_t* src[4];
    std::uint8_t c4[4];
    int k = 0;
    for (std::size_t j = c + 1; j < g_; ++j) {
      if (coeffs[j] == 0) continue;
      src[k] = blocks[j].data();
      c4[k] = coeffs[j];
      if (++k == 4) {
        gf::bulk_muladd_x4(dst, src, c4);
        k = 0;
      }
    }
    for (int t = 0; t < k; ++t) {
      gf::bulk_muladd(dst, std::span<const std::uint8_t>(src[t], dst.size()),
                      c4[t]);
    }
  }
  return blocks;
}

}  // namespace ncfn::coding
