// Incremental Gaussian-elimination decoder for one generation, which also
// serves as the relay-side recoding state.
//
// A destination can recover the generation "as long as [it receives a]
// sufficient number of [linearly independent] packets" (Sec. III.B.1); an
// intermediate VNF "generates an encoded packet immediately after it
// receives a packet from the same session and generation" (pipelined
// recoding, Sec. III.B.2) — both operate on the row space maintained here.
//
// Each stored row is one contiguous pooled [coeffs | payload] buffer
// (a CodedPacket). Elimination runs over the coefficients first and then
// takes the payload in one multi-row kernel call, and recoding computes
// a whole batch of rows from the pivot rows in another.
// With a live pool the steady state (add-eliminate-recode) performs no
// heap allocation.
//
// A destination that has delivered a generation never reads its rows
// again, so release() hands them back to the pool and leaves a
// tombstone: the decoder keeps its place in the generation buffer and
// its counts, and late duplicates stay non-innovative, but it can no
// longer recode or recover.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "coding/batch.hpp"
#include "coding/packet.hpp"
#include "coding/pool.hpp"
#include "coding/types.hpp"
#include "obs/obs.hpp"

namespace ncfn::coding {

/// Pre-resolved observability handles for the coding hot path. One
/// instance per GenerationBuffer (i.e. per coding function); all its
/// decoders share it, so add()/recode() never look anything up — each
/// instrumentation site is one pointer check plus counter increments.
struct CodingObs {
  obs::EventTrace* trace = nullptr;
  obs::Counter* packets_seen = nullptr;
  obs::Counter* packets_innovative = nullptr;
  obs::Counter* generations_decoded = nullptr;
  obs::Counter* recode_ops = nullptr;
  std::uint32_t node = 0;  // simulator node hosting this coding function

  /// Resolve the shared coding counters in `obs` for node `node`.
  [[nodiscard]] static CodingObs bind(obs::Observability& obs,
                                      std::uint32_t node);
};

class Decoder {
 public:
  Decoder(SessionId session, GenerationId generation,
          const CodingParams& params, PacketPool pool = {});

  /// Fold one coded packet into the decoding matrix: eliminate over its
  /// coefficients, recording a multiplier per pivot used, then — only if
  /// it is innovative — apply those pivots to its payload in one
  /// gf::bulk_muladd_rows call. Returns true iff the packet was
  /// innovative (increased the rank).
  bool add(const CodedPacket& pkt);

  [[nodiscard]] SessionId session() const { return session_; }
  [[nodiscard]] GenerationId generation() const { return generation_; }
  [[nodiscard]] std::size_t rank() const { return rank_; }
  /// True if the decoding matrix has a pivot at column c. For systematic
  /// traffic this is exactly "original block c has been received". A
  /// released decoder was complete, so it has every pivot.
  [[nodiscard]] bool has_pivot(std::size_t c) const {
    return released_ ? c < g_ : pivots_.at(c).has_value();
  }
  [[nodiscard]] std::size_t block_count() const { return g_; }
  [[nodiscard]] bool complete() const { return rank_ == g_; }

  /// Total packets offered to add(), and how many were innovative.
  [[nodiscard]] std::size_t packets_seen() const { return seen_; }
  [[nodiscard]] std::size_t packets_innovative() const { return rank_; }

  /// Produce a fresh random linear combination of everything received so
  /// far (relay recoding): recode_batch()'s routine for one row.
  /// Precondition: not released(); at rank() 0 it aborts, as no weights
  /// can combine nothing.
  [[nodiscard]] CodedPacket recode(std::mt19937& rng) const;

  /// Batched recoding: append `k` fresh random combinations to `out`
  /// (k <= out.room()). One call draws the whole k x g coefficient block
  /// from `rng` with the encoder's draw rule (detail::draw_weights), scans
  /// the stored pivot set once and computes all k rows in one
  /// gf::bulk_muladd_rows call, so the RNG, the scan, the obs updates and
  /// every load of a pivot row amortize across the batch. At every g the
  /// bytes drawn from `rng` are those of k successive recode() calls,
  /// with one exception: a row whose weights on the present pivots are
  /// all zero (probability 256^-rank) is redrawn after all k fills rather
  /// than before the next row's. Precondition: as for recode().
  void recode_batch(std::mt19937& rng, std::size_t k, PacketBatch& out) const;

  /// Recover the original blocks by back-substitution over the payloads:
  /// block c = payload of pivot c + sum over j > c of coeff(c, j) * block
  /// j, built from the last column down straight into the returned
  /// vectors, one bulk_muladd_rows call per block over its nonzero later
  /// blocks. The pivot rows are upper triangular with a unit diagonal, so
  /// this is the same answer as reducing the rows to the identity first;
  /// sums in GF(2^8) are XORs, so the order of the terms does not matter.
  /// Precondition: complete() and not released().
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> recover() const;

  /// Give every pivot row back to the pool once the generation has been
  /// delivered. rank(), complete(), packets_seen() and has_pivot() keep
  /// their values and add() keeps counting (nothing is innovative any
  /// more); recode(), recode_batch() and recover() abort from then on.
  /// Precondition: complete().
  void release();
  [[nodiscard]] bool released() const { return released_; }

  /// Attach observability handles (owned by the enclosing buffer and
  /// outliving this decoder); nullptr detaches.
  void set_obs(const CodingObs* obs) { obs_ = obs; }

 private:
  /// Adopt `row` as the pivot for column `c` and account the rank gain.
  void install_pivot(CodedPacket&& row, std::size_t c);
  /// Abort if release() already gave the rows back; `op` names the caller.
  void require_rows(const char* op) const;

  SessionId session_;
  GenerationId generation_;
  std::size_t g_;
  std::size_t block_size_;
  std::size_t rank_ = 0;
  std::size_t seen_ = 0;
  PacketPool pool_;
  const CodingObs* obs_ = nullptr;
  bool released_ = false;
  // pivots_[c]: contiguous [coeffs | payload] row with leading 1 at column c
  std::vector<std::optional<CodedPacket>> pivots_;
};

}  // namespace ncfn::coding
