// Batched data-plane invariants (ctest label `batch`):
//
//   * PacketBatch fill / partial-flush / pool-return accounting — every
//     row a batch holds goes back to its pool on clear(), drop_front()
//     and destruction, including partially-filled batches (the
//     NCFN_AUDIT teardown check backs the same invariant end to end);
//   * draw-order equivalence of the batched coefficient draws
//     (recode_batch / encode_random_batch against their sequential
//     single-packet counterparts from the same engine state);
//   * systematic rows interleaved with coded ones through the decoder's
//     one elimination path (add() verdicts and recovery);
//   * the batched-vs-unbatched butterfly differential: the same
//     scenario run with max_batch=1 (per-packet baseline) and
//     max_batch=32 must hand every receiver identical ordered decoded
//     payloads from the same deployment plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "app/scenarios.hpp"
#include "coding/batch.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "coding/pool.hpp"
#include "coding/rng_fill.hpp"
#include "ctrl/problem.hpp"
#include "obs/audit.hpp"

namespace ncfn {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(d(rng));
  return out;
}

/// Scoped NCFN_AUDIT override (restores the previous value on exit).
class ScopedAuditEnv {
 public:
  explicit ScopedAuditEnv(const char* value) {
    if (const char* prev = std::getenv("NCFN_AUDIT")) saved_ = prev;
    setenv("NCFN_AUDIT", value, /*overwrite=*/1);
  }
  ~ScopedAuditEnv() {
    if (saved_) {
      setenv("NCFN_AUDIT", saved_->c_str(), 1);
    } else {
      unsetenv("NCFN_AUDIT");
    }
  }
  ScopedAuditEnv(const ScopedAuditEnv&) = delete;
  ScopedAuditEnv& operator=(const ScopedAuditEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(Batch, FillToCapacityAndClearReturnsEveryRow) {
  auto pool = coding::PacketPool::make();
  coding::PacketBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.room(), coding::kBatchCapacity);
  for (std::size_t i = 0; i < coding::kBatchCapacity; ++i) {
    auto& pkt = batch.emplace(4, 64, pool);
    pkt.generation = static_cast<coding::GenerationId>(i);
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.room(), 0u);
  EXPECT_EQ(pool.stats().outstanding(), coding::kBatchCapacity);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(pool.stats().outstanding(), 0u);
}

TEST(Batch, EmplaceHandsOutZeroFilledRowsWithZeroMeta) {
  auto pool = coding::PacketPool::make();
  coding::PacketBatch batch;
  auto& first = batch.emplace(4, 16, pool);
  for (std::uint8_t b : first.payload()) EXPECT_EQ(b, 0);
  batch.meta(0) = 0xFF;
  batch.clear();
  // Recycled slot: the metadata byte must not survive the previous use.
  batch.emplace(4, 16, pool);
  EXPECT_EQ(batch.meta(0), 0);
}

TEST(Batch, DropFrontPreservesOrderMetaAndReturnsRows) {
  auto pool = coding::PacketPool::make();
  coding::PacketBatch batch;
  for (std::size_t i = 0; i < 8; ++i) {
    auto& pkt = batch.emplace(4, 32, pool);
    pkt.generation = static_cast<coding::GenerationId>(i);
    batch.meta(i) = static_cast<std::uint8_t>(i);
  }
  const auto before = pool.stats().outstanding();
  batch.drop_front(3);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].generation, i + 3);
    EXPECT_EQ(batch.meta(i), i + 3);
  }
  // The three flushed rows went straight back to the pool.
  EXPECT_EQ(pool.stats().outstanding(), before - 3);
  batch.drop_front(batch.size());
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(pool.stats().outstanding(), 0u);
}

TEST(Batch, PartiallyFilledBatchTeardownReturnsRows) {
  auto pool = coding::PacketPool::make();
  {
    coding::PacketBatch batch;
    for (std::size_t i = 0; i < 5; ++i) batch.emplace(4, 64, pool);
    EXPECT_EQ(pool.stats().outstanding(), 5u);
    // Destroyed while partially filled: the destructor owns the rows.
  }
  EXPECT_EQ(pool.stats().outstanding(), 0u);
}

TEST(Batch, PartialBatchPassesAuditedTeardown) {
  ScopedAuditEnv on("1");
  const auto b = app::scenarios::butterfly(false);
  app::SimNet sim(b.topo);
  auto& vnf = sim.vnf_at(b.o1, vnf::VnfConfig{});
  {
    coding::PacketBatch batch;
    for (std::size_t i = 0; i < 7; ++i) {
      batch.emplace(4, 64, vnf.buffer().pool());
    }
  }
  // SimNet destructor runs the PacketPool conservation audit here; a
  // leaked row from the partially-filled batch would abort the test.
}

/// Rows drawn from a fresh `seed` engine, g coefficient bytes at a time,
/// before the first whose weights on `cols` are all zero: a batched draw
/// redraws that row after all k fills, where k single draws redraw it
/// before the next row's fill, so the two streams part there.
std::size_t rows_before_redraw(std::uint32_t seed, std::size_t g,
                               std::size_t k,
                               const std::vector<std::size_t>& cols) {
  std::mt19937 probe(seed);
  std::vector<std::uint8_t> w(g);
  for (std::size_t j = 0; j < k; ++j) {
    coding::detail::fill_random_bytes(w, probe);
    if (std::none_of(cols.begin(), cols.end(),
                     [&](std::size_t c) { return w[c] != 0; })) {
      return j;
    }
  }
  return k;
}

/// Draw-order cases: g with a fill that ends mid word (3, 5) and one
/// that does not (32), each with a rank-1 pivot and a spread-out partial
/// pivot set.
struct DrawCase {
  std::size_t g;
  std::vector<std::size_t> rank1;
  std::vector<std::size_t> spread;
};
const std::vector<DrawCase>& draw_cases() {
  static const std::vector<DrawCase> cases = {
      {3, {1}, {0, 2}},
      {5, {2}, {1, 3, 4}},
      {32, {5}, {1, 3, 4, 9, 17, 22, 30}}};
  return cases;
}

TEST(Batch, RecodeBatchMatchesSequentialDrawOrder) {
  // The k rows of one batched draw are k sequential per-packet fills
  // (rng_fill.hpp slices whole words, so row-by-row fills read the
  // same bytes at every g), so a batched recoder is a drop-in for a
  // per-packet one under the same seed — at every batch width, and at
  // rank 1, at a partial rank with spread-out pivot columns and at full
  // rank. The one documented exception: a row whose weights on the
  // present pivots are all zero is redrawn after all k fills, so the two
  // streams part from the first such row on; the test replays the fill
  // to find it.
  for (const DrawCase& dc : draw_cases()) {
    coding::CodingParams p;
    p.generation_blocks = dc.g;
    p.block_size = 128;
    const std::size_t g = p.generation_blocks;
    const auto data = random_bytes(p.generation_bytes(), 21);
    coding::Generation gen(0, data, p);
    auto pool = coding::PacketPool::make();
    std::mt19937 enc_rng(22);
    coding::Encoder enc(1, gen, enc_rng, pool);

    std::vector<std::size_t> all(g);
    for (std::size_t c = 0; c < g; ++c) all[c] = c;
    for (const auto& pivots : {dc.rank1, dc.spread, all}) {
      // Row i: zero before its pivot column, a nonzero lead there, dense
      // after; arriving in column order, each installs its own pivot.
      coding::Decoder relay(1, 0, p, pool);
      for (const std::size_t lead : pivots) {
        std::vector<std::uint8_t> coeffs(g, 0);
        coeffs[lead] = static_cast<std::uint8_t>(1 + enc_rng() % 255);
        for (std::size_t c = lead + 1; c < g; ++c) {
          coeffs[c] = static_cast<std::uint8_t>(enc_rng());
        }
        ASSERT_TRUE(relay.add(enc.encode_with(coeffs)));
      }
      ASSERT_EQ(relay.rank(), pivots.size());
      for (const std::size_t k : {1, 2, 5, 8, 32}) {
        const auto seed = static_cast<std::uint32_t>(7 + k + pivots.size());
        const std::size_t same = rows_before_redraw(seed, g, k, pivots);
        std::mt19937 rng_a(seed);
        std::mt19937 rng_b(seed);
        coding::PacketBatch batch;
        relay.recode_batch(rng_a, k, batch);
        ASSERT_EQ(batch.size(), k);
        for (std::size_t j = 0; j < same; ++j) {
          EXPECT_EQ(batch[j].serialize(), relay.recode(rng_b).serialize())
              << "g=" << g << " rank " << pivots.size() << " k=" << k
              << " packet " << j;
        }
      }
    }
  }
}

TEST(Batch, EncodeRandomBatchMatchesSequentialDrawOrder) {
  // As for recode_batch, with every column in the redraw test.
  for (const DrawCase& dc : draw_cases()) {
    coding::CodingParams p;
    p.generation_blocks = dc.g;
    p.block_size = 128;
    const std::size_t g = p.generation_blocks;
    const auto data = random_bytes(p.generation_bytes(), 23);
    coding::Generation gen(0, data, p);
    std::vector<std::size_t> all(g);
    for (std::size_t c = 0; c < g; ++c) all[c] = c;
    auto pool = coding::PacketPool::make();
    for (const std::size_t k : {1, 5, 8, 32}) {
      const auto seed = static_cast<std::uint32_t>(9 + k);
      const std::size_t same = rows_before_redraw(seed, g, k, all);
      std::mt19937 rng_a(seed);
      std::mt19937 rng_b(seed);
      coding::Encoder batched(1, gen, rng_a, pool);
      coding::Encoder sequential(1, gen, rng_b, pool);
      coding::PacketBatch batch;
      batched.encode_random_batch(k, batch);
      ASSERT_EQ(batch.size(), k);
      for (std::size_t j = 0; j < same; ++j) {
        EXPECT_EQ(batch[j].serialize(),
                  sequential.encode_random().serialize())
            << "g=" << g << " k=" << k << " packet " << j;
      }
    }
  }
}

TEST(Batch, SystematicRowsInterleavedWithCodedOnesDecode) {
  // Unit rows take add()'s one elimination path like any other arrival:
  // a unit row on a free column installs as it is, and one on an
  // occupied column, or in the span already held, is not innovative.
  coding::CodingParams p;
  p.generation_blocks = 8;
  p.block_size = 64;
  const auto data = random_bytes(p.generation_bytes(), 31);
  coding::Generation gen(0, data, p);
  auto pool = coding::PacketPool::make();
  std::mt19937 rng(32);
  coding::Encoder enc(1, gen, rng, pool);

  // Interleave systematic rows (some repeated) with random ones.
  std::vector<coding::CodedPacket> feed;
  feed.push_back(enc.encode_systematic(3));
  feed.push_back(enc.encode_random());
  feed.push_back(enc.encode_systematic(0));
  feed.push_back(enc.encode_systematic(3));  // duplicate: not innovative
  for (std::size_t i = 0; i < p.generation_blocks; ++i) {
    feed.push_back(enc.encode_systematic(i));
  }
  feed.push_back(enc.encode_random());

  // After e3, r, e0 and e1, e2, e4, e5, the dense row r leaves e6 outside
  // the span, so e6 completes the generation; the repeats, e7 and the
  // last random row are not innovative.
  const std::vector<bool> expected = {true,  true,  true, false, false,
                                      true,  true,  false, true, true,
                                      true,  false, false};
  ASSERT_EQ(feed.size(), expected.size());
  coding::Decoder dec(1, 0, p, pool);
  for (std::size_t i = 0; i < feed.size(); ++i) {
    EXPECT_EQ(dec.add(feed[i]), expected[i]) << "packet " << i;
  }
  ASSERT_TRUE(dec.complete());
  std::vector<std::uint8_t> recovered;
  for (const auto& blk : dec.recover()) {
    recovered.insert(recovered.end(), blk.begin(), blk.end());
  }
  EXPECT_EQ(recovered, data);
}

// ---------------------------------------------------------------------
// Batched-vs-unbatched butterfly differential.

ctrl::SessionSpec butterfly_session(const app::scenarios::Butterfly& b) {
  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = b.source;
  spec.receivers = {b.recv_o2, b.recv_c2};
  spec.lmax_s = 0.150;
  return spec;
}

/// Run the NC butterfly with the given lane batch size; returns each
/// receiver's ordered decoded byte stream.
std::vector<std::vector<std::uint8_t>> run_butterfly_payloads(
    std::size_t max_batch, double duration) {
  const auto b = app::scenarios::butterfly(false);
  ctrl::DeploymentProblem prob;
  prob.topo = &b.topo;
  prob.alpha = 0.0;
  prob.sessions.push_back(butterfly_session(b));
  const auto plan = ctrl::solve_deployment(prob);
  EXPECT_TRUE(plan.feasible);

  coding::CodingParams params;
  app::SyntheticProvider provider(
      7, static_cast<std::size_t>(80e6 / 8 * (duration + 4)), params);
  app::SimNet sim(b.topo);
  app::SessionWiring wiring;
  wiring.vnf.params = params;
  wiring.vnf.max_batch = max_batch;
  wiring.repair_timeout_s = 0.3;
  app::NcMulticastSession session(sim, plan, 0, butterfly_session(b),
                                  provider, wiring);
  std::vector<std::vector<std::uint8_t>> streams(session.receiver_count());
  for (std::size_t k = 0; k < session.receiver_count(); ++k) {
    session.receiver(k).set_verify(&provider);
    session.receiver(k).set_ordered_sink(
        [&streams, k](coding::GenerationId,
                      std::vector<std::uint8_t> payload) {
          streams[k].insert(streams[k].end(), payload.begin(), payload.end());
        });
  }
  session.start();
  sim.net().sim().run_until(duration);
  for (std::size_t k = 0; k < session.receiver_count(); ++k) {
    EXPECT_EQ(session.receiver(k).stats().verify_failures, 0u);
    EXPECT_GT(streams[k].size(), 0u);
  }
  return streams;
}

TEST(Batch, BatchedAndUnbatchedButterflyDecodeIdenticalPayloads) {
  const double duration = 2.0;
  const auto per_packet = run_butterfly_payloads(1, duration);
  const auto batched =
      run_butterfly_payloads(coding::kBatchCapacity, duration);
  ASSERT_EQ(per_packet.size(), batched.size());
  for (std::size_t k = 0; k < per_packet.size(); ++k) {
    // Identical content: whichever run decoded further by the cutoff,
    // the shorter stream must be a byte-exact prefix of the longer one
    // (both verified against the provider), and the coverage gap stays
    // under one generation — batching reorders event timestamps at the
    // margin but never the decoded bytes.
    const auto& a = per_packet[k];
    const auto& c = batched[k];
    const std::size_t n = std::min(a.size(), c.size());
    coding::CodingParams params;
    EXPECT_LE(std::max(a.size(), c.size()) - n, params.generation_bytes())
        << "receiver " << k;
    EXPECT_TRUE(std::equal(a.begin(), a.begin() + n, c.begin()))
        << "receiver " << k << " diverged within the common prefix";
  }
}

}  // namespace
}  // namespace ncfn
