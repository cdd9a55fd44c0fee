// Tests for the packet buffer pool: recycle-reuse correctness (no stale
// bytes across reuse), the exhaustion growth path, fully-pooled codec
// round trips, and the zero-allocation steady state the data plane
// promises (pool.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <type_traits>
#include <vector>

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "coding/packet.hpp"
#include "coding/pool.hpp"

using namespace ncfn::coding;

TEST(PacketPool, ReusedBufferIsZeroFilledNotStale) {
  auto pool = PacketPool::make();
  {
    PooledBuf b = pool.acquire(256);
    std::fill(b.span().begin(), b.span().end(), 0xFF);
  }  // released with poisoned contents
  EXPECT_EQ(pool.stats().free_buffers, 1u);

  PooledBuf again = pool.acquire(256);
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_TRUE(std::all_of(again.span().begin(), again.span().end(),
                          [](std::uint8_t x) { return x == 0; }));

  // A smaller acquire must also reuse the larger recycled buffer and
  // present exactly the requested (zeroed) size.
  again.reset();
  PooledBuf smaller = pool.acquire(100);
  EXPECT_EQ(smaller.size(), 100u);
  EXPECT_EQ(pool.stats().reuses, 2u);
  EXPECT_TRUE(std::all_of(smaller.span().begin(), smaller.span().end(),
                          [](std::uint8_t x) { return x == 0; }));
}

TEST(PacketPool, ExhaustionGrowsInsteadOfFailing) {
  auto pool = PacketPool::make();
  std::vector<PooledBuf> live;
  for (int i = 0; i < 64; ++i) live.push_back(pool.acquire(128));
  // All buffers are live at once: every acquire had to hit the heap.
  EXPECT_EQ(pool.stats().acquires, 64u);
  EXPECT_EQ(pool.stats().heap_allocs, 64u);
  EXPECT_EQ(pool.stats().outstanding(), 64u);
  for (auto& b : live) {
    ASSERT_EQ(b.size(), 128u);
    b.span()[0] = 1;  // every buffer is distinct, writable storage
  }
  live.clear();
  EXPECT_EQ(pool.stats().outstanding(), 0u);
  EXPECT_EQ(pool.stats().free_buffers, 64u);
  // The next burst is served entirely from the freelist.
  for (int i = 0; i < 64; ++i) live.push_back(pool.acquire(128));
  EXPECT_EQ(pool.stats().heap_allocs, 64u);
  EXPECT_EQ(pool.stats().reuses, 64u);
}

TEST(PacketPool, BoundedFreelistDropsOverflow) {
  auto pool = PacketPool::make(/*max_free=*/2);
  std::vector<PooledBuf> live;
  for (int i = 0; i < 5; ++i) live.push_back(pool.acquire(64));
  live.clear();
  EXPECT_EQ(pool.stats().free_buffers, 2u);
  EXPECT_EQ(pool.stats().dropped, 3u);
}

// A pooled row has one owner, which gives it back to the pool once: a
// packet moves, and a copy does not compile.
static_assert(!std::is_copy_constructible_v<CodedPacket>);
static_assert(std::is_nothrow_move_constructible_v<CodedPacket>);

TEST(PacketPool, DecoderRoundTripOnPooledBuffers) {
  CodingParams p;
  p.block_size = 64;
  p.generation_blocks = 8;
  auto pool = PacketPool::make();
  std::mt19937 rng(123);
  std::vector<std::uint8_t> data(p.generation_bytes());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  Generation gen(0, data, p);
  Encoder enc(1, gen, rng, pool);
  Decoder dec(1, 0, p, pool);
  int guard = 0;
  while (!dec.complete()) {
    ASSERT_LT(guard++, 40);
    dec.add(enc.encode_random());
  }
  const auto blocks = dec.recover();
  ASSERT_EQ(blocks.size(), p.generation_blocks);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(
        blocks[i], std::span<const std::uint8_t>(gen.block(i))))
        << "block " << i;
  }
}

TEST(PacketPool, SteadyStateEncodeRecodePathDoesNotAllocate) {
  CodingParams p;  // wire defaults: 1460-byte blocks, 4 per generation
  auto pool = PacketPool::make();
  std::mt19937 rng(7);
  std::vector<std::uint8_t> data(p.generation_bytes());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  Generation gen(0, data, p);
  Encoder enc(1, gen, rng, pool);

  auto one_round = [&](Decoder& dec) {
    for (std::size_t i = 0; i < p.generation_blocks + 2; ++i) {
      dec.add(enc.encode_random());
    }
    for (int i = 0; i < 8; ++i) {
      CodedPacket out = dec.recode(rng);
      ASSERT_EQ(out.payload_size(), p.block_size);
    }
  };

  // Warmup: one full decode + recode round sizes the freelist.
  {
    Decoder dec(1, 0, p, pool);
    one_round(dec);
  }
  const auto warm = pool.stats();

  // Steady state: many more rounds must be served purely from the
  // freelist — the heap-allocation counter stays flat.
  for (int round = 0; round < 20; ++round) {
    Decoder dec(1, 0, p, pool);
    one_round(dec);
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.heap_allocs, warm.heap_allocs)
      << "steady-state encode/add/recode touched the heap";
  EXPECT_GT(after.reuses, warm.reuses);
  EXPECT_EQ(after.outstanding(), 0u);
}

TEST(PacketPool, NullPoolStillWorks) {
  PacketPool none;  // null handle: plain heap buffers
  EXPECT_FALSE(static_cast<bool>(none));
  PooledBuf b = none.acquire(64);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_TRUE(std::all_of(b.span().begin(), b.span().end(),
                          [](std::uint8_t x) { return x == 0; }));
  EXPECT_EQ(none.stats().acquires, 0u);  // null pool keeps no stats
}
