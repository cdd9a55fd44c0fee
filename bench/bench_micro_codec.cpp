// Codec microbenchmarks (google-benchmark): the GF(2^8) bulk kernels and
// the encoder/recoder/decoder at several generation sizes. These numbers
// calibrate the VNF processing model (VnfConfig::proc_rate_Bps) that
// drives the Fig. 4 generation-size collapse.
//
// Kernel benchmarks run once per supported ISA tier (scalar / AVX2 /
// GFNI, forced through gf::simd::force_tier), so the dispatch win and the
// fused-x4 win are visible in one report; the second argument of each
// kernel row is the gf::simd::Tier value (0 scalar, 2 avx2, 3 gfni).
// Codec benchmarks run on the dispatched (best) tier with a live
// PacketPool — the steady state they measure allocates nothing per
// packet. tools/bench_all.sh runs this binary and writes
// BENCH_micro_codec.json.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "coding/batch.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "coding/pool.hpp"
#include "gf/gf256.hpp"
#include "gf/gf256_simd.hpp"

namespace {

using namespace ncfn;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(d(rng));
  return out;
}

/// Forces the tier named by the benchmark's second arg (a Tier value)
/// for the benchmark's lifetime and labels the row with it; skips when
/// the host lacks it.
class TierGuard {
 public:
  explicit TierGuard(benchmark::State& state)
      : tier_(static_cast<gf::simd::Tier>(state.range(1))) {
    if (!gf::simd::force_tier(tier_)) {
      state.SkipWithError(
          (std::string(gf::simd::tier_name(tier_)) + " unsupported").c_str());
      ok_ = false;
    }
    state.SetLabel(gf::simd::tier_name(tier_));
  }
  ~TierGuard() { gf::simd::reset_tier(); }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  gf::simd::Tier tier_;
  bool ok_ = true;
};

/// Row sizes x tiers (scalar, avx2, gfni) for the kernel benchmarks.
const std::vector<std::vector<std::int64_t>> kKernelArgs = {{1460, 65536},
                                                            {0, 2, 3}};

void BM_GfBulkXor(benchmark::State& state) {
  TierGuard tier(state);
  if (!tier.ok()) return;
  auto a = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    gf::bulk_xor(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GfBulkXor)->ArgsProduct(kKernelArgs);

void BM_GfBulkMulAdd(benchmark::State& state) {
  TierGuard tier(state);
  if (!tier.ok()) return;
  auto a = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  const auto b = random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    gf::bulk_muladd(a, b, 0x8E);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GfBulkMulAdd)->ArgsProduct(kKernelArgs);

void BM_GfBulkMulAddX4(benchmark::State& state) {
  // Four source rows fused into one pass over dst; bytes processed counts
  // all four rows, so GB/s compares directly against 4x BM_GfBulkMulAdd.
  TierGuard tier(state);
  if (!tier.ok()) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(n, 5);
  const auto r0 = random_bytes(n, 6), r1 = random_bytes(n, 7),
             r2 = random_bytes(n, 8), r3 = random_bytes(n, 9);
  const std::uint8_t* src[4] = {r0.data(), r1.data(), r2.data(), r3.data()};
  const std::uint8_t c4[4] = {0x8E, 0x35, 0xD1, 0x02};
  for (auto _ : state) {
    gf::bulk_muladd_x4(dst, src, c4);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_GfBulkMulAddX4)->ArgsProduct(kKernelArgs);

void BM_EncodeGeneration(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  coding::CodingParams p;
  p.generation_blocks = g;
  const auto data = random_bytes(p.generation_bytes(), 5);
  coding::Generation gen(0, data, p);
  std::mt19937 rng(6);
  auto pool = coding::PacketPool::make();
  coding::Encoder enc(1, gen, rng, pool);
  for (auto _ : state) {
    auto pkt = enc.encode_random();
    benchmark::DoNotOptimize(pkt.payload().data());
  }
  // Payload bytes produced per encoded packet.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.block_size));
  state.counters["pool_heap_allocs"] =
      static_cast<double>(pool.stats().heap_allocs);
}
BENCHMARK(BM_EncodeGeneration)
    ->Arg(2)->Arg(4)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_DecodeGeneration(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  coding::CodingParams p;
  p.generation_blocks = g;
  const auto data = random_bytes(p.generation_bytes(), 7);
  coding::Generation gen(0, data, p);
  std::mt19937 rng(8);
  auto pool = coding::PacketPool::make();
  coding::Encoder enc(1, gen, rng, pool);
  // Pre-encode enough packets outside the timed loop.
  std::vector<coding::CodedPacket> pkts;
  for (std::size_t i = 0; i < g + 8; ++i) pkts.push_back(enc.encode_random());
  for (auto _ : state) {
    coding::Decoder dec(1, 0, p, pool);
    std::size_t i = 0;
    while (!dec.complete() && i < pkts.size()) dec.add(pkts[i++]);
    auto blocks = dec.recover();
    benchmark::DoNotOptimize(blocks.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.generation_bytes()));
}
BENCHMARK(BM_DecodeGeneration)->Arg(2)->Arg(4)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_Recode(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  coding::CodingParams p;
  p.generation_blocks = g;
  const auto data = random_bytes(p.generation_bytes(), 9);
  coding::Generation gen(0, data, p);
  std::mt19937 rng(10);
  auto pool = coding::PacketPool::make();
  coding::Encoder enc(1, gen, rng, pool);
  coding::Decoder relay(1, 0, p, pool);
  for (std::size_t i = 0; i < g; ++i) relay.add(enc.encode_random());
  for (auto _ : state) {
    auto pkt = relay.recode(rng);
    benchmark::DoNotOptimize(pkt.payload().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.block_size));
}
BENCHMARK(BM_Recode)->Arg(2)->Arg(4)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_RecodeBatch(benchmark::State& state) {
  // One recode_batch of a full batch (kBatchCapacity rows) from a
  // full-rank relay: the relay's per-batch recode in the VNF emit stage.
  const auto g = static_cast<std::size_t>(state.range(0));
  coding::CodingParams p;
  p.generation_blocks = g;
  const auto data = random_bytes(p.generation_bytes(), 12);
  coding::Generation gen(0, data, p);
  std::mt19937 rng(13);
  auto pool = coding::PacketPool::make();
  coding::Encoder enc(1, gen, rng, pool);
  coding::Decoder relay(1, 0, p, pool);
  while (!relay.complete()) relay.add(enc.encode_random());
  coding::PacketBatch batch;
  for (auto _ : state) {
    relay.recode_batch(rng, coding::kBatchCapacity, batch);
    benchmark::DoNotOptimize(batch[0].payload().data());
    benchmark::ClobberMemory();
    batch.clear();
  }
  // Payload bytes produced per batch.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(coding::kBatchCapacity *
                                                    p.block_size));
}
BENCHMARK(BM_RecodeBatch)->Arg(16)->Arg(32)->Arg(128);

void BM_HeaderSerializeParse(benchmark::State& state) {
  coding::CodingParams p;
  auto pool = coding::PacketPool::make();
  const std::vector<std::uint8_t> coeffs{1, 2, 3, 4};
  const auto pkt =
      coding::CodedPacket::make(1, 42, coeffs, random_bytes(p.block_size, 11),
                                pool);
  std::vector<std::uint8_t> wire;
  for (auto _ : state) {
    pkt.serialize_into(wire);
    auto back = coding::CodedPacket::parse(wire, p, pool);
    benchmark::DoNotOptimize(back->payload().data());
  }
}
BENCHMARK(BM_HeaderSerializeParse);

}  // namespace
