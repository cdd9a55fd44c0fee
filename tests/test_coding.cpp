// Unit tests for the RLNC codec: header wire format, generation
// padding, encode/decode round trips, relay recoding, and the FIFO
// generation buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "coding/batch.hpp"
#include "coding/buffer.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "coding/generic_codec.hpp"
#include "coding/packet.hpp"
#include "golden_file.hpp"

using namespace ncfn;
using namespace ncfn::coding;

namespace {
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(d(rng));
  return out;
}
}  // namespace

TEST(CodingParams, SizesMatchThePaper) {
  CodingParams p;  // defaults: 1460-byte blocks, 4 per generation
  EXPECT_EQ(p.block_size, 1460u);
  EXPECT_EQ(p.generation_blocks, 4u);
  EXPECT_EQ(p.header_bytes(), 12u);  // 8 B ids + 4 coefficients
  // NC packet + UDP (8) + IP (20) must equal the 1500-byte MTU.
  EXPECT_EQ(p.packet_bytes() + 8 + 20, 1500u);
  EXPECT_EQ(p.buffer_generations, 1024u);
}

TEST(Packet, SerializeParseRoundTrip) {
  CodingParams p;
  const std::vector<std::uint8_t> coeffs{1, 2, 3, 4};
  const auto payload = random_bytes(p.block_size, 7);
  const auto pkt = CodedPacket::make(0xDEADBEEF, 42, coeffs, payload);
  const auto wire = pkt.serialize();
  EXPECT_EQ(wire.size(), p.packet_bytes());
  const auto back = CodedPacket::parse(wire, p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->session, pkt.session);
  EXPECT_EQ(back->generation, pkt.generation);
  EXPECT_TRUE(std::ranges::equal(back->coeffs(), coeffs));
  EXPECT_TRUE(std::ranges::equal(back->payload(), payload));
}

TEST(Packet, SerializeIntoReusesCallerStorage) {
  CodingParams p;
  const std::vector<std::uint8_t> coeffs{9, 0, 0, 1};
  const auto payload = random_bytes(p.block_size, 8);
  const auto pkt = CodedPacket::make(5, 6, coeffs, payload);
  std::vector<std::uint8_t> wire;
  wire.reserve(p.packet_bytes());
  const auto* data_before = wire.data();
  pkt.serialize_into(wire);
  EXPECT_EQ(wire.data(), data_before);  // capacity was enough: no realloc
  EXPECT_EQ(wire, pkt.serialize());
}

TEST(Packet, ParseRejectsWrongSize) {
  CodingParams p;
  std::vector<std::uint8_t> wire(p.packet_bytes() - 1, 0);
  EXPECT_FALSE(CodedPacket::parse(wire, p).has_value());
  wire.resize(p.packet_bytes() + 3, 0);
  EXPECT_FALSE(CodedPacket::parse(wire, p).has_value());
}

TEST(Generation, PadsTailBlock) {
  CodingParams p;
  p.block_size = 10;
  p.generation_blocks = 3;
  const auto data = random_bytes(17, 3);
  Generation gen(5, data, p);
  EXPECT_EQ(gen.id(), 5u);
  EXPECT_EQ(gen.block_count(), 3u);
  EXPECT_EQ(gen.payload_bytes(), 17u);
  // Block 1 is half data, half zero padding; block 2 all padding.
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(gen.block(0)[i], data[i]);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(gen.block(1)[i], data[10 + i]);
  for (std::size_t i = 7; i < 10; ++i) EXPECT_EQ(gen.block(1)[i], 0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(gen.block(2)[i], 0);
}

class RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTrip, RandomCodedPacketsDecode) {
  const std::size_t g = GetParam();
  CodingParams p;
  p.block_size = 64;
  p.generation_blocks = g;
  std::mt19937 rng(17);
  const auto data = random_bytes(p.generation_bytes(), 23);
  Generation gen(0, data, p);
  Encoder enc(9, gen, rng);
  Decoder dec(9, 0, p);

  std::size_t fed = 0;
  while (!dec.complete()) {
    dec.add(enc.encode_random());
    ++fed;
    ASSERT_LE(fed, g + 20) << "decoder is not converging";
  }
  EXPECT_EQ(dec.rank(), g);
  const auto blocks = dec.recover();
  ASSERT_EQ(blocks.size(), g);
  for (std::size_t i = 0; i < g; ++i) {
    EXPECT_EQ(std::vector<std::uint8_t>(gen.block(i).begin(),
                                        gen.block(i).end()),
              blocks[i])
        << "block " << i;
  }
}

// recover() back-substitutes four earlier blocks per fused pass, skips
// zero coefficients and finishes a group of fewer than four row by row.
// Systematic arrivals leave only zeros above the diagonal and sparse coded
// ones leave gaps inside groups (RandomCodedPacketsDecode fills them);
// the generation sizes around multiples of four cover every remainder.
TEST_P(RoundTrip, SystematicAndSparseArrivalsDecode) {
  const std::size_t g = GetParam();
  CodingParams p;
  p.block_size = 100;  // not a multiple of either vector kernel stride
  p.generation_blocks = g;
  const auto data = random_bytes(p.generation_bytes(), 29);
  Generation gen(0, data, p);
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "systematic");
    std::mt19937 rng(31 + static_cast<std::uint32_t>(g));
    Encoder enc(9, gen, rng);
    Decoder dec(9, 0, p);
    std::vector<std::size_t> order(g);
    for (std::size_t i = 0; i < g; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      if (!sparse || i % 3 == 0) dec.add(enc.encode_systematic(i));
    }
    std::vector<std::uint8_t> coeffs(g);
    std::size_t fed = 0;
    while (!dec.complete()) {
      ASSERT_LE(fed++, g + 20) << "decoder is not converging";
      for (auto& c : coeffs) {
        c = rng() % 2 == 0 ? 0 : static_cast<std::uint8_t>(1 + rng() % 255);
      }
      dec.add(enc.encode_with(coeffs));
    }
    const auto blocks = dec.recover();
    ASSERT_EQ(blocks.size(), g);
    for (std::size_t i = 0; i < g; ++i) {
      EXPECT_EQ(std::vector<std::uint8_t>(gen.block(i).begin(),
                                          gen.block(i).end()),
                blocks[i])
          << "block " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GenerationSizes, RoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 31, 32,
                                           33, 64));

TEST(Decoder, SystematicPacketsDecodeWithExactlyG) {
  CodingParams p;
  p.block_size = 32;
  p.generation_blocks = 6;
  std::mt19937 rng(19);
  const auto data = random_bytes(p.generation_bytes(), 29);
  Generation gen(1, data, p);
  Encoder enc(2, gen, rng);
  Decoder dec(2, 1, p);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(dec.add(enc.encode_systematic(i)));
  }
  EXPECT_TRUE(dec.complete());
}

TEST(Decoder, DuplicatePacketIsNotInnovative) {
  CodingParams p;
  p.block_size = 16;
  p.generation_blocks = 4;
  std::mt19937 rng(31);
  const auto data = random_bytes(p.generation_bytes(), 37);
  Generation gen(0, data, p);
  Encoder enc(1, gen, rng);
  Decoder dec(1, 0, p);
  const auto pkt = enc.encode_random();
  EXPECT_TRUE(dec.add(pkt));
  EXPECT_FALSE(dec.add(pkt));
  EXPECT_EQ(dec.rank(), 1u);
  EXPECT_EQ(dec.packets_seen(), 2u);
}

TEST(Decoder, LinearCombinationOfReceivedIsNotInnovative) {
  CodingParams p;
  p.block_size = 16;
  p.generation_blocks = 4;
  std::mt19937 rng(41);
  const auto data = random_bytes(p.generation_bytes(), 43);
  Generation gen(0, data, p);
  Encoder enc(1, gen, rng);
  Decoder dec(1, 0, p);
  const auto a = enc.encode_with(std::vector<std::uint8_t>{1, 2, 0, 0});
  const auto b = enc.encode_with(std::vector<std::uint8_t>{0, 0, 3, 1});
  ASSERT_TRUE(dec.add(a));
  ASSERT_TRUE(dec.add(b));
  // a + b is in the span.
  const auto c = enc.encode_with(std::vector<std::uint8_t>{1, 2, 3, 1});
  EXPECT_FALSE(dec.add(c));
}

TEST(Decoder, RecodedPacketsFromRelayChainDecode) {
  // source -> relay1 -> relay2 -> destination, all via recode().
  CodingParams p;
  p.block_size = 128;
  p.generation_blocks = 4;
  std::mt19937 rng(53);
  const auto data = random_bytes(p.generation_bytes(), 59);
  Generation gen(7, data, p);
  Encoder enc(3, gen, rng);
  Decoder relay1(3, 7, p), relay2(3, 7, p), dst(3, 7, p);

  int guard = 0;
  while (!dst.complete()) {
    ASSERT_LT(guard++, 200);
    relay1.add(enc.encode_random());
    if (relay1.rank() > 0) relay2.add(relay1.recode(rng));
    if (relay2.rank() > 0) dst.add(relay2.recode(rng));
  }
  const auto blocks = dst.recover();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::vector<std::uint8_t>(gen.block(i).begin(),
                                        gen.block(i).end()),
              blocks[i]);
  }
}

TEST(Decoder, RecodeNeverLeavesRowSpace) {
  CodingParams p;
  p.block_size = 8;
  p.generation_blocks = 4;
  std::mt19937 rng(61);
  const auto data = random_bytes(p.generation_bytes(), 67);
  Generation gen(0, data, p);
  Encoder enc(1, gen, rng);
  Decoder partial(1, 0, p);
  partial.add(enc.encode_systematic(0));
  partial.add(enc.encode_systematic(1));
  ASSERT_EQ(partial.rank(), 2u);
  // Recoded packets from a rank-2 relay can never raise another rank-2
  // decoder that holds the same subspace to rank 3.
  Decoder other(1, 0, p);
  other.add(enc.encode_systematic(0));
  other.add(enc.encode_systematic(1));
  for (int i = 0; i < 50; ++i) {
    other.add(partial.recode(rng));
  }
  EXPECT_EQ(other.rank(), 2u);
}

namespace {
/// Complete `dec` with every systematic packet of a random generation.
void fill_systematic(Decoder& dec, const CodingParams& p) {
  std::mt19937 rng(73);
  const auto data = random_bytes(p.generation_bytes(), 79);
  Generation gen(dec.generation(), data, p);
  Encoder enc(dec.session(), gen, rng);
  for (std::size_t i = 0; i < p.generation_blocks; ++i) {
    dec.add(enc.encode_systematic(i));
  }
}
}  // namespace

TEST(Decoder, ReleaseReturnsRowsAndKeepsTheTombstone) {
  CodingParams p;
  p.block_size = 48;
  p.generation_blocks = 5;
  const PacketPool pool = PacketPool::make();
  Decoder dec(1, 0, p, pool);
  std::mt19937 rng(83);
  const auto data = random_bytes(p.generation_bytes(), 89);
  Generation gen(0, data, p);
  Encoder enc(1, gen, rng);
  std::vector<CodedPacket> sent;
  while (!dec.complete()) {
    sent.push_back(enc.encode_random());
    dec.add(sent.back());
  }
  EXPECT_EQ(pool.stats().outstanding(), p.generation_blocks);
  const std::size_t seen = dec.packets_seen();

  dec.release();
  EXPECT_TRUE(dec.released());
  EXPECT_EQ(pool.stats().outstanding(), 0u);
  EXPECT_EQ(dec.rank(), p.generation_blocks);
  EXPECT_TRUE(dec.complete());
  EXPECT_EQ(dec.packets_seen(), seen);
  for (std::size_t c = 0; c < p.generation_blocks; ++c) {
    EXPECT_TRUE(dec.has_pivot(c)) << c;
  }
  // A late duplicate is counted and is not innovative.
  EXPECT_FALSE(dec.add(sent.front()));
  EXPECT_EQ(dec.packets_seen(), seen + 1);
  EXPECT_EQ(dec.rank(), p.generation_blocks);
  EXPECT_EQ(pool.stats().outstanding(), 0u);
}

TEST(DecoderDeathTest, ReleasedDecoderRefusesToRecodeOrRecover) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CodingParams p;
  p.block_size = 16;
  p.generation_blocks = 4;
  Decoder dec(1, 0, p);
  fill_systematic(dec, p);
  dec.release();
  std::mt19937 rng(97);
  EXPECT_DEATH((void)dec.recover(), "Decoder::recover on released");
  EXPECT_DEATH((void)dec.recode(rng), "Decoder::recode on released");
  PacketBatch out;
  EXPECT_DEATH(dec.recode_batch(rng, 1, out),
               "Decoder::recode_batch on released");
}

TEST(DecoderDeathTest, RecodeAtRankZeroAborts) {
  // No weights on an empty pivot set can pass the draw's all-zero test:
  // the draw aborts, in every build type, instead of redrawing forever.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const std::size_t g : {std::size_t{1}, std::size_t{4}}) {
    CodingParams p;
    p.block_size = 16;
    p.generation_blocks = g;
    Decoder dec(1, 0, p);
    std::mt19937 rng(3);
    EXPECT_DEATH((void)dec.recode(rng), "recode at rank 0") << g;
    PacketBatch out;
    EXPECT_DEATH(dec.recode_batch(rng, 2, out), "recode at rank 0") << g;
  }
}

TEST(DecoderDeathTest, GenerationSizeOutsideTheBoundAborts) {
  // Checked in every build type: past kMaxGenerationBlocks the recode
  // and elimination paths would overrun their stack arrays, and at 0 a
  // recoder would redraw forever. No out-of-bound Generation can exist,
  // so an Encoder never sees one.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const std::size_t g : {std::size_t{0}, kMaxGenerationBlocks + 1,
                              std::size_t{300}}) {
    CodingParams p;
    p.block_size = 16;
    p.generation_blocks = g;
    EXPECT_DEATH(Decoder(1, 0, p), "Decoder: generation of [0-9]+ blocks "
                                   "outside \\[1, 256\\]")
        << g;
    EXPECT_DEATH(Generation(0, std::vector<std::uint8_t>(16 * g + 1, 7), p),
                 "Generation: generation of [0-9]+ blocks outside "
                 "\\[1, 256\\]")
        << g;
  }
  CodingParams p;
  p.block_size = 16;
  p.generation_blocks = kMaxGenerationBlocks;
  Decoder dec(1, 0, p);
  EXPECT_EQ(dec.block_count(), kMaxGenerationBlocks);
}

TEST(Buffer, CreatesAndFindsState) {
  CodingParams p;
  GenerationBuffer buf(p);
  EXPECT_EQ(buf.find(1, 0), nullptr);
  Decoder& d = buf.state(1, 0);
  EXPECT_EQ(&d, buf.find(1, 0));
  EXPECT_EQ(buf.generations_buffered(), 1u);
}

TEST(Buffer, FifoEvictionPerSession) {
  CodingParams p;
  p.buffer_generations = 3;
  GenerationBuffer buf(p);
  buf.state(1, 10);
  buf.state(1, 11);
  buf.state(1, 12);
  buf.state(2, 99);  // other session: independent budget
  EXPECT_EQ(buf.evictions(), 0u);
  buf.state(1, 13);  // evicts (1, 10)
  EXPECT_EQ(buf.evictions(), 1u);
  EXPECT_EQ(buf.find(1, 10), nullptr);
  EXPECT_NE(buf.find(1, 11), nullptr);
  EXPECT_NE(buf.find(2, 99), nullptr);
}

TEST(Buffer, EraseSessionDropsAllItsGenerations) {
  CodingParams p;
  GenerationBuffer buf(p);
  buf.state(1, 0);
  buf.state(1, 1);
  buf.state(2, 0);
  buf.erase_session(1);
  EXPECT_EQ(buf.find(1, 0), nullptr);
  EXPECT_EQ(buf.find(1, 1), nullptr);
  EXPECT_NE(buf.find(2, 0), nullptr);
  EXPECT_EQ(buf.generations_buffered(), 1u);
}

TEST(Buffer, EraseSingleGeneration) {
  CodingParams p;
  p.buffer_generations = 2;
  GenerationBuffer buf(p);
  buf.state(1, 0);
  buf.state(1, 1);
  buf.erase(1, 0);
  EXPECT_EQ(buf.find(1, 0), nullptr);
  buf.state(1, 2);  // fits without eviction now
  EXPECT_EQ(buf.evictions(), 0u);
}

TEST(Buffer, FifoCountsReleasedGenerations) {
  CodingParams p;
  p.block_size = 16;
  p.generation_blocks = 2;
  p.buffer_generations = 2;
  GenerationBuffer buf(p);
  Decoder& first = buf.state(1, 0);
  fill_systematic(first, p);
  first.release();
  buf.state(1, 1);
  EXPECT_EQ(buf.generations_buffered(), 2u);
  buf.state(1, 2);  // the tombstone is the oldest: it is what goes
  EXPECT_EQ(buf.evictions(), 1u);
  EXPECT_EQ(buf.find(1, 0), nullptr);
  EXPECT_NE(buf.find(1, 1), nullptr);
}

TEST(Buffer, EraseReleasedKeepsGenerationsStillDecoding) {
  CodingParams p;
  p.block_size = 16;
  p.generation_blocks = 2;
  GenerationBuffer buf(p);
  Decoder& done = buf.state(1, 0);
  fill_systematic(done, p);
  done.release();
  buf.state(1, 1);  // still decoding
  Decoder& other = buf.state(2, 0);  // another session's tombstone
  fill_systematic(other, p);
  other.release();
  buf.erase_released(1);
  EXPECT_EQ(buf.find(1, 0), nullptr);
  EXPECT_NE(buf.find(1, 1), nullptr);
  EXPECT_NE(buf.find(2, 0), nullptr);
  EXPECT_EQ(buf.generations_buffered(), 2u);
  buf.state(1, 2);
  EXPECT_EQ(buf.evictions(), 0u);
}

// ---- Generic (field-parameterized) codec ----

template <unsigned M>
void generic_roundtrip() {
  ncfn::gf::Field<M> field;
  using Elem = typename ncfn::gf::Field<M>::Elem;
  std::mt19937 rng(71);
  const std::size_t g = 4, elems = 64;
  std::vector<std::vector<Elem>> blocks(g);
  std::uniform_int_distribution<unsigned> d(0, ncfn::gf::Field<M>::kMax);
  for (auto& b : blocks) {
    b.resize(elems);
    for (auto& e : b) e = static_cast<Elem>(d(rng));
  }
  ncfn::coding::GenericEncoder<M> enc(field, blocks);
  ncfn::coding::GenericDecoder<M> dec(field, g, elems);
  int guard = 0;
  while (!dec.complete()) {
    ASSERT_LT(guard++, 100);
    dec.add(enc.encode_random(rng));
  }
  EXPECT_EQ(dec.recover(), blocks);
}

TEST(GenericCodec, RoundTripGf16) { generic_roundtrip<4>(); }
TEST(GenericCodec, RoundTripGf256) { generic_roundtrip<8>(); }
TEST(GenericCodec, RoundTripGf65536) { generic_roundtrip<16>(); }

// ---- Golden codec bytes ----
//
// Every byte the codec emits, pinned as one FNV-1a digest line per stage
// in tests/golden/codec_bytes.txt, for g in {4, 32, 128, 1, 3, 5} and
// blocks of 100 and 1460 bytes: the encoder's systematic and random
// packets, recode_batch at k in {1, 5, 32} from a relay at rank 1, at a
// partial rank with non-contiguous pivot columns (for g >= 2) and at full
// rank, and a sink fed those packets (its add() verdicts, its own recode
// and recover()). The relays and the sink reach their rows through
// add()'s general elimination, so the recode digests pin the eliminated
// rows byte for byte. g = 3 and 5 end each row's coefficient fill mid
// word, and at g = 1 one drawn row in 256 is all zero, so 1,024 more rows
// of each draw path pin the redraw. GF(2^8) arithmetic is exact and the
// draws are fixed: a kernel, elimination-order or batching change must
// leave every line alone.
// Regenerate only for an intended output change:
//   NCFN_UPDATE_GOLDEN=1 ./build/tests/test_coding

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(std::span<const std::uint8_t> b) {
    for (const std::uint8_t x : b) h = (h ^ x) * 0x100000001b3ULL;
  }
  void packet(const CodedPacket& p) { bytes(p.serialize()); }
  void batch(const PacketBatch& b) {
    for (std::size_t i = 0; i < b.size(); ++i) packet(b[i]);
  }
};

std::string codec_golden_lines(std::size_t g, std::size_t block) {
  CodingParams p;
  p.generation_blocks = g;
  p.block_size = block;
  const auto data =
      random_bytes(p.generation_bytes(), static_cast<std::uint32_t>(g + block));
  Generation gen(0, data, p);
  auto pool = PacketPool::make();
  std::mt19937 rng(static_cast<std::uint32_t>(1000 * g + block));
  Encoder enc(1, gen, rng, pool);

  std::string out;
  const auto line = [&](const std::string& stage, const Fnv1a& d) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "g=%zu block=%zu %s fnv1a=%016llx\n", g,
                  block, stage.c_str(), static_cast<unsigned long long>(d.h));
    out += buf;
  };

  Fnv1a systematic;
  for (std::size_t i = 0; i < g; ++i) {
    systematic.packet(enc.encode_systematic(i));
  }
  line("encode systematic", systematic);
  std::vector<CodedPacket> random;
  Fnv1a dense;
  for (std::size_t i = 0; i < g + 4; ++i) {
    random.push_back(enc.encode_random());
    dense.packet(random.back());
  }
  line("encode random", dense);
  {
    PacketBatch b;
    enc.encode_random_batch(5, b);
    Fnv1a d;
    d.batch(b);
    line("encode random_batch k=5", d);
  }

  // Relays at rank 1, at a partial rank whose pivot columns are spread
  // out (row i: zeros before column (2i+1)g/2r, a nonzero lead there
  // that is rarely 1, dense after), and at full rank. At g = 1 the
  // partial rank would be 0, where there is nothing to recode.
  Decoder rank1(1, 0, p, pool);
  rank1.add(random[0]);
  const std::size_t r = std::min<std::size_t>(7, g / 2);
  Decoder partial(1, 0, p, pool);
  for (std::size_t i = 0; i < r; ++i) {
    std::vector<std::uint8_t> coeffs(g, 0);
    const std::size_t lead = (2 * i + 1) * g / (2 * r);
    coeffs[lead] = static_cast<std::uint8_t>(1 + rng() % 255);
    for (std::size_t c = lead + 1; c < g; ++c) {
      coeffs[c] = static_cast<std::uint8_t>(rng());
    }
    partial.add(enc.encode_with(coeffs));
  }
  Decoder full(1, 0, p, pool);
  for (const CodedPacket& pkt : random) full.add(pkt);
  if (partial.rank() != r || !full.complete()) return "relay setup failed\n";

  std::vector<CodedPacket> recoded;
  struct Relay {
    const char* name;
    const Decoder* relay;
  };
  std::vector<Relay> relays = {{"rank=1", &rank1}};
  if (r > 0) relays.push_back({"rank=partial", &partial});
  relays.push_back({"rank=full", &full});
  for (const auto& relay : relays) {
    Fnv1a single;
    recoded.push_back(relay.relay->recode(rng));
    single.packet(recoded.back());
    line(std::string("recode ") + relay.name + " single", single);
    for (const std::size_t k : {1, 5, 32}) {
      PacketBatch b;
      relay.relay->recode_batch(rng, k, b);
      Fnv1a d;
      d.batch(b);
      line(std::string("recode ") + relay.name + " k=" + std::to_string(k),
           d);
      for (std::size_t i = 0; i < b.size(); ++i) {
        recoded.push_back(CodedPacket::make(1, 0, b[i].coeffs(),
                                            b[i].payload(), pool));
      }
    }
  }

  // The sink eliminates the recoded packets (many non-innovative at small
  // g), then the encoder's random packets until it is complete.
  Decoder sink(1, 0, p, pool);
  std::vector<std::uint8_t> verdicts;
  for (const CodedPacket& pkt : recoded) verdicts.push_back(sink.add(pkt));
  for (const CodedPacket& pkt : random) {
    if (sink.complete()) break;
    verdicts.push_back(sink.add(pkt));
  }
  if (!sink.complete()) return "sink incomplete\n";
  Fnv1a adds;
  adds.bytes(verdicts);
  line("sink add verdicts", adds);
  {
    PacketBatch b;
    sink.recode_batch(rng, 5, b);
    Fnv1a d;
    d.batch(b);
    line("sink recode k=5", d);
  }
  Fnv1a recovered;
  for (const auto& blk : sink.recover()) recovered.bytes(blk);
  line("sink recover", recovered);
  if (g == 1) {
    Fnv1a encoded;
    Fnv1a recoded_rows;
    for (std::size_t i = 0; i < 16; ++i) {
      for (std::size_t j = 0; j < 32; ++j) {
        encoded.packet(enc.encode_random());
        recoded_rows.packet(rank1.recode(rng));
      }
      PacketBatch b;
      enc.encode_random_batch(32, b);
      encoded.batch(b);
      b.clear();
      rank1.recode_batch(rng, 32, b);
      recoded_rows.batch(b);
    }
    line("encode random x1024", encoded);
    line("recode rank=1 x1024", recoded_rows);
  }
  Fnv1a source;
  source.bytes(data);
  line("source", source);
  return out;
}

}  // namespace

TEST(CodecGolden, OutputBytesAcrossSizesRanksAndBatchWidths) {
  std::string all;
  for (const std::size_t g : {4, 32, 128, 1, 3, 5}) {
    for (const std::size_t block : {100, 1460}) {
      all += codec_golden_lines(g, block);
    }
  }
  ncfn::golden::check_golden("codec_bytes.txt", all);
}
