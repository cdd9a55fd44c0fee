// Unit tests for GF(2^8) and the generic GF(2^m) fields: field axioms,
// table consistency, and the bulk buffer kernels the codec hot path uses.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "gf/gf256.hpp"
#include "gf/gf_generic.hpp"

namespace gf = ncfn::gf;

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(gf::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf::sub(0x53, 0xCA), gf::add(0x53, 0xCA));
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf::add(static_cast<gf::u8>(a), static_cast<gf::u8>(a)), 0);
  }
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto x = static_cast<gf::u8>(a);
    EXPECT_EQ(gf::mul(x, 1), x);
    EXPECT_EQ(gf::mul(1, x), x);
    EXPECT_EQ(gf::mul(x, 0), 0);
    EXPECT_EQ(gf::mul(0, x), 0);
  }
}

TEST(Gf256, MultiplicationCommutes) {
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; ++b) {
      EXPECT_EQ(gf::mul(static_cast<gf::u8>(a), static_cast<gf::u8>(b)),
                gf::mul(static_cast<gf::u8>(b), static_cast<gf::u8>(a)));
    }
  }
}

TEST(Gf256, MultiplicationAssociates) {
  std::mt19937 rng(1);
  std::uniform_int_distribution<int> d(0, 255);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<gf::u8>(d(rng));
    const auto b = static_cast<gf::u8>(d(rng));
    const auto c = static_cast<gf::u8>(d(rng));
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
  }
}

TEST(Gf256, DistributesOverAddition) {
  std::mt19937 rng(2);
  std::uniform_int_distribution<int> d(0, 255);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<gf::u8>(d(rng));
    const auto b = static_cast<gf::u8>(d(rng));
    const auto c = static_cast<gf::u8>(d(rng));
    EXPECT_EQ(gf::mul(a, gf::add(b, c)),
              gf::add(gf::mul(a, b), gf::mul(a, c)));
  }
}

TEST(Gf256, InverseIsExact) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<gf::u8>(a);
    EXPECT_EQ(gf::mul(x, gf::inv(x)), 1) << "a=" << a;
  }
}

TEST(Gf256, DivisionInvertsMultiplication) {
  for (int a = 0; a < 256; a += 3) {
    for (int b = 1; b < 256; b += 5) {
      const auto x = static_cast<gf::u8>(a);
      const auto y = static_cast<gf::u8>(b);
      EXPECT_EQ(gf::div(gf::mul(x, y), y), x);
    }
  }
}

TEST(Gf256, PowMatchesRepeatedMultiplication) {
  for (int a = 0; a < 256; a += 11) {
    gf::u8 acc = 1;
    for (unsigned e = 0; e < 16; ++e) {
      EXPECT_EQ(gf::pow(static_cast<gf::u8>(a), e), acc) << a << "^" << e;
      acc = gf::mul(acc, static_cast<gf::u8>(a));
    }
  }
  EXPECT_EQ(gf::pow(0, 0), 1);
  EXPECT_EQ(gf::pow(0, 5), 0);
}

TEST(Gf256, MultiplicativeOrderDividesFieldOrder) {
  // g = 2 is primitive: its order must be exactly 255.
  gf::u8 x = 2;
  int order = 1;
  while (x != 1) {
    x = gf::mul(x, 2);
    ++order;
  }
  EXPECT_EQ(order, 255);
}

TEST(Gf256Bulk, XorMatchesScalar) {
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<gf::u8> a(1460), b(1460), expect(1460);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<gf::u8>(d(rng));
    b[i] = static_cast<gf::u8>(d(rng));
    expect[i] = gf::add(a[i], b[i]);
  }
  gf::bulk_xor(a, b);
  EXPECT_EQ(a, expect);
}

TEST(Gf256Bulk, MulAddMatchesScalar) {
  std::mt19937 rng(4);
  std::uniform_int_distribution<int> d(0, 255);
  for (const int coeff : {0, 1, 2, 37, 255}) {
    std::vector<gf::u8> dst(777), src(777), expect(777);
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = static_cast<gf::u8>(d(rng));
      src[i] = static_cast<gf::u8>(d(rng));
      expect[i] = gf::add(dst[i], gf::mul(static_cast<gf::u8>(coeff), src[i]));
    }
    gf::bulk_muladd(dst, src, static_cast<gf::u8>(coeff));
    EXPECT_EQ(dst, expect) << "coeff=" << coeff;
  }
}

TEST(Gf256Bulk, MulByZeroClearsAndByOneKeeps) {
  std::vector<gf::u8> v{1, 2, 3, 250};
  auto keep = v;
  gf::bulk_mul(v, 1);
  EXPECT_EQ(v, keep);
  gf::bulk_mul(v, 0);
  EXPECT_EQ(v, (std::vector<gf::u8>{0, 0, 0, 0}));
}

TEST(Gf256Bulk, MulMatchesScalar) {
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<gf::u8> v(333), expect(333);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<gf::u8>(d(rng));
    expect[i] = gf::mul(static_cast<gf::u8>(0x8E), v[i]);
  }
  gf::bulk_mul(v, 0x8E);
  EXPECT_EQ(v, expect);
}

TEST(Gf256Bulk, DotProduct) {
  const std::vector<gf::u8> a{1, 0, 3};
  const std::vector<gf::u8> b{5, 9, 2};
  const gf::u8 want = gf::add(gf::mul(1, 5), gf::mul(3, 2));
  EXPECT_EQ(gf::dot(a, b), want);
}

// ---- Kernel tiers (scalar / AVX2 / GFNI) and runtime dispatch ----

#include <algorithm>
#include <cstdlib>
#include <string>

#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "gf/gf256_simd.hpp"

namespace {

std::vector<gf::simd::Tier> supported_tiers() {
  std::vector<gf::simd::Tier> tiers;
  for (const auto t : {gf::simd::Tier::kScalar, gf::simd::Tier::kAvx2,
                       gf::simd::Tier::kGfni}) {
    if (gf::simd::tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

/// RAII tier override: all public gf::bulk_* calls inside the scope run on
/// the forced kernel tier.
class ForcedTier {
 public:
  explicit ForcedTier(gf::simd::Tier t) {
    EXPECT_TRUE(gf::simd::force_tier(t)) << gf::simd::tier_name(t);
  }
  ~ForcedTier() { gf::simd::reset_tier(); }
};

// Sizes straddle every loop boundary of both kernel widths — the
// two-stream loop over 2W, the W loop, and the tail: a 16-byte step plus
// the scalar walk at W = 32, one masked block at W = 64 — so every tier
// enters and leaves each one; 1460 is the wire block size and 1492 the
// g = 32 coded-row length. Offsets force misaligned operands.
constexpr std::size_t kDiffSizes[] = {
    0,   1,   15,  16,  17,  31,  32,  33,  47,  48,  63,   64,  65,
    95,  96,  97,  127, 128, 129, 191, 192, 193, 255, 256, 257, 1460, 1492};
constexpr std::size_t kDiffOffsets[] = {0, 1, 7};
// Every buffer runs this many bytes past its span, and the differential
// tests compare whole buffers, so a store past the span (a full-width
// store at any tail) fails them. GCC's ASan does not instrument masked
// vector stores, so a wrong tail mask would otherwise go unseen.
constexpr std::size_t kCanary = 64;

std::vector<gf::u8> random_buf(std::size_t n, std::mt19937& rng) {
  std::vector<gf::u8> out(n);
  std::uniform_int_distribution<int> d(0, 255);
  for (auto& b : out) b = static_cast<gf::u8>(d(rng));
  return out;
}

}  // namespace

TEST(Gf256Tiers, EverySupportedTierIsSelectable) {
  // reset_tier() restores whatever dispatch chose on entry — the best
  // tier, or the one NCFN_GF_ISA pins; EnvPinsTierAndUnknownValuesFallBack
  // covers how that choice is made.
  const gf::simd::Tier entry = gf::simd::active_tier();
  ASSERT_TRUE(gf::simd::tier_supported(gf::simd::Tier::kScalar));
  for (const auto t : supported_tiers()) {
    ForcedTier forced(t);
    EXPECT_EQ(gf::simd::active_tier(), t);
  }
  gf::simd::reset_tier();
  EXPECT_EQ(gf::simd::active_tier(), entry);
}

TEST(Gf256Tiers, EnvPinsTierAndUnknownValuesFallBack) {
  // NCFN_GF_ISA is read whenever dispatch re-resolves: a tier name pins
  // that tier, and any other value — a retired tier's name included —
  // falls back to auto selection.
  const char* outer = std::getenv("NCFN_GF_ISA");
  const std::string saved = outer != nullptr ? outer : "";
  const struct {
    const char* value;
    gf::simd::Tier want;
  } cases[] = {{"scalar", gf::simd::Tier::kScalar},
               {"ssse3", gf::simd::best_tier()},
               {"bogus", gf::simd::best_tier()}};
  for (const auto& c : cases) {
    ASSERT_EQ(::setenv("NCFN_GF_ISA", c.value, 1), 0);
    gf::simd::reset_tier();
    EXPECT_EQ(gf::simd::active_tier(), c.want) << c.value;
  }
  ASSERT_EQ(::unsetenv("NCFN_GF_ISA"), 0);
  gf::simd::reset_tier();
  EXPECT_EQ(gf::simd::active_tier(), gf::simd::best_tier());

  if (outer != nullptr) ::setenv("NCFN_GF_ISA", saved.c_str(), 1);
  gf::simd::reset_tier();
}

TEST(Gf256Tiers, MulAddMatchesReferenceOnEveryTierSizeAndAlignment) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> d(0, 255);
  for (const auto tier : supported_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t size : kDiffSizes) {
      for (const std::size_t offset : kDiffOffsets) {
        auto dst = random_buf(offset + size + kCanary, rng);
        const auto src = random_buf(offset + size + kCanary, rng);
        const auto c = static_cast<gf::u8>(d(rng));
        auto expect = dst;
        for (std::size_t i = offset; i < size + offset; ++i) {
          expect[i] ^= gf::mul(c, src[i]);
        }
        gf::bulk_muladd(std::span<gf::u8>(dst).subspan(offset, size),
                        std::span<const gf::u8>(src).subspan(offset, size), c);
        ASSERT_EQ(dst, expect)
            << gf::simd::tier_name(tier) << " size=" << size
            << " off=" << offset << " c=" << int(c);
      }
    }
  }
}

TEST(Gf256Tiers, MulAndXorMatchReferenceOnEveryTier) {
  std::mt19937 rng(12);
  std::uniform_int_distribution<int> d(0, 255);
  for (const auto tier : supported_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t size : kDiffSizes) {
      for (const int c : {0, 1, 2, 0x53, 255}) {
        auto v = random_buf(size + kCanary, rng);
        auto expect = v;
        for (std::size_t i = 0; i < size; ++i) {
          expect[i] = gf::mul(static_cast<gf::u8>(c), expect[i]);
        }
        gf::bulk_mul(std::span<gf::u8>(v).first(size), static_cast<gf::u8>(c));
        ASSERT_EQ(v, expect)
            << gf::simd::tier_name(tier) << " size=" << size << " c=" << c;
      }
      auto a = random_buf(size + kCanary, rng);
      const auto b = random_buf(size + kCanary, rng);
      auto expect = a;
      for (std::size_t i = 0; i < size; ++i) expect[i] ^= b[i];
      gf::bulk_xor(std::span<gf::u8>(a).first(size),
                   std::span<const gf::u8>(b).first(size));
      ASSERT_EQ(a, expect) << gf::simd::tier_name(tier) << " size=" << size;
    }
  }
}

TEST(Gf256Tiers, FusedX4MatchesFourSingleMulAdds) {
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> d(0, 255);
  for (const auto tier : supported_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t size : kDiffSizes) {
      for (const std::size_t offset : kDiffOffsets) {
        auto fused = random_buf(offset + size + kCanary, rng);
        auto serial = fused;
        std::vector<std::vector<gf::u8>> rows;
        const gf::u8 c4[4] = {
            static_cast<gf::u8>(d(rng)), 0,  // zero coefficient in the mix
            static_cast<gf::u8>(d(rng)), static_cast<gf::u8>(d(rng))};
        for (int r = 0; r < 4; ++r) {
          rows.push_back(random_buf(offset + size + kCanary, rng));
        }
        const gf::u8* src[4] = {rows[0].data() + offset, rows[1].data() + offset,
                                rows[2].data() + offset, rows[3].data() + offset};
        gf::bulk_muladd_x4(std::span<gf::u8>(fused).subspan(offset, size), src,
                           c4);
        for (int r = 0; r < 4; ++r) {
          gf::bulk_muladd(std::span<gf::u8>(serial).subspan(offset, size),
                          std::span<const gf::u8>(src[r], size), c4[r]);
        }
        ASSERT_EQ(fused, serial) << gf::simd::tier_name(tier)
                                 << " size=" << size << " off=" << offset;
      }
    }
  }
}

TEST(Gf256Tiers, MulAddRowsMatchesScalarOracleOnEveryTierAndShape) {
  // Every length, output-row count k and source count m around the
  // tiers' row and source groups (2 x 12 on gfni, 1 x 4 on avx2), with
  // zero and one coefficients in every call and, for odd k, a row stride
  // past m. The oracle is the scalar tier, one source at a time.
  std::mt19937 rng(16);
  std::uniform_int_distribution<int> d(0, 255);
  for (const std::size_t size : kDiffSizes) {
    std::vector<std::vector<gf::u8>> srcs, outs;
    for (int j = 0; j < 33; ++j) {
      srcs.push_back(random_buf(size + kCanary, rng));
    }
    for (int r = 0; r < 32; ++r) {
      outs.push_back(random_buf(size + kCanary, rng));
    }
    std::vector<const gf::u8*> sp;
    for (const auto& row : srcs) sp.push_back(row.data());
    for (const std::size_t k : {1, 2, 3, 4, 5, 8, 9, 32}) {
      for (std::size_t m = 1; m <= 33; ++m) {
        const std::size_t ldc = m + (k % 2) * 3;
        std::vector<gf::u8> c(k * ldc);
        for (auto& x : c) x = static_cast<gf::u8>(d(rng));
        c[0] = 0;
        c[(k - 1) * ldc + m - 1] = 1;
        std::vector<std::vector<gf::u8>> want(outs.begin(), outs.begin() + k);
        {
          ForcedTier scalar(gf::simd::Tier::kScalar);
          for (std::size_t r = 0; r < k; ++r) {
            for (std::size_t j = 0; j < m; ++j) {
              gf::bulk_muladd(std::span<gf::u8>(want[r]).first(size),
                              std::span<const gf::u8>(srcs[j]).first(size),
                              c[r * ldc + j]);
            }
          }
        }
        for (const auto tier : supported_tiers()) {
          ForcedTier forced(tier);
          std::vector<std::vector<gf::u8>> got(outs.begin(), outs.begin() + k);
          std::vector<gf::u8*> dp;
          for (auto& row : got) dp.push_back(row.data());
          gf::bulk_muladd_rows(dp, std::span<const gf::u8* const>(sp).first(m),
                               c.data(), ldc, size);
          ASSERT_EQ(got, want) << gf::simd::tier_name(tier) << " size=" << size
                               << " k=" << k << " m=" << m;
        }
      }
    }
  }
}

TEST(Gf256Tiers, AllTiersEncodeByteIdenticalPackets) {
  // The dispatch proof: forcing each tier and encoding the same generation
  // with the same coefficients must give byte-identical wire packets.
  ncfn::coding::CodingParams p;  // 1460-byte blocks, 4 per generation
  std::mt19937 data_rng(14);
  auto data = random_buf(p.generation_bytes(), data_rng);
  ncfn::coding::Generation gen(0, data, p);
  const std::vector<std::uint8_t> coeffs{0x8E, 0x01, 0x00, 0xF3};

  std::vector<std::vector<std::uint8_t>> wires;
  for (const auto tier : supported_tiers()) {
    ForcedTier forced(tier);
    std::mt19937 rng(15);
    ncfn::coding::Encoder enc(1, gen, rng);
    wires.push_back(enc.encode_with(coeffs).serialize());
  }
  ASSERT_GE(wires.size(), 1u);
  for (std::size_t i = 1; i < wires.size(); ++i) {
    EXPECT_EQ(wires[i], wires[0])
        << "tier " << gf::simd::tier_name(supported_tiers()[i])
        << " disagrees with scalar";
  }
}

TEST(Gf256Simd, DispatchedPathIsBitExact) {
  // The public bulk_muladd (which may dispatch to SIMD) must agree with a
  // straight scalar loop on large buffers.
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<gf::u8> a(8192), b(8192);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<gf::u8>(d(rng));
    b[i] = static_cast<gf::u8>(d(rng));
  }
  auto expect = a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect[i] ^= gf::mul(0x9C, b[i]);
  }
  gf::bulk_muladd(a, b, 0x9C);
  EXPECT_EQ(a, expect);
}

// ---- Generic fields for the ablation ----

template <unsigned M>
void check_field_axioms() {
  gf::Field<M> f;
  using Elem = typename gf::Field<M>::Elem;
  std::mt19937 rng(42);
  std::uniform_int_distribution<unsigned> d(0, gf::Field<M>::kMax);
  // Inverse over all (small fields) or a sample (GF(2^16)).
  const unsigned step = M == 16 ? 257 : 1;
  for (unsigned a = 1; a < gf::Field<M>::kOrder; a += step) {
    const auto x = static_cast<Elem>(a);
    ASSERT_EQ(f.mul(x, f.inv(x)), 1u) << "M=" << M << " a=" << a;
  }
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<Elem>(d(rng));
    const auto b = static_cast<Elem>(d(rng));
    const auto c = static_cast<Elem>(d(rng));
    ASSERT_EQ(f.mul(a, b), f.mul(b, a));
    ASSERT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    ASSERT_EQ(f.mul(a, gf::Field<M>::add(b, c)),
              gf::Field<M>::add(f.mul(a, b), f.mul(a, c)));
  }
}

TEST(GfGeneric, Gf16Axioms) { check_field_axioms<4>(); }
TEST(GfGeneric, Gf256Axioms) { check_field_axioms<8>(); }
TEST(GfGeneric, Gf65536Axioms) { check_field_axioms<16>(); }

TEST(GfGeneric, Gf256MatchesConcreteImplementation) {
  gf::Field<8> f;
  for (int a = 0; a < 256; a += 5) {
    for (int b = 0; b < 256; b += 3) {
      EXPECT_EQ(f.mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                gf::mul(static_cast<gf::u8>(a), static_cast<gf::u8>(b)));
    }
  }
}

TEST(GfGeneric, BulkMulAddMatchesScalar) {
  gf::Field<16> f;
  std::mt19937 rng(6);
  std::uniform_int_distribution<unsigned> d(0, 0xFFFF);
  std::vector<std::uint16_t> dst(200), src(200), expect(200);
  const auto c = static_cast<std::uint16_t>(d(rng) | 1);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<std::uint16_t>(d(rng));
    src[i] = static_cast<std::uint16_t>(d(rng));
    expect[i] = static_cast<std::uint16_t>(dst[i] ^ f.mul(c, src[i]));
  }
  f.bulk_muladd(std::span<std::uint16_t>(dst),
                std::span<const std::uint16_t>(src), c);
  EXPECT_EQ(dst, expect);
}
