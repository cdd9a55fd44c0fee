// Differential fuzz target: GF(2^8) kernel tiers vs the scalar oracle.
//
// The repo dispatches three kernel tiers (scalar / AVX2 / GFNI) that
// must be bit-exact. The unit tests assert equality on hand-picked
// shapes; this target makes the property input-driven: every fuzz input
// decodes to a (coeff set, row length, byte material) triple, every tier
// the build + CPU supports runs every kernel on identical operands, and
// any byte of divergence from the scalar oracle aborts.
//
// Structure-aware input layout:
//   [0..1] row length selector → n = 1 + (b0 | (b1 & 7) << 8)   (1..2048,
//          crossing every vector width and tail-handling boundary)
//   [2]    c       — coefficient for muladd / mul
//   [3..6] c4[0..3] — coefficients for the fused muladd_x4
//   [7..]  byte material; rows are drawn from it at coprime strides so
//          short inputs still produce distinct operands
//
// Checked per input and per supported tier:
//   * muladd, mul, bxor agree byte-for-byte with the scalar tier;
//   * the fused muladd_x4 agrees with its unfused decomposition
//     (four scalar muladd passes) AND with the scalar fused kernel.
#include <array>
#include <vector>

#include "gf/gf256_kernels.hpp"
#include "harness.hpp"

namespace {

using ncfn::gf::simd::KernelTable;
namespace detail = ncfn::gf::simd::detail;

/// Deterministically expand the input material into a row of n bytes.
std::vector<std::uint8_t> make_row(const std::uint8_t* material,
                                   std::size_t m, std::size_t n,
                                   std::size_t stride,
                                   std::uint8_t salt) {
  std::vector<std::uint8_t> row(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t base = m > 0 ? material[(i * stride + salt) % m]
                                    : static_cast<std::uint8_t>(0);
    row[i] = static_cast<std::uint8_t>(base ^ static_cast<std::uint8_t>(
                                                 (i * 37 + salt) & 0xff));
  }
  return row;
}

void check_rows_equal(const std::vector<std::uint8_t>& got,
                      const std::vector<std::uint8_t>& want,
                      const char* what) {
  ncfn::fuzzing::check(got == want, what);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace ncfn;
  if (size < 7) return 0;

  const std::size_t n =
      1 + (static_cast<std::size_t>(data[0]) |
           (static_cast<std::size_t>(data[1] & 7) << 8));
  const std::uint8_t c = data[2];
  const std::uint8_t c4[4] = {data[3], data[4], data[5], data[6]};
  const std::uint8_t* material = data + 7;
  const std::size_t m = size - 7;

  const auto dst0 = make_row(material, m, n, 1, 11);
  const auto src = make_row(material, m, n, 3, 23);
  const std::array<std::vector<std::uint8_t>, 4> rows = {
      make_row(material, m, n, 5, 41), make_row(material, m, n, 7, 59),
      make_row(material, m, n, 11, 73), make_row(material, m, n, 13, 97)};
  const std::uint8_t* row_ptrs[4] = {rows[0].data(), rows[1].data(),
                                     rows[2].data(), rows[3].data()};

  const KernelTable* scalar = detail::scalar_table();
  fuzzing::check(scalar != nullptr, "scalar tier must always exist");

  // Scalar oracle results.
  auto want_muladd = dst0;
  scalar->muladd(want_muladd.data(), src.data(), n, c);
  auto want_mul = dst0;
  scalar->mul(want_mul.data(), n, c);
  auto want_bxor = dst0;
  scalar->bxor(want_bxor.data(), src.data(), n);

  // Unfused decomposition of muladd_x4: four scalar muladd passes. The
  // scalar fused kernel must match it, and so must every vector tier.
  auto want_x4 = dst0;
  for (int j = 0; j < 4; ++j) {
    scalar->muladd(want_x4.data(), row_ptrs[j], n, c4[j]);
  }
  auto scalar_x4 = dst0;
  scalar->muladd_x4(scalar_x4.data(), row_ptrs, c4, n);
  check_rows_equal(scalar_x4, want_x4,
                   "scalar muladd_x4 must equal its unfused decomposition");

  const KernelTable* tiers[] = {detail::avx2_table(), detail::gfni_table()};
  for (const KernelTable* t : tiers) {
    if (t == nullptr) continue;  // build or CPU lacks the ISA
    auto got = dst0;
    t->muladd(got.data(), src.data(), n, c);
    check_rows_equal(got, want_muladd, "tier muladd diverges from scalar");

    got = dst0;
    t->mul(got.data(), n, c);
    check_rows_equal(got, want_mul, "tier mul diverges from scalar");

    got = dst0;
    t->bxor(got.data(), src.data(), n);
    check_rows_equal(got, want_bxor, "tier bxor diverges from scalar");

    got = dst0;
    t->muladd_x4(got.data(), row_ptrs, c4, n);
    check_rows_equal(got, want_x4,
                     "tier muladd_x4 diverges from unfused scalar");
  }

  fuzzing::note(n);
  fuzzing::note(c);
  fuzzing::note_bytes(want_muladd);
  fuzzing::note_bytes(want_x4);
  return 0;
}
