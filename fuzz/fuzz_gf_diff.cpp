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
//   [3..6] the first four coefficients of the fused muladd_rows; its
//          shape is k = 1 + [3] % 5 output rows by m = 1 + [4] % 33
//          source rows, and the rest of its k x m coefficients come from
//          the material
//   [7..]  byte material; rows are drawn from it at coprime strides so
//          short inputs still produce distinct operands
//
// Checked per input and per supported tier:
//   * muladd, mul, bxor agree byte-for-byte with the scalar tier;
//   * the fused muladd_rows agrees with its unfused decomposition
//     (k x m scalar muladd passes) AND with the scalar fused kernel.
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
  const std::size_t k = 1 + data[3] % 5;
  const std::size_t m = 1 + data[4] % 33;
  const std::uint8_t* material = data + 7;
  const std::size_t mat = size - 7;

  const auto dst0 = make_row(material, mat, n, 1, 11);
  const auto src = make_row(material, mat, n, 3, 23);
  // Coefficients past the first four are material bytes as they are, so
  // zeros and ones appear whenever the input holds them.
  std::vector<std::uint8_t> coeffs(k * m);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = i < 4 ? data[3 + i] : mat > 0 ? material[(i * 7) % mat] : 0;
  }
  std::vector<std::vector<std::uint8_t>> rows(m);
  std::vector<const std::uint8_t*> row_ptrs(m);
  for (std::size_t j = 0; j < m; ++j) {
    rows[j] = make_row(material, mat, n, 5 + 2 * j,
                       static_cast<std::uint8_t>(41 + 18 * j));
    row_ptrs[j] = rows[j].data();
  }
  // k output rows, each a copy of dst0 shifted by its index.
  const auto outputs = [&] {
    std::vector<std::vector<std::uint8_t>> out(k, dst0);
    for (std::size_t r = 0; r < k; ++r) {
      for (auto& b : out[r]) b = static_cast<std::uint8_t>(b + r);
    }
    return out;
  };
  const auto run_rows = [&](const KernelTable* t) {
    auto out = outputs();
    std::vector<std::uint8_t*> ptrs(k);
    for (std::size_t r = 0; r < k; ++r) ptrs[r] = out[r].data();
    t->muladd_rows(ptrs.data(), k, row_ptrs.data(), m, coeffs.data(), m, n);
    return out;
  };

  const KernelTable* scalar = detail::scalar_table();
  fuzzing::check(scalar != nullptr, "scalar tier must always exist");

  // Scalar oracle results.
  auto want_muladd = dst0;
  scalar->muladd(want_muladd.data(), src.data(), n, c);
  auto want_mul = dst0;
  scalar->mul(want_mul.data(), n, c);
  auto want_bxor = dst0;
  scalar->bxor(want_bxor.data(), src.data(), n);

  // Unfused decomposition of muladd_rows: one scalar muladd pass per
  // (row, source). The scalar fused kernel must match it, and so must
  // every vector tier.
  auto want_rows = outputs();
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t j = 0; j < m; ++j) {
      scalar->muladd(want_rows[r].data(), row_ptrs[j], n, coeffs[r * m + j]);
    }
  }
  fuzzing::check(run_rows(scalar) == want_rows,
                 "scalar muladd_rows must equal its unfused decomposition");

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

    fuzzing::check(run_rows(t) == want_rows,
                   "tier muladd_rows diverges from unfused scalar");
  }

  fuzzing::note(n);
  fuzzing::note(c);
  fuzzing::note_bytes(want_muladd);
  for (const auto& row : want_rows) fuzzing::note_bytes(row);
  return 0;
}
