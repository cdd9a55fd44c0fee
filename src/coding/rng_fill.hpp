// Random coefficient draws for the encode/recode hot path.
//
// A uniform_int_distribution sample per coefficient byte burns one whole
// mt19937 output word (and a rejection loop) per byte. GF(2^8) elements
// are exactly bytes, so slicing whole 32-bit engine words four ways is
// both faster and identically uniform.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <span>

namespace ncfn::coding::detail {

/// Fill `out` from whole engine words, four bytes per word; the rest of
/// a partial last word is dropped.
inline void fill_random_bytes(std::span<std::uint8_t> out,
                              std::mt19937& rng) {
  std::size_t i = 0;
  // mt19937 yields exactly 32 value bits, but its result_type is
  // uint_fast32_t (64-bit here) — narrow explicitly.
  for (; i + 4 <= out.size(); i += 4) {
    const auto w = static_cast<std::uint32_t>(rng());
    out[i] = static_cast<std::uint8_t>(w);
    out[i + 1] = static_cast<std::uint8_t>(w >> 8);
    out[i + 2] = static_cast<std::uint8_t>(w >> 16);
    out[i + 3] = static_cast<std::uint8_t>(w >> 24);
  }
  if (i < out.size()) {
    auto w = static_cast<std::uint32_t>(rng());
    for (; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(w);
      w >>= 8;
    }
  }
}

/// The weight draw of every random coded row, at the source and at a
/// relay: fill the k = weights.size() / g rows of g weights one row after
/// another, then redraw, in row order, each row whose weights on `cols`
/// are all zero — such a row would code nothing. A row comes out the same
/// whether it is drawn alone or in a batch, up to a redraw (probability
/// 256^-cols.size() per row), which a batch takes after all k fills
/// rather than before the next row's. Aborts with a message, in every
/// build type, when `cols` is empty: no draw could ever pass.
inline void draw_weights(std::span<std::uint8_t> weights, std::size_t g,
                         std::span<const std::uint16_t> cols,
                         std::mt19937& rng) {
  if (cols.empty()) {
    std::fprintf(stderr,
                 "ncfn: coefficient draw over no columns (recode at rank "
                 "0)\n");
    std::abort();
  }
  const std::size_t k = weights.size() / g;
  for (std::size_t j = 0; j < k; ++j) {
    fill_random_bytes(weights.subspan(j * g, g), rng);
  }
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<std::uint8_t> w = weights.subspan(j * g, g);
    while (std::none_of(cols.begin(), cols.end(),
                        [w](std::uint16_t c) { return w[c] != 0; })) {
      fill_random_bytes(w, rng);
    }
  }
}

}  // namespace ncfn::coding::detail
