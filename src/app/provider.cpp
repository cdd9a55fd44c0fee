#include "app/provider.hpp"

#include <algorithm>
#include <cassert>

namespace ncfn::app {

namespace {
/// splitmix64: tiny, fast, deterministic byte stream.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

BufferProvider::BufferProvider(std::vector<std::uint8_t> data,
                               const coding::CodingParams& params)
    : data_(std::move(data)), params_(params) {
  assert(!data_.empty());
}

coding::GenerationId BufferProvider::generation_count() const {
  const std::size_t gb = params_.generation_bytes();
  return static_cast<coding::GenerationId>((data_.size() + gb - 1) / gb);
}

coding::Generation BufferProvider::generation(coding::GenerationId id) const {
  const std::size_t gb = params_.generation_bytes();
  const std::size_t off = static_cast<std::size_t>(id) * gb;
  assert(off < data_.size());
  const std::size_t n = std::min(gb, data_.size() - off);
  const auto first = data_.begin() + static_cast<std::ptrdiff_t>(off);
  std::vector<std::uint8_t> bytes(first,
                                  first + static_cast<std::ptrdiff_t>(n));
  return coding::Generation(id, std::move(bytes), params_);
}

coding::GenerationId SyntheticProvider::generation_count() const {
  const std::size_t gb = params_.generation_bytes();
  return static_cast<coding::GenerationId>((total_bytes_ + gb - 1) / gb);
}

std::vector<std::uint8_t> SyntheticProvider::generation_bytes(
    coding::GenerationId id) const {
  const std::size_t gb = params_.generation_bytes();
  const std::size_t off = static_cast<std::size_t>(id) * gb;
  assert(off < total_bytes_);
  const std::size_t n = std::min(gb, total_bytes_ - off);
  std::vector<std::uint8_t> out(n);
  std::uint64_t state = seed_ ^ (0xA5A5A5A5ull + id * 0x2545F4914F6CDD1Dull);
  std::uint8_t* const p = out.data();
  std::size_t i = 0;
  // One word per 8 bytes, least significant byte first. The shifts fix
  // the byte order on any host, and with no bound check between them
  // the compiler merges the eight stores of a whole word into one.
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = splitmix64(state);
    p[i] = static_cast<std::uint8_t>(w);
    p[i + 1] = static_cast<std::uint8_t>(w >> 8);
    p[i + 2] = static_cast<std::uint8_t>(w >> 16);
    p[i + 3] = static_cast<std::uint8_t>(w >> 24);
    p[i + 4] = static_cast<std::uint8_t>(w >> 32);
    p[i + 5] = static_cast<std::uint8_t>(w >> 40);
    p[i + 6] = static_cast<std::uint8_t>(w >> 48);
    p[i + 7] = static_cast<std::uint8_t>(w >> 56);
  }
  if (i < n) {
    const std::uint64_t word = splitmix64(state);
    for (std::size_t b = 0; i < n; ++b, ++i) {
      p[i] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

coding::Generation SyntheticProvider::generation(
    coding::GenerationId id) const {
  return coding::Generation(id, generation_bytes(id), params_);
}

}  // namespace ncfn::app
