// Source-side generation: the unit of coding (Fig. 3 of the paper).
//
// The application's byte stream is split into generations; each generation
// into `generation_blocks` blocks of `block_size` bytes. A short trailing
// generation is zero-padded (the application protocol carries the true
// length out of band, here in the session manifest).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "coding/types.hpp"

namespace ncfn::coding {

/// Holds the original (uncoded) blocks of one generation at the source,
/// back to back in one buffer.
class Generation {
 public:
  /// Take `bytes` and zero-pad them to params.generation_blocks blocks.
  /// The block count must be in [1, kMaxGenerationBlocks] (checked in
  /// every build type) and `bytes.size()` in (0,
  /// params.generation_bytes()].
  Generation(GenerationId id, std::vector<std::uint8_t> bytes,
             const CodingParams& params);

  [[nodiscard]] GenerationId id() const { return id_; }
  [[nodiscard]] std::size_t block_count() const { return blocks_; }
  [[nodiscard]] std::size_t block_size() const { return block_size_; }
  /// Number of meaningful (unpadded) bytes in this generation.
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }

  [[nodiscard]] std::span<const std::uint8_t> block(std::size_t i) const {
    if (i >= blocks_) throw std::out_of_range("Generation::block");
    return std::span<const std::uint8_t>(bytes_).subspan(i * block_size_,
                                                         block_size_);
  }

 private:
  GenerationId id_;
  std::size_t blocks_;
  std::size_t block_size_;
  std::size_t payload_bytes_;
  std::vector<std::uint8_t> bytes_;  // blocks_ * block_size_, zero-padded
};

}  // namespace ncfn::coding
