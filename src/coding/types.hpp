// Basic identifiers and coding parameters shared by the data plane.
//
// Defaults follow Sec. III.B.1 of the paper: block size 1460 bytes (so a
// coded block + 12 B NC header + 8 B UDP + 20 B IP fits a 1500 B MTU with
// 4 blocks per generation), 4 blocks per generation (Fig. 4 shows the
// throughput peak there), and a FIFO buffer of 1024 generations per
// session (Fig. 5 shows larger buffers gain little).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace ncfn::coding {

using SessionId = std::uint32_t;
using GenerationId = std::uint32_t;

inline constexpr std::size_t kDefaultBlockSize = 1460;
inline constexpr std::size_t kDefaultGenerationBlocks = 4;
inline constexpr std::size_t kDefaultBufferGenerations = 1024;

/// Largest generation the codec runs: the coefficient and pivot arrays
/// of the encoder and decoder hot paths are sized for it. NC_SETTINGS
/// outside [1, kMaxGenerationBlocks] is rejected where it is parsed.
inline constexpr std::size_t kMaxGenerationBlocks = 256;

/// Returns g, or aborts with a message unless 1 <= g <=
/// kMaxGenerationBlocks; `who` names the constructor. Checked in every
/// build type: past the bound the hot paths would overrun their stack
/// arrays, and at 0 a recoder would redraw forever.
inline std::size_t require_generation_blocks(std::size_t g, const char* who) {
  if (g >= 1 && g <= kMaxGenerationBlocks) return g;
  std::fprintf(stderr,
               "ncfn: %s: generation of %zu blocks outside [1, %zu]\n", who,
               g, kMaxGenerationBlocks);
  std::abort();
}

/// Per-system coding parameters, distributed to every coding function via
/// NC_SETTINGS at initialization (the paper assumes the same generation and
/// block sizes across all sessions).
struct CodingParams {
  std::size_t block_size = kDefaultBlockSize;        // bytes per block
  std::size_t generation_blocks = kDefaultGenerationBlocks;  // blocks per generation
  std::size_t buffer_generations = kDefaultBufferGenerations;

  /// Payload bytes carried by one full generation.
  [[nodiscard]] std::size_t generation_bytes() const {
    return block_size * generation_blocks;
  }
  /// NC header length: 8 bytes (session + generation ids) plus one
  /// coefficient per block in the generation.
  [[nodiscard]] std::size_t header_bytes() const {
    return 8 + generation_blocks;
  }
  /// Wire size of one coded packet (NC header + one coded block).
  [[nodiscard]] std::size_t packet_bytes() const {
    return header_bytes() + block_size;
  }
};

}  // namespace ncfn::coding
