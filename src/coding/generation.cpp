#include "coding/generation.hpp"

#include <cassert>

namespace ncfn::coding {

Generation::Generation(GenerationId id, std::vector<std::uint8_t> bytes,
                       const CodingParams& params)
    : id_(id),
      blocks_(require_generation_blocks(params.generation_blocks,
                                        "Generation")),
      block_size_(params.block_size),
      payload_bytes_(bytes.size()),
      bytes_(std::move(bytes)) {
  assert(payload_bytes_ > 0);
  assert(payload_bytes_ <= params.generation_bytes());
  bytes_.resize(blocks_ * block_size_);
}

}  // namespace ncfn::coding
