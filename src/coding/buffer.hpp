// FIFO generation buffer for coding functions (Sec. III.B.2).
//
// "A newly arriving packet is stored based on its session ID and
// generation ID ... We employ a FIFO buffer management strategy that
// discards the oldest packets once the buffer is full."  The buffer holds
// up to `buffer_generations` generations *per session* (the paper settles
// on 1024 per session, Fig. 5); when a session exceeds its budget the
// oldest generation's state is evicted wholesale. A decoder released after
// delivery (a tombstone without rows) still counts against the budget, so
// releasing rows never changes which generation is evicted when.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "coding/decoder.hpp"
#include "coding/pool.hpp"
#include "coding/types.hpp"

namespace ncfn::coding {

class GenerationBuffer {
 public:
  /// Generation open/close/evict events, the shared coding counters
  /// (threaded into every decoder) and this buffer's occupancy gauge go
  /// to `obs`, namespaced by the hosting `node`. The hub must outlive
  /// the buffer.
  GenerationBuffer(const CodingParams& params, obs::Observability& obs,
                   std::uint32_t node);

  /// Decoder state for (session, generation), creating it (and possibly
  /// evicting the session's oldest generation) if absent.
  Decoder& state(SessionId session, GenerationId generation);

  /// Existing state or nullptr; never creates.
  [[nodiscard]] Decoder* find(SessionId session, GenerationId generation);

  /// Drop everything belonging to a session (session teardown).
  void erase_session(SessionId session);

  /// Drop the session's released decoders (Decoder::release), e.g. when
  /// it stops being a decode session and must not recode from them.
  void erase_released(SessionId session);

  [[nodiscard]] std::size_t generations_buffered() const { return states_.size(); }
  [[nodiscard]] std::size_t evictions() const { return evictions_; }
  [[nodiscard]] const CodingParams& params() const { return params_; }

  /// Shared packet pool: decoder rows and recoded/parsed packets for this
  /// buffer's sessions all recycle through here.
  [[nodiscard]] const PacketPool& pool() const { return pool_; }

 private:
  struct Key {
    SessionId session;
    GenerationId generation;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.session) << 32) | k.generation);
    }
  };

  CodingParams params_;
  PacketPool pool_;
  CodingObs obs_handles_;  // decoders hold a pointer to this
  obs::Gauge* m_buffered_ = nullptr;
  std::unordered_map<Key, std::unique_ptr<Decoder>, KeyHash> states_;
  std::unordered_map<SessionId, std::deque<GenerationId>> fifo_;  // per-session arrival order
  std::size_t evictions_ = 0;
};

}  // namespace ncfn::coding
