// Fixed-capacity packet vector — the unit of work of the batched data
// plane (the BESS PacketBatch idiom).
//
// Per-packet processing pays its fixed costs — header parses, map
// lookups, RNG draws, simulator events, counter updates — once per
// packet. A PacketBatch carries up to kBatchCapacity CodedPackets through
// a processing stage at a time so those costs amortize across the vector:
// a VNF lane drains one batch per service event, the recoder emits k
// packets from one coefficient-matrix sweep, and a link moves a burst
// with one departure and one delivery event.
//
// The batch owns its packets (each row is a pooled [coeffs | payload]
// buffer; see pool.hpp): clearing or destroying a batch returns every row
// to its pool, so a partially-filled batch can never leak rows — the
// NCFN_AUDIT teardown check and the `batch`-labelled tests assert this.
// Slots also carry one metadata byte for pipeline stages to annotate
// packets in flight (innovative / first-of-generation / completed flags);
// push() zeroes the slot's metadata so stale annotations never survive
// recycling.
//
// Capacity is 32, matching BESS's batch size: large enough to amortize
// per-batch costs to noise, small enough that a batch of MTU-sized rows
// stays L2-resident while a stage walks it.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "coding/packet.hpp"
#include "coding/pool.hpp"

namespace ncfn::coding {

inline constexpr std::size_t kBatchCapacity = 32;

class PacketBatch {
 public:
  PacketBatch() = default;
  PacketBatch(PacketBatch&&) = default;
  PacketBatch& operator=(PacketBatch&&) = default;
  PacketBatch(const PacketBatch&) = delete;
  PacketBatch& operator=(const PacketBatch&) = delete;

  [[nodiscard]] static constexpr std::size_t capacity() {
    return kBatchCapacity;
  }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] bool full() const noexcept { return n_ == kBatchCapacity; }
  [[nodiscard]] std::size_t room() const noexcept {
    return kBatchCapacity - n_;
  }

  /// Append a packet. Precondition: !full().
  void push(CodedPacket&& pkt) {
    assert(!full());
    slots_[n_] = std::move(pkt);
    meta_[n_] = 0;
    ++n_;
  }

  /// Append a fresh zero-filled row acquired from `pool` (heap when null)
  /// and return it for in-place filling. Precondition: !full().
  CodedPacket& emplace(std::size_t g, std::size_t payload_bytes,
                       const PacketPool& pool = {}) {
    assert(!full());
    CodedPacket& slot = slots_[n_];
    slot = CodedPacket{};
    slot.acquire(g, payload_bytes, pool);
    meta_[n_] = 0;
    ++n_;
    return slot;
  }

  [[nodiscard]] CodedPacket& operator[](std::size_t i) {
    assert(i < n_);
    return slots_[i];
  }
  [[nodiscard]] const CodedPacket& operator[](std::size_t i) const {
    assert(i < n_);
    return slots_[i];
  }

  /// Per-packet metadata byte for pipeline stages (zeroed by push /
  /// emplace; meaning is defined by the pipeline that owns the batch).
  [[nodiscard]] std::uint8_t& meta(std::size_t i) {
    assert(i < n_);
    return meta_[i];
  }
  [[nodiscard]] std::uint8_t meta(std::size_t i) const {
    assert(i < n_);
    return meta_[i];
  }

  [[nodiscard]] std::span<CodedPacket> packets() noexcept {
    return {slots_.data(), n_};
  }
  [[nodiscard]] std::span<const CodedPacket> packets() const noexcept {
    return {slots_.data(), n_};
  }

  /// Release every row back to its pool and empty the batch.
  void clear() {
    for (std::size_t i = 0; i < n_; ++i) slots_[i] = CodedPacket{};
    n_ = 0;
  }

 private:
  std::array<CodedPacket, kBatchCapacity> slots_;
  std::array<std::uint8_t, kBatchCapacity> meta_{};
  std::size_t n_ = 0;
};

}  // namespace ncfn::coding
