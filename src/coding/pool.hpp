// Freelist-backed packet buffer pool — the allocation-free data plane's
// memory layer.
//
// The steady-state coding hot path (encode, recode, decoder row
// elimination, NIC serialize) used to pay two std::vector heap
// allocations per CodedPacket. PacketPool recycles those buffers: a
// released buffer keeps its capacity on a freelist and the next acquire
// of the same-or-smaller size reuses it without touching the heap. After
// a short warmup (one buffer per concurrently-live packet) the hot path
// performs zero heap allocations — PoolStats::heap_allocs stays flat,
// which tests assert.
//
// PacketPool is a cheap value handle (shared_ptr to the freelist), so it
// threads through encoder/decoder/VNF constructors by value and buffers
// may safely outlive any one owner. A default-constructed handle is
// "null": acquire() then returns plain heap-backed buffers, so code paths
// without a pool (tests, one-shot tools) need no branches. Buffers are
// zero-filled on acquire — a recycled packet can never leak stale payload
// bytes. Single-threaded by design, like the rest of the simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ncfn::coding {

namespace detail {
struct PoolImpl;
}  // namespace detail

struct PoolStats {
  std::uint64_t acquires = 0;     // total acquire() calls
  std::uint64_t reuses = 0;       // served from the freelist, no heap work
  std::uint64_t heap_allocs = 0;  // acquires that had to grow/allocate
  std::uint64_t releases = 0;     // buffers returned to the pool
  std::uint64_t dropped = 0;      // released buffers discarded (freelist full)
  std::size_t free_buffers = 0;   // current freelist depth

  /// Buffers currently held by live PooledBufs. `releases` counts every
  /// buffer that came back, kept or dropped.
  [[nodiscard]] std::uint64_t outstanding() const {
    return acquires - releases;
  }
};

class PacketPool;

/// One recycled byte buffer. Move-only: one owner returns its storage
/// to the pool, on reset() or destruction.
class PooledBuf {
 public:
  PooledBuf() = default;
  PooledBuf(PooledBuf&& o) noexcept = default;
  PooledBuf& operator=(PooledBuf&& o) noexcept;
  PooledBuf(const PooledBuf&) = delete;
  PooledBuf& operator=(const PooledBuf&) = delete;
  ~PooledBuf();

  [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }
  [[nodiscard]] bool empty() const noexcept { return store_.empty(); }
  [[nodiscard]] std::uint8_t* data() noexcept { return store_.data(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return store_.data();
  }
  [[nodiscard]] std::span<std::uint8_t> span() noexcept {
    return {store_.data(), store_.size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {store_.data(), store_.size()};
  }

  /// Return the storage to the pool now; the buffer becomes empty.
  void reset() noexcept;

 private:
  friend class PacketPool;
  std::vector<std::uint8_t> store_;
  std::shared_ptr<detail::PoolImpl> pool_;  // null: plain heap buffer
};

class PacketPool {
 public:
  /// Null handle: acquire() hands out plain heap buffers, stats are empty.
  PacketPool() = default;

  /// A live pool keeping at most `max_free` idle buffers.
  [[nodiscard]] static PacketPool make(std::size_t max_free = 4096);

  [[nodiscard]] explicit operator bool() const noexcept {
    return impl_ != nullptr;
  }

  /// A zero-filled buffer of exactly `n` bytes, recycled from the
  /// freelist when possible (growth path: heap-allocates when the
  /// freelist is empty or its buffers are too small — the pool never
  /// fails, it just stops being free).
  [[nodiscard]] PooledBuf acquire(std::size_t n) const;

  [[nodiscard]] PoolStats stats() const;

 private:
  std::shared_ptr<detail::PoolImpl> impl_;
};

}  // namespace ncfn::coding
