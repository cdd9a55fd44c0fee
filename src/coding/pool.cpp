#include "coding/pool.hpp"

#include <utility>

namespace ncfn::coding {

namespace detail {

struct PoolImpl {
  std::vector<std::vector<std::uint8_t>> free;
  std::size_t max_free = 4096;
  PoolStats stats;
};

namespace {

/// Hand `store` back to its pool (or let it free on the heap).
void release_store(std::vector<std::uint8_t>& store,
                   const std::shared_ptr<PoolImpl>& pool) noexcept {
  if (store.capacity() == 0) return;
  if (pool == nullptr) {
    store = {};
    return;
  }
  ++pool->stats.releases;
  if (pool->free.size() >= pool->max_free) {
    ++pool->stats.dropped;
    store = {};
    return;
  }
  pool->free.push_back(std::move(store));
  store = {};
}

}  // namespace

}  // namespace detail

PooledBuf& PooledBuf::operator=(PooledBuf&& o) noexcept {
  if (this != &o) {
    detail::release_store(store_, pool_);
    store_ = std::move(o.store_);
    pool_ = std::move(o.pool_);
  }
  return *this;
}

PooledBuf::~PooledBuf() { detail::release_store(store_, pool_); }

void PooledBuf::reset() noexcept {
  detail::release_store(store_, pool_);
  pool_.reset();
}

PacketPool PacketPool::make(std::size_t max_free) {
  PacketPool p;
  p.impl_ = std::make_shared<detail::PoolImpl>();
  p.impl_->max_free = max_free;
  return p;
}

PooledBuf PacketPool::acquire(std::size_t n) const {
  PooledBuf buf;
  buf.pool_ = impl_;
  if (impl_ == nullptr) {
    buf.store_.assign(n, 0);
    return buf;
  }
  auto& st = impl_->stats;
  ++st.acquires;
  if (!impl_->free.empty() && impl_->free.back().capacity() >= n) {
    buf.store_ = std::move(impl_->free.back());
    impl_->free.pop_back();
    ++st.reuses;
  } else {
    ++st.heap_allocs;
  }
  // assign() zero-fills all n bytes: recycled buffers never leak stale
  // payload into a fresh packet.
  buf.store_.assign(n, 0);
  return buf;
}

PoolStats PacketPool::stats() const {
  if (impl_ == nullptr) return {};
  PoolStats s = impl_->stats;
  s.free_buffers = impl_->free.size();
  return s;
}

}  // namespace ncfn::coding
