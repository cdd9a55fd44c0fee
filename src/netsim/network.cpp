#include "netsim/network.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ncfn::netsim {

Link::Link(Network& net, NodeId from, NodeId to, const LinkConfig& cfg)
    : net_(net),
      from_(from),
      to_(to),
      capacity_bps_(cfg.capacity_bps),
      prop_delay_(cfg.prop_delay),
      jitter_(cfg.jitter),
      queue_limit_(cfg.queue_packets) {}

void Link::bind_obs(obs::Observability& obs) {
  trace_ = &obs.trace;
  const std::string prefix = "netsim.link." + std::to_string(from_) + "-" +
                             std::to_string(to_) + ".";
  m_enqueued_ = &obs.metrics.counter(prefix + "enqueued");
  m_delivered_ = &obs.metrics.counter(prefix + "delivered");
  m_bytes_ = &obs.metrics.counter(prefix + "bytes_delivered");
  m_drop_loss_ = &obs.metrics.counter(prefix + "dropped_loss");
  m_drop_queue_ = &obs.metrics.counter(prefix + "dropped_queue");
  m_drop_down_ = &obs.metrics.counter(prefix + "dropped_down");
  m_queue_depth_ = &obs.metrics.gauge(prefix + "queue_depth");
  // Cumulative serializer busy time: utilization over [0, T] is
  // busy_s / T without any per-delivery division on the hot path.
  m_busy_s_ = &obs.metrics.gauge(prefix + "busy_s");
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up) ++down_epoch_;  // packets in flight are lost at delivery time
  trace_->link_state(from_, to_, up);
}

void Link::transmit(std::span<Datagram> burst) {
  Simulator& sim = net_.sim();

  // Per-packet admission: loss model draws happen in arrival order, every
  // drop keeps its own trace line. Survivors move into the burst vector
  // that rides the shared delivery event.
  std::vector<Datagram> committed;
  committed.reserve(burst.size());
  double burst_tx = 0.0;
  for (Datagram& d : burst) {
    ++stats_.offered;
    if (!up_) {
      ++stats_.dropped_down;
      m_drop_down_->inc();
      trace_->packet_drop(from_, to_, d.wire_bytes(), "down");
      net_.recycle_buffer(std::move(d.payload));
      continue;
    }
    if (loss_ && loss_->drop(net_.rng())) {
      ++stats_.dropped_loss;
      m_drop_loss_->inc();
      trace_->packet_drop(from_, to_, d.wire_bytes(), "loss");
      net_.recycle_buffer(std::move(d.payload));
      continue;
    }
    if (queued_ >= queue_limit_) {
      ++stats_.dropped_queue;
      m_drop_queue_->inc();
      trace_->packet_drop(from_, to_, d.wire_bytes(), "queue");
      net_.recycle_buffer(std::move(d.payload));
      continue;
    }
    const Time tx = static_cast<double>(d.wire_bytes()) * 8.0 / capacity_bps_;
    busy_until_ = std::max(sim.now(), busy_until_) + tx;
    burst_tx += tx;
    ++queued_;
    trace_->packet_enqueue(from_, to_, d.wire_bytes(), queued_);
    committed.push_back(std::move(d));
  }
  if (committed.empty()) return;
  const std::size_t n = committed.size();
  m_enqueued_->inc(n);
  m_queue_depth_->set(static_cast<double>(queued_));
  m_busy_s_->add(burst_tx);

  // One departure for the burst's tail packet. The egress queue empties
  // when the serializer finishes, not when the burst lands `prop_delay_`
  // later: a long-delay path must not eat queue budget with packets that
  // are already in propagation. Scheduled before the delivery event so
  // that at equal timestamps (zero-delay links) the queue shrinks before
  // delivery is observed...
  sim.schedule_at(busy_until_, [this, n] { departure(n); });

  // ...and one delivery with a single jitter draw for the whole burst.
  Time deliver_at = busy_until_ + prop_delay_;
  if (jitter_ > 0) {
    deliver_at += std::uniform_real_distribution<Time>(0, jitter_)(net_.rng());
  }
  stats_.in_flight += n;
  sim.schedule_at(deliver_at, [this, epoch = down_epoch_,
                               pkts = std::move(committed)]() mutable {
    complete_delivery(std::move(pkts), epoch);
  });
}

void Link::departure(std::size_t n) {
  assert(queued_ >= n);
  queued_ -= n;
  m_queue_depth_->set(static_cast<double>(queued_));
}

void Link::complete_delivery(std::vector<Datagram> pkts,
                             std::uint64_t epoch) {
  stats_.in_flight -= pkts.size();
  if (epoch != down_epoch_) {
    // The link went down while the burst was committed to the wire; every
    // packet in it is lost together.
    stats_.dropped_down += pkts.size();
    m_drop_down_->inc(pkts.size());
    for (Datagram& p : pkts) {
      trace_->packet_drop(from_, to_, p.wire_bytes(), "down");
      net_.recycle_buffer(std::move(p.payload));
    }
    return;
  }
  std::uint64_t bytes = 0;
  for (const Datagram& p : pkts) {
    ++stats_.delivered;
    stats_.bytes_delivered += p.wire_bytes();
    bytes += p.wire_bytes();
    trace_->packet_deliver(from_, to_, p.wire_bytes(), queued_);
  }
  m_delivered_->inc(pkts.size());
  m_bytes_->inc(bytes);
  net_.deliver(pkts);
  // Payloads a handler left in place go back to the pool.
  for (Datagram& p : pkts) net_.recycle_buffer(std::move(p.payload));
}

NodeId Network::add_node(std::string name) {
  node_names_.push_back(std::move(name));
  return static_cast<NodeId>(node_names_.size() - 1);
}

Link& Network::add_link(NodeId from, NodeId to, const LinkConfig& cfg) {
  auto [it, added] = links_.try_emplace({from, to});
  if (!added) {
    std::fprintf(stderr, "ncfn: Network::add_link: %u->%u already has a link\n",
                 from, to);
    std::abort();
  }
  it->second = std::make_unique<Link>(*this, from, to, cfg);
  it->second->bind_obs(*obs_);
  return *it->second;
}

void Network::set_obs(obs::Observability* obs) {
  if (obs == nullptr) {
    std::fprintf(stderr, "ncfn: Network::set_obs: null hub\n");
    std::abort();
  }
  obs_ = obs;
  for (auto& [key, link] : links_) link->bind_obs(*obs);
}

void Network::add_duplex_link(NodeId a, NodeId b, const LinkConfig& cfg) {
  add_link(a, b, cfg);
  add_link(b, a, cfg);
}

Link* Network::link(NodeId from, NodeId to) {
  auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : it->second.get();
}

const Link* Network::link(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : it->second.get();
}

void Network::bind(NodeId node, Port port, DatagramHandler handler) {
  handlers_[{node, port}] = [h = std::move(handler)](std::span<Datagram> run) {
    for (const Datagram& d : run) h(d);
  };
}

void Network::bind_burst(NodeId node, Port port, BurstHandler handler) {
  handlers_[{node, port}] = std::move(handler);
}

void Network::unbind(NodeId node, Port port) {
  handlers_.erase({node, port});
}

bool Network::send(Datagram d) {
  Link* l = link(d.src, d.dst);
  if (l == nullptr) {
    recycle_buffer(std::move(d.payload));
    return false;
  }
  l->transmit(std::span<Datagram>(&d, 1));
  return true;
}

void Network::send_burst(std::vector<Datagram>&& burst) {
  // Consecutive same-(src, dst) runs share one link lookup and one
  // transmit; the common case (a lane flushing to one next hop) is a
  // single run.
  std::size_t i = 0;
  while (i < burst.size()) {
    std::size_t j = i + 1;
    while (j < burst.size() && burst[j].src == burst[i].src &&
           burst[j].dst == burst[i].dst) {
      ++j;
    }
    Link* l = link(burst[i].src, burst[i].dst);
    if (l == nullptr) {
      for (std::size_t k = i; k < j; ++k) {
        recycle_buffer(std::move(burst[k].payload));
      }
    } else {
      l->transmit(std::span<Datagram>(burst).subspan(i, j - i));
    }
    i = j;
  }
  burst.clear();
}

std::vector<std::string> Network::audit_conservation() const {
  std::vector<std::string> violations;
  for (const auto& [key, link] : links_) {
    const LinkStats& s = link->stats();
    if (s.conserved()) continue;
    violations.push_back(
        std::to_string(key.first) + "->" + std::to_string(key.second) +
        ": offered " + std::to_string(s.offered) + " != delivered " +
        std::to_string(s.delivered) + " + dropped " +
        std::to_string(s.dropped_loss + s.dropped_queue + s.dropped_down) +
        " + in_flight " + std::to_string(s.in_flight));
  }
  return violations;
}

std::vector<std::uint8_t> Network::take_buffer() {
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buf.clear();
  return buf;
}

void Network::recycle_buffer(std::vector<std::uint8_t>&& buf) {
  if (buf.capacity() == 0 || buffer_pool_.size() >= kMaxRecycledBuffers) {
    return;
  }
  buffer_pool_.push_back(std::move(buf));
}

void Network::deliver(std::span<Datagram> burst) {
  std::size_t i = 0;
  while (i < burst.size()) {
    std::size_t j = i + 1;
    while (j < burst.size() && burst[j].dst_port == burst[i].dst_port) ++j;
    auto it = handlers_.find({burst[i].dst, burst[i].dst_port});
    if (it != handlers_.end()) it->second(burst.subspan(i, j - i));
    // No binding: silently dropped, like a closed UDP port.
    i = j;
  }
}

std::optional<Time> Network::ping_rtt(NodeId a, NodeId b,
                                      std::size_t probe_bytes) const {
  const Link* fwd = link(a, b);
  const Link* rev = link(b, a);
  if (fwd == nullptr || rev == nullptr) return std::nullopt;
  const double bits = static_cast<double>(probe_bytes + kUdpIpOverhead) * 8.0;
  return fwd->prop_delay() + bits / fwd->capacity_bps() + rev->prop_delay() +
         bits / rev->capacity_bps();
}

std::optional<double> Network::probe_bandwidth_bps(NodeId a, NodeId b,
                                                   double noise_frac) {
  Link* l = link(a, b);
  if (l == nullptr) return std::nullopt;
  std::uniform_real_distribution<double> noise(1.0 - noise_frac,
                                               1.0 + noise_frac);
  return l->capacity_bps() * noise(rng_);
}

}  // namespace ncfn::netsim
