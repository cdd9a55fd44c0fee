#include "app/source.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace ncfn::app {

namespace {
constexpr std::size_t kGenerationCacheLimit = 8;
}

McSource::McSource(netsim::Network& net, netsim::NodeId node,
                   const GenerationProvider& provider,
                   const SourceConfig& cfg)
    : net_(net), node_(node), provider_(provider), cfg_(cfg), rng_(cfg.seed) {
  obs::MetricsRegistry& metrics = net_.obs()->metrics;
  m_packets_sent_ = &metrics.counter("app.packets_sent");
  m_repair_packets_sent_ = &metrics.counter("app.repair_packets_sent");
  m_repair_requests_ = &metrics.counter("app.repair_requests_received");
  net_.bind(node_, cfg_.feedback_port,
            [this](const netsim::Datagram& d) { on_feedback(d); });
}

McSource::~McSource() { net_.unbind(node_, cfg_.feedback_port); }

void McSource::configure_hops(
    std::vector<std::pair<ctrl::NextHop, double>> hops) {
  tree_mode_ = false;
  pacers_.clear();
  const auto& p = cfg_.params;
  // The wire rate on each edge stays at the plan's f_m(e); redundancy
  // packets displace data packets (each generation takes g+R slots), so
  // the effective data rate is lambda * g / (g + R) — protection is paid
  // for with goodput, never by overdriving the link.
  for (const auto& [hop, rate_mbps] : hops) {
    if (rate_mbps <= 0) continue;
    Pacer pacer;
    pacer.hops = {hop};
    pacer.interval_s =
        static_cast<double>(p.block_size) * 8.0 / (rate_mbps * 1e6);
    pacer.quota_per_gen =
        static_cast<double>(p.generation_blocks + cfg_.redundancy) *
        rate_mbps / cfg_.lambda_mbps;
    pacers_.push_back(std::move(pacer));
  }
}

void McSource::reconfigure_hops(
    std::vector<std::pair<ctrl::NextHop, double>> hops, double lambda_mbps) {
  assert(!tree_mode_ && "live rewire is NC-mode only");
  if (lambda_mbps > 0) cfg_.lambda_mbps = lambda_mbps;
  // Resume from the least-advanced generation across the old pacers: the
  // new edge set must not skip a generation some receiver never got, and
  // redundant coded packets for already-decoded generations are harmless.
  coding::GenerationId resume = provider_.generation_count();
  std::deque<Feedback> pending;
  for (Pacer& p : pacers_) {
    resume = std::min(resume, p.gen_cursor);
    for (const Feedback& fb : p.repair_queue) pending.push_back(fb);
  }
  ++pacer_epoch_;  // invalidate every tick scheduled against the old pacers
  configure_hops(std::move(hops));
  for (Pacer& p : pacers_) p.gen_cursor = resume;
  // Outstanding repair work survives the rewire, spread round-robin.
  if (!pacers_.empty()) {
    for (const Feedback& fb : pending) {
      pacers_[repair_rr_++ % pacers_.size()].repair_queue.push_back(fb);
    }
  }
  if (started_) {
    for (std::size_t i = 0; i < pacers_.size(); ++i) {
      pacers_[i].running = true;
      const double phase =
          pacers_[i].interval_s *
          (1.0 + 0.1 * static_cast<double>(i) /
                     static_cast<double>(pacers_.size()));
      schedule_tick(i, phase);
    }
  }
}

void McSource::configure_trees(const graph::Topology& topo,
                               std::vector<MulticastTree> trees) {
  tree_mode_ = true;
  trees_ = std::move(trees);
  schedule_ = tree_schedule(trees_);
  pacers_.clear();
  const auto& p = cfg_.params;
  for (std::size_t j = 0; j < trees_.size(); ++j) {
    Pacer pacer;
    pacer.tree_index = j;
    // Root hops: this node's out-edges within the tree. NodeIdx in the
    // topology equals NodeId in the simulated network (see SimNet).
    for (graph::NodeIdx hop :
         trees_[j].next_hops(topo, static_cast<graph::NodeIdx>(node_))) {
      pacer.hops.push_back(
          ctrl::NextHop{static_cast<std::uint32_t>(hop), cfg_.data_port});
    }
    pacer.interval_s =
        static_cast<double>(p.block_size) * 8.0 / (trees_[j].rate_mbps * 1e6);
    // First generation belonging to this tree.
    coding::GenerationId g = 0;
    while (g < provider_.generation_count() &&
           schedule_[g % schedule_.size()] != j) {
      ++g;
    }
    pacer.tree_cursor = g;
    pacers_.push_back(std::move(pacer));
  }
}

void McSource::start() {
  assert(!pacers_.empty() && "configure hops or trees before start()");
  started_ = true;
  start_time_ = net_.sim().now();
  for (std::size_t i = 0; i < pacers_.size(); ++i) {
    pacers_[i].running = true;
    // Small index-dependent phase offset de-synchronizes the pacers.
    const double phase =
        pacers_[i].interval_s * (1.0 + 0.1 * static_cast<double>(i) /
                                           static_cast<double>(pacers_.size()));
    schedule_tick(i, phase);
  }
}

void McSource::schedule_tick(std::size_t idx, double delay_s) {
  net_.sim().schedule(delay_s, [this, idx, epoch = pacer_epoch_] {
    if (epoch == pacer_epoch_) pacer_tick(idx);
  });
}

bool McSource::data_exhausted() const {
  if (!started_) return false;
  for (const Pacer& p : pacers_) {
    const coding::GenerationId cursor =
        tree_mode_ ? p.tree_cursor : p.gen_cursor;
    if (cursor < provider_.generation_count()) return false;
  }
  return true;
}

coding::Encoder McSource::encoder(coding::GenerationId gen) {
  auto it = generations_.find(gen);
  if (it == generations_.end()) {
    it = generations_.emplace(gen, provider_.generation(gen)).first;
    // Keep the cache small; evict the oldest generations — but never the
    // one just materialized (a repair for an old generation would
    // otherwise be evicted before use, since old ids sort first).
    while (generations_.size() > kGenerationCacheLimit) {
      auto victim = generations_.begin();
      if (victim == it) ++victim;
      generations_.erase(victim);
    }
  }
  return coding::Encoder(cfg_.session, it->second, rng_, pool_);
}

void McSource::send_packet(Pacer& p, const coding::CodedPacket& pkt,
                           bool repair) {
  for (const ctrl::NextHop& hop : p.hops) {
    netsim::Datagram d;
    d.src = node_;
    d.dst = hop.node;
    d.dst_port = hop.port;
    d.payload = net_.take_buffer();
    pkt.serialize_into(d.payload);
    if (net_.send(std::move(d))) {
      ++stats_.packets_sent;
      m_packets_sent_->inc();
      if (repair) {
        ++stats_.repair_packets_sent;
        m_repair_packets_sent_->inc();
      }
    }
  }
}

void McSource::pacer_tick(std::size_t idx) {
  Pacer& p = pacers_[idx];
  if (!started_) {
    p.running = false;
    return;
  }
  bool emitted = false;

  if (!p.repair_queue.empty()) {
    Feedback fb = p.repair_queue.front();
    p.repair_queue.pop_front();
    if (fb.generation < provider_.generation_count()) {
      coding::Encoder enc = encoder(fb.generation);
      if (tree_mode_ && fb.block_mask != 0) {
        // Retransmit a specific original block.
        const auto bit = static_cast<std::size_t>(
            std::countr_zero(fb.block_mask));
        if (bit < cfg_.params.generation_blocks) {
          send_packet(p, enc.encode_systematic(bit), /*repair=*/true);
          emitted = true;
        }
      } else {
        send_packet(p, enc.encode_random(), /*repair=*/true);
        emitted = true;
      }
    }
  } else if (tree_mode_) {
    if (p.tree_cursor < provider_.generation_count()) {
      send_packet(p,
                  encoder(p.tree_cursor).encode_systematic(p.block_cursor),
                  /*repair=*/false);
      emitted = true;
      if (p.tree_cursor == 0) {
        // Track completion of the first generation for Table II.
        if (p.block_cursor + 1 == cfg_.params.generation_blocks &&
            first_gen_sent_at_ < 0) {
          first_gen_sent_at_ = net_.sim().now();
        }
      }
      if (++p.block_cursor >= cfg_.params.generation_blocks) {
        p.block_cursor = 0;
        do {
          ++p.tree_cursor;
        } while (p.tree_cursor < provider_.generation_count() &&
                 schedule_[p.tree_cursor % schedule_.size()] !=
                     p.tree_index);
      }
    }
  } else {
    // Take the next generation's quota if the current one is spent.
    if (p.remaining == 0) {
      while (p.gen_cursor < provider_.generation_count()) {
        p.quota_acc += p.quota_per_gen;
        const int take = static_cast<int>(std::floor(p.quota_acc + 1e-9));
        if (take > 0) {
          p.quota_acc -= take;
          p.remaining = take;
          break;
        }
        ++p.gen_cursor;  // this edge carries nothing for this generation
      }
    }
    if (p.remaining > 0 && p.gen_cursor < provider_.generation_count()) {
      send_packet(p, encoder(p.gen_cursor).encode_random(),
                  /*repair=*/false);
      emitted = true;
      if (--p.remaining == 0) ++p.gen_cursor;
      if (first_gen_sent_at_ < 0) {
        bool all_past_gen0 = true;
        for (const Pacer& q : pacers_) {
          all_past_gen0 = all_past_gen0 && q.gen_cursor > 0;
        }
        if (all_past_gen0) first_gen_sent_at_ = net_.sim().now();
      }
    }
  }

  if (emitted || !p.repair_queue.empty() || !data_exhausted()) {
    schedule_tick(idx, p.interval_s);
  } else {
    p.running = false;  // idle; a repair request will wake it up
  }
}

void McSource::on_feedback(const netsim::Datagram& d) {
  auto fb = Feedback::parse(d.payload);
  if (!fb || fb->session != cfg_.session) return;

  if (fb->type == FeedbackType::kAck) {
    if (first_gen_sent_at_ >= 0 &&
        stats_.first_gen_ack_rtt.count(fb->receiver_node) == 0) {
      stats_.first_gen_ack_rtt[fb->receiver_node] =
          net_.sim().now() - first_gen_sent_at_;
    }
    return;
  }

  ++stats_.repair_requests;
  m_repair_requests_->inc();
  if (pacers_.empty()) return;

  if (tree_mode_) {
    const std::size_t tree = schedule_[fb->generation % schedule_.size()];
    std::size_t pidx = 0;
    for (std::size_t i = 0; i < pacers_.size(); ++i) {
      if (pacers_[i].tree_index == tree) pidx = i;
    }
    // One queue entry per missing block. A zero mask (the receiver cannot
    // name blocks >= 64) asks for `count` coded repairs instead.
    std::uint64_t mask = fb->block_mask;
    if (mask == 0) {
      for (std::uint16_t c = 0; c < fb->count; ++c) {
        pacers_[pidx].repair_queue.push_back(*fb);
      }
    }
    while (mask != 0) {
      const std::uint64_t bit = mask & (~mask + 1);
      mask ^= bit;
      Feedback one = *fb;
      one.block_mask = bit;
      pacers_[pidx].repair_queue.push_back(one);
    }
    if (!pacers_[pidx].running && started_) {
      pacers_[pidx].running = true;
      schedule_tick(pidx, pacers_[pidx].interval_s);
    }
  } else {
    // Spread the requested coded packets across the pacers round-robin.
    for (std::uint16_t c = 0; c < fb->count; ++c) {
      const std::size_t pidx = repair_rr_++ % pacers_.size();
      Feedback one = *fb;
      one.block_mask = 0;
      pacers_[pidx].repair_queue.push_back(one);
      if (!pacers_[pidx].running && started_) {
        pacers_[pidx].running = true;
        schedule_tick(pidx, pacers_[pidx].interval_s);
      }
    }
  }
}

}  // namespace ncfn::app
