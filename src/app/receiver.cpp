#include "app/receiver.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ncfn::app {

McReceiver::McReceiver(netsim::Network& net, netsim::NodeId node,
                       const GenerationProvider& provider,
                       const ReceiverConfig& cfg)
    : net_(net), node_(node), provider_(provider), cfg_(cfg) {
  obs::MetricsRegistry& metrics = net_.obs()->metrics;
  m_generations_decoded_ = &metrics.counter("app.generations_decoded");
  m_payload_bytes_ = &metrics.counter("app.payload_bytes");
  m_repair_requests_ = &metrics.counter("app.repair_requests_sent");
  m_verify_failures_ = &metrics.counter("app.verify_failures");
  // Recovery latency spans sub-second re-routes up to repair-loop-bound
  // multi-second rebuilds.
  static constexpr double kRecoveryBounds[] = {0.1, 0.25, 0.5, 1.0,
                                               2.5,  5.0, 10.0};
  m_recovery_s_ = &metrics.histogram("app.recovery_time_s", kRecoveryBounds);
  vnf_ = std::make_unique<vnf::CodingVnf>(net_, node_, cfg_.vnf);
  vnf_->configure_session(cfg_.session, ctrl::VnfRole::kDecode,
                          cfg_.data_port);
  vnf_->set_decode_sink(
      [this](coding::SessionId, coding::GenerationId gen,
             std::vector<std::vector<std::uint8_t>> blocks) {
        on_generation_decoded(gen, blocks);
      });
  vnf_->set_packet_tap([this](coding::SessionId, coding::GenerationId gen,
                              std::size_t rank, bool complete, bool) {
    on_packet(gen, rank, complete);
  });
}

void McReceiver::start() { start_time_ = net_.sim().now(); }

double McReceiver::goodput_mbps() const {
  // For a finished transfer, average over the actual transfer time, not
  // however long the simulation kept running afterwards.
  const double end =
      stats_.completed_at >= 0 ? stats_.completed_at : net_.sim().now();
  const double elapsed = end - start_time_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(stats_.payload_bytes) * 8.0 / elapsed / 1e6;
}

void McReceiver::on_packet(coding::GenerationId gen, std::size_t /*rank*/,
                           bool complete) {
  if (complete || decoded_.count(gen) > 0 || !cfg_.enable_repair) return;
  arm_repair_timer(gen);
}

void McReceiver::arm_repair_timer(coding::GenerationId gen) {
  GenProgress& gp = progress_[gen];
  if (gp.timer_armed) return;
  gp.timer_armed = true;
  net_.sim().schedule(cfg_.repair_timeout_s, [this, gen] {
    auto it = progress_.find(gen);
    if (it == progress_.end()) return;  // decoded meanwhile
    it->second.timer_armed = false;
    if (decoded_.count(gen) > 0) return;
    if (it->second.repair_rounds >= kMaxRepairRounds) return;
    ++it->second.repair_rounds;

    // How much is still missing?
    std::size_t rank = 0;
    std::uint64_t have_mask = 0;
    const std::size_t g = cfg_.vnf.params.generation_blocks;
    if (auto* d = vnf_->find_decoder(cfg_.session, gen)) {
      rank = d->rank();
      for (std::size_t c = 0; c < g && c < 64; ++c) {
        if (d->has_pivot(c)) have_mask |= 1ull << c;
      }
    }
    if (rank >= g) return;

    Feedback fb;
    fb.type = FeedbackType::kRepair;
    fb.session = cfg_.session;
    fb.generation = gen;
    fb.count = static_cast<std::uint16_t>(g - rank);
    // The 8-byte wire mask can name at most 64 blocks. For larger
    // generations it cannot describe what is missing (the pivot scan
    // above stops at bit 63), so send 0 — the source then answers with
    // coded repairs, which close a rank gap at any generation size.
    // Truncating instead (the old behaviour) made the Non-NC baseline
    // retransmit only blocks 0..63 and livelock on g > 64.
    fb.block_mask =
        g > 64 ? 0
               : (~have_mask & ((g == 64) ? ~0ull : ((1ull << g) - 1)));
    fb.receiver_node = node_;
    netsim::Datagram d;
    d.src = node_;
    d.dst = cfg_.source_node;
    d.dst_port = cfg_.source_feedback_port;
    d.payload = fb.serialize();
    if (net_.send(std::move(d))) {
      ++stats_.repair_requests_sent;
      m_repair_requests_->inc();
    }
    arm_repair_timer(gen);  // keep retrying until decoded or capped
  });
}

void McReceiver::mark_disruption() { disruption_at_ = net_.sim().now(); }

void McReceiver::on_generation_decoded(
    coding::GenerationId gen,
    const std::vector<std::vector<std::uint8_t>>& blocks) {
  if (!decoded_.insert(gen).second) return;
  progress_.erase(gen);

  if (disruption_at_ >= 0) {
    stats_.last_recovery_s = net_.sim().now() - disruption_at_;
    m_recovery_s_->record(stats_.last_recovery_s);
    disruption_at_ = -1;
  }

  // Unpadded byte count of this generation.
  const std::size_t gen_bytes = cfg_.vnf.params.generation_bytes();
  const std::size_t total = provider_.total_bytes();
  const std::size_t off = static_cast<std::size_t>(gen) * gen_bytes;
  const std::size_t n = off < total ? std::min(gen_bytes, total - off) : 0;
  stats_.payload_bytes += n;
  ++stats_.generations_decoded;
  m_generations_decoded_->inc();
  m_payload_bytes_->inc(n);

  // Both the check and the reassembly take each block's unpadded bytes,
  // the first n of the generation, a block at a time.
  if (verify_ != nullptr) {
    const auto expected = verify_->generation_bytes(gen);
    bool ok = expected.size() == n;
    std::size_t off = 0;
    for (const auto& blk : blocks) {
      if (!ok || off == n) break;
      const std::size_t len = std::min(blk.size(), n - off);
      ok = std::memcmp(blk.data(), expected.data() + off, len) == 0;
      off += len;
    }
    if (!ok) {
      ++stats_.verify_failures;
      m_verify_failures_->inc();
    }
  }

  if (ordered_sink_) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(n);
    for (const auto& blk : blocks) {
      const std::size_t len = std::min(blk.size(), n - bytes.size());
      bytes.insert(bytes.end(), blk.begin(),
                   blk.begin() + static_cast<std::ptrdiff_t>(len));
    }
    held_back_[gen] = std::move(bytes);
    while (true) {
      auto it = held_back_.find(next_ordered_);
      if (it == held_back_.end()) break;
      ordered_sink_(next_ordered_, std::move(it->second));
      held_back_.erase(it);
      ++next_ordered_;
    }
  }

  if (gen == 0) {
    stats_.first_generation_decoded_at = net_.sim().now();
    // First-generation ACK straight back to the source (Table II).
    Feedback ack;
    ack.type = FeedbackType::kAck;
    ack.session = cfg_.session;
    ack.generation = 0;
    ack.receiver_node = node_;
    netsim::Datagram d;
    d.src = node_;
    d.dst = cfg_.source_node;
    d.dst_port = cfg_.source_feedback_port;
    d.payload = ack.serialize();
    net_.send(std::move(d));
  }

  if (decoded_.size() >= provider_.generation_count()) {
    stats_.completed_at = net_.sim().now();
  }
}

}  // namespace ncfn::app
