#include "vnf/coding_vnf.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string>

namespace ncfn::vnf {

CodingVnf::CodingVnf(netsim::Network& net, netsim::NodeId node,
                     const VnfConfig& cfg)
    : net_(net),
      node_(node),
      cfg_(cfg),
      rng_(cfg.seed),
      buffer_(cfg.params, *net.obs(), node) {
  cfg_.max_batch =
      std::clamp<std::size_t>(cfg_.max_batch, 1, coding::kBatchCapacity);
  lanes_.resize(1);
  obs::Observability& obs = *net_.obs();
  trace_ = &obs.trace;
  const std::string p = "vnf.node." + std::to_string(node_) + ".";
  m_received_ = &obs.metrics.counter(p + "received");
  m_innovative_ = &obs.metrics.counter(p + "innovative");
  m_emitted_ = &obs.metrics.counter(p + "emitted");
  m_recoded_ = &obs.metrics.counter(p + "recoded");
  m_proc_dropped_ = &obs.metrics.counter(p + "proc_dropped");
  m_decoded_ = &obs.metrics.counter(p + "decoded_generations");
  m_crash_dropped_ = &obs.metrics.counter(p + "crash_dropped");
  m_batches_ = &obs.metrics.counter(p + "batches");
  m_lane_backlog_ = &obs.metrics.gauge(p + "lane_backlog");
  static constexpr double kBatchBounds[] = {1, 2, 4, 8, 16, 32};
  h_batch_size_ = &obs.metrics.histogram(p + "batch_size", kBatchBounds);
}

CodingVnf::~CodingVnf() {
  for (const auto& [id, st] : sessions_) net_.unbind(node_, st.port);
}

void CodingVnf::set_lanes(std::size_t lanes) {
  assert(lanes >= 1);
  if (lanes == lanes_.size()) return;
  // Re-sharding moves every queued packet to the lane its generation
  // hashes to under the new count; surviving drain events clamp to their
  // lane's queue, so nothing is processed twice or lost.
  std::vector<coding::CodedPacket> pending;
  for (Lane& lane : lanes_) {
    while (!lane.queue.empty()) {
      pending.push_back(std::move(lane.queue.front()));
      lane.queue.pop_front();
    }
  }
  lanes_.resize(lanes);
  for (coding::CodedPacket& p : pending) {
    lanes_[lane_of(p.session, p.generation)].queue.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) start_drain(i);
}

void CodingVnf::configure_session(coding::SessionId id, ctrl::VnfRole role,
                                  netsim::Port port) {
  auto& st = sessions_[id];
  if (st.port != 0 && st.port != port) net_.unbind(node_, st.port);
  // Generations this session delivered as a decoder gave their rows
  // back; in any other role a late arrival opens fresh state instead.
  if (st.role == ctrl::VnfRole::kDecode && role != ctrl::VnfRole::kDecode) {
    buffer_.erase_released(id);
  }
  st.role = role;
  st.port = port;
  net_.bind_burst(node_, port,
                  [this](std::span<netsim::Datagram> b) { on_burst(b); });
}

void CodingVnf::drop_session(coding::SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  net_.unbind(node_, it->second.port);
  buffer_.erase_session(id);
  cached_state_ = nullptr;  // the arrival-path cache may point at `it`
  sessions_.erase(it);
}

void CodingVnf::set_next_hops(coding::SessionId id,
                              std::vector<NextHopRate> hops) {
  auto& st = sessions_[id];
  st.hops = std::move(hops);
  st.ledger.clear();
  st.trees.reset();
}

void CodingVnf::set_tree_routing(coding::SessionId id, TreeRouting routing) {
  assert(!routing.schedule.empty());
  auto& st = sessions_[id];
  st.trees = std::move(routing);
  st.hops.clear();
  st.ledger.clear();
}

void CodingVnf::pause() { paused_ = true; }

void CodingVnf::crash() {
  if (crashed_) return;
  crashed_ = true;
  // Everything the process held in memory dies with it: decoder state,
  // emission credits, deferred emissions, lane queues, paused backlog.
  for (auto& [id, st] : sessions_) {
    buffer_.erase_session(id);
    st.ledger.clear();
  }
  wipe();
  trace_->vnf_crash(node_);
}

void CodingVnf::restart() {
  if (!crashed_) return;
  crashed_ = false;
  trace_->vnf_restart(node_);
}

void CodingVnf::reset(const coding::CodingParams& params) {
  for (const auto& [id, st] : sessions_) net_.unbind(node_, st.port);
  sessions_.clear();
  cached_state_ = nullptr;
  cfg_.params = params;
  // A fresh buffer holds no decoder yet, so moving it in leaves no
  // decoder pointing at the temporary's handles.
  buffer_ = coding::GenerationBuffer(params, *net_.obs(), node_);
  wipe();
}

void CodingVnf::wipe() {
  ++crash_epoch_;
  for (Lane& lane : lanes_) {
    queued_total_ -= lane.queue.size();
    lane.queue.clear();
  }
  m_lane_backlog_->set(static_cast<double>(queued_total_));
  paused_backlog_.clear();
  paused_ = false;
}

void CodingVnf::resume() {
  paused_ = false;
  auto backlog = std::move(paused_backlog_);
  paused_backlog_.clear();
  std::size_t i = 0;
  while (i < backlog.size()) {
    const std::size_t k = std::min(backlog.size() - i, cfg_.max_batch);
    batch_.clear();
    for (std::size_t t = 0; t < k; ++t) {
      batch_.push(std::move(backlog[i + t]));
    }
    i += k;
    run_pipeline(batch_);
  }
}

double CodingVnf::service_time() const {
  const auto& p = cfg_.params;
  const double work_bytes =
      2.0 * static_cast<double>(p.generation_blocks) *
      static_cast<double>(p.block_size + p.generation_blocks);
  return cfg_.fixed_overhead_s + work_bytes / cfg_.proc_rate_Bps;
}

std::size_t CodingVnf::lane_of(coding::SessionId s,
                               coding::GenerationId g) const {
  const std::uint64_t key = (static_cast<std::uint64_t>(s) << 32) | g;
  return std::hash<std::uint64_t>{}(key) % lanes_.size();
}

// --- arrivals ---------------------------------------------------------

void CodingVnf::on_burst(std::span<netsim::Datagram> burst) {
  if (crashed_) {
    // The process is dead; the bound port drops traffic on the floor.
    m_crash_dropped_->inc(burst.size());
    return;
  }
  // Enqueue the whole burst before arming any drain so the first service
  // event sees the full backlog and drains a full batch, not a singleton.
  touched_lanes_.clear();
  for (const netsim::Datagram& d : burst) {
    auto pkt =
        coding::CodedPacket::parse(d.payload, cfg_.params, buffer_.pool());
    if (!pkt) continue;  // not an NC packet for our parameters
    // An all-zero coefficient vector carries nothing, and no encoder or
    // recoder emits one; a recoder holding only such rows would have no
    // pivot to recode from.
    const auto cs = pkt->coeffs();
    if (std::all_of(cs.begin(), cs.end(),
                    [](std::uint8_t c) { return c == 0; })) {
      continue;
    }
    // A burst is overwhelmingly one session's packets back to back; cache
    // the last hit so only the first packet of a run pays the map walk.
    if (cached_state_ == nullptr || cached_session_ != pkt->session) {
      auto sit = sessions_.find(pkt->session);
      if (sit == sessions_.end()) continue;
      cached_session_ = sit->first;
      cached_state_ = &sit->second;
    }

    // Admission to the processing lane serving this generation.
    const std::size_t idx = lane_of(pkt->session, pkt->generation);
    Lane& lane = lanes_[idx];
    if (lane.queue.size() >= cfg_.proc_queue_limit) {
      m_proc_dropped_->inc();
      continue;
    }
    lane.queue.push_back(std::move(*pkt));
    ++queued_total_;
    if (std::find(touched_lanes_.begin(), touched_lanes_.end(), idx) ==
        touched_lanes_.end()) {
      touched_lanes_.push_back(idx);
    }
  }
  // Once per arrival burst, not per packet: Gauge::set only stores, so
  // intermediate values are invisible anyway.
  m_lane_backlog_->set(static_cast<double>(queued_total_));
  for (const std::size_t idx : touched_lanes_) start_drain(idx);
}

void CodingVnf::start_drain(std::size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  if (lane.draining || lane.queue.empty()) return;
  const std::size_t k = std::min(lane.queue.size(), cfg_.max_batch);
  netsim::Simulator& sim = net_.sim();
  const netsim::Time start = std::max(sim.now(), lane.busy_until);
  lane.busy_until = start + static_cast<double>(k) * service_time();
  lane.draining = true;
  // Capture the lane by index, not reference: set_lanes() may shrink
  // lanes_ while this event is in flight.
  sim.schedule_at(lane.busy_until, [this, lane_idx, k, epoch = crash_epoch_] {
    drain(lane_idx, k, epoch);
  });
}

void CodingVnf::drain(std::size_t lane_idx, std::size_t k,
                      std::uint64_t epoch) {
  if (lane_idx >= lanes_.size()) return;  // lanes shrank; work re-sharded
  Lane& lane = lanes_[lane_idx];
  lane.draining = false;
  if (crashed_ || epoch != crash_epoch_) {
    // Work admitted before a crash died with the process (the queue was
    // wiped); re-arm for anything admitted since restart.
    start_drain(lane_idx);
    return;
  }
  k = std::min(k, lane.queue.size());
  batch_.clear();
  for (std::size_t t = 0; t < k; ++t) {
    batch_.push(std::move(lane.queue.front()));
    lane.queue.pop_front();
  }
  queued_total_ -= k;
  m_lane_backlog_->set(static_cast<double>(queued_total_));
  if (paused_) {
    // Serviced while paused: buffered, nothing emitted until resume().
    for (coding::CodedPacket& p : batch_.packets()) {
      paused_backlog_.push_back(std::move(p));
    }
    batch_.clear();
  } else {
    run_pipeline(batch_);
  }
  start_drain(lane_idx);
}

// --- pipeline ---------------------------------------------------------
//
// Two passes over the batch. Ingest folds every packet into the decoding
// matrices and annotates per-packet facts (innovative / first-uncoded /
// completed-now) on the batch metadata; emit walks same-(session,
// generation) runs, settles emission credits, and turns earned emissions
// into one outgoing burst.

void CodingVnf::run_pipeline(coding::PacketBatch& batch) {
  if (batch.empty()) return;
  m_batches_->inc();
  h_batch_size_->record(static_cast<double>(batch.size()));
  ingest_batch(batch);
  emit_batch(batch);
  batch.clear();
  flush_burst();
}

void CodingVnf::ingest_batch(coding::PacketBatch& batch) {
  std::uint64_t received = 0;
  std::uint64_t innovative = 0;
  // Consecutive packets usually share (session, generation) — one lane
  // serves one generation's stream — so both map lookups cache across
  // the run.
  coding::SessionId run_session = 0;
  SessionState* run_st = nullptr;
  coding::GenerationId run_gen = 0;
  coding::Decoder* run_dec = nullptr;
  for (std::size_t p = 0; p < batch.size(); ++p) {
    coding::CodedPacket& pkt = batch[p];
    batch.meta(p) = 0;
    if (run_st == nullptr || pkt.session != run_session) {
      auto sit = sessions_.find(pkt.session);
      run_st = sit == sessions_.end() ? nullptr : &sit->second;
      run_session = pkt.session;
      run_dec = nullptr;
    }
    if (run_st == nullptr) continue;  // session dropped while queued
    ++received;

    if (run_dec == nullptr || pkt.generation != run_gen) {
      run_dec = &buffer_.state(pkt.session, pkt.generation);
      run_gen = pkt.generation;
    }
    coding::Decoder& dec = *run_dec;
    const bool was_complete = dec.complete();
    const bool first_of_generation = dec.packets_seen() == 0;
    const bool innov = dec.add(pkt);
    std::uint8_t m = 0;
    if (innov) {
      m |= kMetaInnovative;
      ++innovative;
    }
    if (first_of_generation && dec.rank() <= 1) m |= kMetaFirstUncoded;
    if (!was_complete && dec.complete()) m |= kMetaCompletedNow;
    batch.meta(p) = m;
    if (tap_) {
      tap_(pkt.session, pkt.generation, dec.rank(), dec.complete(), innov);
    }
  }
  m_received_->inc(received);
  m_innovative_->inc(innovative);
}

void CodingVnf::emit_batch(coding::PacketBatch& batch) {
  const std::size_t n = batch.size();
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && batch[j].session == batch[i].session &&
           batch[j].generation == batch[i].generation) {
      ++j;
    }
    auto sit = sessions_.find(batch[i].session);
    coding::Decoder* dec =
        sit == sessions_.end()
            ? nullptr
            : buffer_.find(batch[i].session, batch[i].generation);
    if (dec == nullptr || dec->released()) {  // released: delivered already
      i = j;
      continue;
    }
    SessionState& st = sit->second;
    switch (st.role) {
      case ctrl::VnfRole::kDecode:
        for (std::size_t p = i; p < j; ++p) {
          // With a tiny buffer a later generation in this batch can evict
          // the decoder that completed and reopen its generation, so the
          // decoder found here may be a newer, still incomplete one.
          if ((batch.meta(p) & kMetaCompletedNow) == 0 || !dec->complete()) {
            continue;
          }
          m_decoded_->inc();
          if (sink_) {
            sink_(batch[p].session, batch[p].generation, dec->recover());
          }
          // A destination never reads a delivered generation again: its
          // rows go back to the pool, and the tombstone keeps the FIFO
          // slot and marks late duplicates non-innovative.
          dec->release();
          break;  // a run completes its generation at most once
        }
        break;
      case ctrl::VnfRole::kForward:
      case ctrl::VnfRole::kRecode:
        if (st.trees) {
          // Routing-only tree forwarding: copy each innovative packet
          // along the generation's tree.
          const TreeRouting& tr = *st.trees;
          const std::size_t tree =
              tr.schedule[batch[i].generation % tr.schedule.size()];
          if (tree >= tr.hops_per_tree.size()) break;
          for (std::size_t p = i; p < j; ++p) {
            if ((batch.meta(p) & kMetaInnovative) == 0) continue;
            for (const ctrl::NextHop& hop : tr.hops_per_tree[tree]) {
              if (net_.link(node_, hop.node) == nullptr) continue;
              queue_send(hop, batch[p]);
            }
          }
        } else {
          credit_run(st, batch, i, j, *dec);
          // A newly completed generation releases its deferred emissions
          // with fully-mixed content.
          for (std::size_t p = i; p < j; ++p) {
            if ((batch.meta(p) & kMetaCompletedNow) != 0) {
              flush_pending(batch[p].session, batch[p].generation);
              break;
            }
          }
        }
        break;
    }
    i = j;
  }
  batch.clear();
}

void CodingVnf::credit_run(SessionState& st, coding::PacketBatch& batch,
                           std::size_t i, std::size_t j,
                           coding::Decoder& dec) {
  // Per-generation largest-remainder credits, settled once per run: each
  // arrival earns share credits on every hop; whole credits become
  // emissions with the run's post-ingest decoder state (possibly deferred
  // until the generation reaches full rank).
  constexpr double kCreditEps = 1e-9;
  constexpr std::size_t kLedgerLimit = 4096;
  const coding::SessionId session = batch[i].session;
  const coding::GenerationId gen = batch[i].generation;
  const bool defer = st.role == ctrl::VnfRole::kRecode &&
                     cfg_.recode_hold_s > 0 && !dec.complete();
  auto& gl = st.ledger[gen];
  if (gl.credit.size() < st.hops.size()) {
    gl.credit.resize(st.hops.size(), 0.0);
    gl.deferred.resize(st.hops.size(), 0);
  }
  recode_counts_.assign(st.hops.size(), 0);
  hop_link_ok_.resize(st.hops.size());
  for (std::size_t h = 0; h < st.hops.size(); ++h) {
    hop_link_ok_[h] = net_.link(node_, st.hops[h].hop.node) != nullptr;
  }

  for (std::size_t p = i; p < j; ++p) {
    for (std::size_t h = 0; h < st.hops.size(); ++h) {
      gl.credit[h] += st.hops[h].share;
      while (gl.credit[h] >= 1.0 - kCreditEps) {
        gl.credit[h] -= 1.0;
        if (defer) {
          // Hold the emission until the generation's rank completes or
          // the hold timer fires (see the class comment).
          ++gl.deferred[h];
          if (!gl.timer_armed) {
            gl.timer_armed = true;
            net_.sim().schedule(cfg_.recode_hold_s,
                                [this, session, gen] {
                                  flush_pending(session, gen);
                                  flush_burst();
                                });
          }
          continue;
        }
        if (!hop_link_ok_[h]) continue;  // credit consumed, nothing to send
        if (st.role == ctrl::VnfRole::kForward ||
            (batch.meta(p) & kMetaFirstUncoded) != 0) {
          // Routing-only relays copy packets through; a recoding relay
          // also passes the very first packet of a generation unchanged
          // (Sec. III.B.2), since recoding one row is a scalar multiple.
          queue_send(st.hops[h].hop, batch[p]);
        } else {
          ++recode_counts_[h];
        }
      }
    }
  }
  emit_recoded_counts(st, dec, recode_counts_);
  // Bound the ledger: forward-role entries have no flush timer, so evict
  // the oldest once the map grows past the decoder buffer's own budget.
  while (st.ledger.size() > kLedgerLimit) st.ledger.erase(st.ledger.begin());
}

void CodingVnf::emit_recoded_counts(SessionState& st, coding::Decoder& dec,
                                    std::span<const std::size_t> counts) {
  std::size_t total = std::accumulate(counts.begin(), counts.end(),
                                      std::size_t{0});
  if (total == 0) return;
  std::size_t h = 0;
  std::size_t left = counts[0];
  const auto advance = [&] {
    while (h < counts.size() && left == 0) {
      ++h;
      if (h < counts.size()) left = counts[h];
    }
  };
  advance();
  // k recoded packets per coefficient-matrix sweep instead of k
  // independent recode() passes — the tentpole amortization.
  while (total > 0) {
    const std::size_t k = std::min(total, coding::kBatchCapacity);
    recode_scratch_.clear();
    dec.recode_batch(rng_, k, recode_scratch_);
    for (std::size_t t = 0; t < k; ++t) {
      queue_send(st.hops[h].hop, recode_scratch_[t]);
      m_recoded_->inc();
      trace_->vnf_recode(node_, dec.session(), dec.generation(), dec.rank());
      --left;
      advance();
    }
    recode_scratch_.clear();
    total -= k;
  }
}

void CodingVnf::flush_pending(coding::SessionId session,
                              coding::GenerationId gen) {
  auto sit = sessions_.find(session);
  if (sit == sessions_.end()) return;
  SessionState& st = sit->second;
  auto lit = st.ledger.find(gen);
  if (lit == st.ledger.end()) return;
  coding::Decoder* dec = buffer_.find(session, gen);
  if (dec != nullptr && dec->rank() > 0 && !dec->released()) {
    recode_counts_.assign(st.hops.size(), 0);
    for (std::size_t h = 0;
         h < lit->second.deferred.size() && h < st.hops.size(); ++h) {
      if (net_.link(node_, st.hops[h].hop.node) != nullptr) {
        recode_counts_[h] = lit->second.deferred[h];
      }
      lit->second.deferred[h] = 0;
    }
    emit_recoded_counts(st, *dec, recode_counts_);
  }
  lit->second.timer_armed = false;
}

void CodingVnf::queue_send(const ctrl::NextHop& hop,
                           const coding::CodedPacket& pkt) {
  netsim::Datagram d;
  d.src = node_;
  d.dst = hop.node;
  d.dst_port = hop.port;
  d.payload = net_.take_buffer();
  pkt.serialize_into(d.payload);
  out_burst_.push_back(std::move(d));
  m_emitted_->inc();
}

void CodingVnf::flush_burst() {
  if (out_burst_.empty()) return;
  net_.send_burst(std::move(out_burst_));
  out_burst_.clear();
}

}  // namespace ncfn::vnf
