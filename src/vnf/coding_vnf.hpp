// The virtual network coding function — the paper's data plane
// (Sec. III.B.2), one object per data center, with one processing lane per
// deployed VNF instance (VM).
//
// Behaviour per received coded packet, as in the paper:
//   * the packet is stored in the per-(session, generation) FIFO buffer;
//   * a RECODE-role VNF "generates an encoded packet immediately after it
//     receives a packet from the same session and generation" (pipelined
//     recoding) — except the first packet of a generation, which is
//     forwarded unchanged;
//   * a FORWARD-role VNF copies packets through (the paper's routing-only
//     baseline);
//   * a DECODE-role VNF recovers a generation once it has enough linearly
//     independent packets and hands the blocks to the application sink.
//
// Rate conservation: a relay must emit at the rates the controller's plan
// assigned to its out-edges. Each (session, next-hop) pair carries a
// credit share = f(e_out) / sum of the session's inbound rates; every
// arrival adds the share and a packet is emitted per whole credit. This
// keeps relay output deterministic and exactly plan-shaped.
//
// Emission deferral: when upstream paths have different delays, a merge
// relay's early arrivals all come from the faster path, so per-arrival
// recoding would emit packets confined to that path's subspace — useless
// to the receiver that already has it (the classic pipelined-recoding
// pathology on skewed paths). An emission credit earned for a generation
// that is not yet full-rank is therefore held until the rank completes
// (usually the very next arrivals) or `recode_hold_s` expires, whichever
// is first. This preserves pipelining at sub-generation timescales while
// guaranteeing fully-mixed emissions on merge relays.
//
// Processing model (the DPDK substitution): each packet costs
//     service = fixed_overhead + 2 * g * block_size / proc_rate
// of lane time — one generation-sized Gaussian-elimination pass plus one
// recode pass over GF(2^8), with proc_rate calibrated against the real
// codec microbenchmarks. Packets arriving at a saturated lane queue up to
// `proc_queue_limit` and overflow is dropped; this is C(v) in the
// formulation and is what makes large generation sizes collapse in Fig. 4.
//
// Batched data plane (the BESS substitution): a lane is a batch server.
// Arrivals enqueue; each service event drains up to `max_batch` packets
// as one PacketBatch through two passes (decode-ingest, then
// credit-check/recode-emit), charging the batch k * service_time of lane
// time. Per-packet *simulated* cost is thus unchanged, but the real-CPU
// fixed costs — simulator events, RNG draws, map lookups, counter updates,
// pivot scans — amortize across the batch, and every run of same-(session,
// generation) packets recodes through one Decoder::recode_batch
// coefficient-matrix sweep and leaves through one netsim burst (one
// departure + one delivery event). `max_batch = 1` reproduces strict
// per-packet operation and is the bench baseline.
//
// When a DC runs several VNF instances, "packets belonging to the same
// generation are dispatched to the same VNF instance" by hashing
// (session, generation) over the lanes, exactly as in Sec. IV.A.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "coding/batch.hpp"
#include "coding/buffer.hpp"
#include "coding/packet.hpp"
#include "ctrl/signals.hpp"
#include "netsim/network.hpp"

namespace ncfn::vnf {

struct VnfConfig {
  coding::CodingParams params;
  /// GF(2^8) bulk-op throughput of one VNF instance, bytes/second. The
  /// default models a 2016-era cloud VM core doing scalar table-driven
  /// muladd (the paper's testbed); this repo's own codec measures ~2 GB/s
  /// scalar, ~18 GB/s AVX2 and ~34 GB/s GFNI on the bulk muladd kernel
  /// (bench_micro_codec, 64-KiB rows; ~50 GB/s GFNI on 1,460-byte rows),
  /// so raise this if you want to model modern SIMD-equipped VNFs.
  double proc_rate_Bps = 4e8;
  /// Fixed per-packet overhead (header parse, socket, dispatch).
  double fixed_overhead_s = 5e-6;
  std::size_t proc_queue_limit = 4096;  // packets per lane
  /// Recode-emission hold (see the class comment): an earned emission for
  /// a generation whose decoding matrix is not yet full-rank is deferred
  /// until the rank completes or this timeout expires. Covers the arrival
  /// skew between upstream paths; 0 disables deferral (strict per-arrival
  /// emission, the ablation baseline).
  double recode_hold_s = 0.050;
  /// Largest packet vector a lane drains per service event (clamped to
  /// [1, coding::kBatchCapacity] at construction). 1 reproduces strict
  /// per-packet processing — the pre-batching baseline the pps bench
  /// compares against. Batches larger than 1 only form under lane
  /// queueing (back-to-back arrivals), so lightly loaded runs behave
  /// identically at any setting.
  std::size_t max_batch = coding::kBatchCapacity;
  std::uint32_t seed = 1;
};

struct NextHopRate {
  ctrl::NextHop hop;
  double share = 1.0;  // credits earned per inbound packet
};

/// Routing-only (Non-NC) forwarding state: the session's generations are
/// dispatched across packed multicast trees (see app/baseline.hpp); every
/// node knows, per tree, its own next hops, and forwards each *innovative*
/// packet of a generation along the generation's tree. Innovation-only
/// forwarding dedupes the DAG union of paths without per-packet ids.
struct TreeRouting {
  std::vector<std::uint16_t> schedule;  // generation -> tree index, cyclic
  std::vector<std::vector<ctrl::NextHop>> hops_per_tree;  // this node's hops
};

/// Decoded-generation sink: (session, generation, blocks, params).
using DecodeSink = std::function<void(
    coding::SessionId, coding::GenerationId,
    std::vector<std::vector<std::uint8_t>> blocks)>;

/// Per-packet tap, invoked after each processed packet:
/// (session, generation, rank after, complete, innovative).
using PacketTap = std::function<void(coding::SessionId, coding::GenerationId,
                                     std::size_t, bool, bool)>;

class CodingVnf {
 public:
  CodingVnf(netsim::Network& net, netsim::NodeId node,
            const VnfConfig& cfg);
  ~CodingVnf();

  CodingVnf(const CodingVnf&) = delete;
  CodingVnf& operator=(const CodingVnf&) = delete;

  [[nodiscard]] netsim::NodeId node() const { return node_; }

  /// Number of VNF instances (VMs) at this DC. Changing the lane count
  /// re-shards future generations; in-flight generation state is kept.
  void set_lanes(std::size_t lanes);
  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

  /// Configure a session: role and listening port (NC_SETTINGS).
  void configure_session(coding::SessionId id, ctrl::VnfRole role,
                         netsim::Port port);
  void drop_session(coding::SessionId id);

  /// Set the next hops and their credit shares for a session
  /// (NC_FORWARD_TAB plus the plan's rates).
  void set_next_hops(coding::SessionId id, std::vector<NextHopRate> hops);

  /// Switch a session to routing-only tree forwarding (the Non-NC
  /// baseline); replaces any credit-based next hops.
  void set_tree_routing(coding::SessionId id, TreeRouting routing);

  /// Pause/resume the coding function (the SIGUSR1 dance around a
  /// forwarding-table load). While paused, arrivals are buffered in the
  /// processing queue but nothing is emitted.
  void pause();
  void resume();
  [[nodiscard]] bool paused() const { return paused_; }

  /// Kill the coding process mid-flight: every buffered generation's
  /// decoder/recoder state, credit ledger and queued work is lost, and
  /// arrivals are dropped until restart(). Session/port configuration is
  /// the daemon's (it re-pushes settings and tables on restart), so it
  /// survives here.
  void crash();
  /// Cold restart after crash(): accepts traffic again with empty state.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Restart the coding process with new coding parameters (an
  /// NC_SETTINGS change of generation or block size): every session,
  /// port binding and buffered generation goes, and work queued or held
  /// under the old parameters is discarded as after a crash. The caller
  /// configures the sessions again. Lanes and the crashed state stay.
  void reset(const coding::CodingParams& params);

  void set_decode_sink(DecodeSink sink) { sink_ = std::move(sink); }
  /// Observe every processed packet (used by receivers for repair timers).
  void set_packet_tap(PacketTap tap) { tap_ = std::move(tap); }

  [[nodiscard]] const VnfConfig& config() const { return cfg_; }
  /// Decoding state of a buffered generation, or nullptr.
  [[nodiscard]] coding::Decoder* find_decoder(coding::SessionId s,
                                              coding::GenerationId g) {
    return buffer_.find(s, g);
  }
  [[nodiscard]] const coding::GenerationBuffer& buffer() const {
    return buffer_;
  }

 private:
  struct SessionState {
    ctrl::VnfRole role = ctrl::VnfRole::kForward;
    netsim::Port port = 0;
    std::vector<NextHopRate> hops;
    std::optional<TreeRouting> trees;
    // Per-generation emission ledger. Credits must be accounted per
    // generation, not globally: arrival streams from skewed upstream
    // paths interleave different generations, and a global ledger would
    // attribute tokens by arrival parity, starving some generations.
    struct GenLedger {
      std::vector<double> credit;          // per hop
      std::vector<std::uint32_t> deferred;  // earned but held emissions
      bool timer_armed = false;
    };
    std::map<coding::GenerationId, GenLedger> ledger;
  };
  /// A lane is a batch server: arrivals queue here, and each service
  /// event drains up to cfg_.max_batch of them through the pipeline.
  struct Lane {
    netsim::Time busy_until = 0;
    std::deque<coding::CodedPacket> queue;
    bool draining = false;  // a drain event is scheduled
  };

  // Per-packet metadata bits the ingest stage annotates on the batch for
  // the emit stage (PacketBatch::meta).
  static constexpr std::uint8_t kMetaInnovative = 0x01;
  /// First packet of its generation and rank <= 1 after ingest: eligible
  /// for unchanged pass-through on a recode relay (Sec. III.B.2).
  static constexpr std::uint8_t kMetaFirstUncoded = 0x02;
  /// This packet completed the generation's rank.
  static constexpr std::uint8_t kMetaCompletedNow = 0x04;

  /// What crash() and reset() both drop: queued and paused work, with a
  /// new epoch so drains already scheduled find nothing to serve.
  void wipe();
  /// Arrivals at a session port (a single datagram is a burst of one):
  /// parse, lane admission, then one drain armed per touched lane.
  void on_burst(std::span<netsim::Datagram> burst);
  /// Arm a drain event for the lane if work is queued and none is armed.
  void start_drain(std::size_t lane);
  /// Service completion: pop up to k packets and run them as one batch.
  void drain(std::size_t lane, std::size_t k, std::uint64_t epoch);
  void run_pipeline(coding::PacketBatch& batch);
  void ingest_batch(coding::PacketBatch& batch);
  void emit_batch(coding::PacketBatch& batch);
  /// Credit accounting + emission for one same-(session, generation) run
  /// [i, j) of the batch.
  void credit_run(SessionState& st, coding::PacketBatch& batch,
                  std::size_t i, std::size_t j, coding::Decoder& dec);
  /// Emit counts[h] recoded packets to hop h (counts exclude linkless
  /// hops), generated through recode_batch in kBatchCapacity chunks.
  void emit_recoded_counts(SessionState& st, coding::Decoder& dec,
                           std::span<const std::size_t> counts);
  /// Serialize `pkt` for `hop` onto out_burst_: every emission's one path.
  void queue_send(const ctrl::NextHop& hop, const coding::CodedPacket& pkt);
  /// Queue a generation's deferred emissions; the caller flushes.
  void flush_pending(coding::SessionId session, coding::GenerationId gen);
  /// Hand the accumulated out_burst_ to the network.
  void flush_burst();
  [[nodiscard]] double service_time() const;
  [[nodiscard]] std::size_t lane_of(coding::SessionId s,
                                    coding::GenerationId g) const;

  netsim::Network& net_;
  netsim::NodeId node_;
  VnfConfig cfg_;
  std::mt19937 rng_;
  coding::GenerationBuffer buffer_;
  // Per-function observability handles into net_.obs(), bound at
  // construction.
  obs::EventTrace* trace_ = nullptr;
  obs::Counter* m_received_ = nullptr;
  obs::Counter* m_innovative_ = nullptr;
  obs::Counter* m_emitted_ = nullptr;
  obs::Counter* m_recoded_ = nullptr;
  obs::Counter* m_proc_dropped_ = nullptr;
  obs::Counter* m_decoded_ = nullptr;
  obs::Counter* m_crash_dropped_ = nullptr;
  obs::Counter* m_batches_ = nullptr;  // pipeline runs (lane drains)
  obs::Gauge* m_lane_backlog_ = nullptr;  // packets queued across all lanes
  obs::Histogram* h_batch_size_ = nullptr;  // packets per pipeline run
  std::size_t queued_total_ = 0;
  std::map<coding::SessionId, SessionState> sessions_;
  // Arrival-path session cache: bursts are same-session runs, so only
  // the first packet of a run walks sessions_. Cleared on drop_session.
  coding::SessionId cached_session_ = 0;
  SessionState* cached_state_ = nullptr;
  // A deque: growing it neither moves nor copies the lanes' queues.
  std::deque<Lane> lanes_;
  bool paused_ = false;
  bool crashed_ = false;
  // Bumped on every crash and reset: work admitted to a lane before it
  // is discarded at service time even if the function restarted
  // meanwhile.
  std::uint64_t crash_epoch_ = 0;
  std::vector<coding::CodedPacket> paused_backlog_;
  DecodeSink sink_;
  PacketTap tap_;
  // Reusable hot-path scratch (no steady-state allocation: the batches
  // are pooled rows, the vectors keep capacity).
  coding::PacketBatch batch_;           // lane-drain working batch
  coding::PacketBatch recode_scratch_;  // recode_batch output staging
  std::vector<netsim::Datagram> out_burst_;
  std::vector<std::size_t> recode_counts_;  // per-hop counts in credit runs
  std::vector<char> hop_link_ok_;           // per-hop link cache per run
  std::vector<std::size_t> touched_lanes_;  // burst-arrival scratch
};

}  // namespace ncfn::vnf
