// Multicast source endpoint.
//
// NC mode: the source paces random coded packets of the "current"
// generation onto each out-edge at the plan's rate f_m(e); the current
// generation advances at the session rate lambda, so each generation
// receives g * f(e)/lambda packets per edge plus the configured
// redundancy (NC0/NC1/NC2 of Sec. V.B.3). Packets on different edges are
// independent random combinations — this is where the coding gain over
// routing comes from.
//
// Tree (Non-NC) mode: generations are dispatched across packed multicast
// trees by a deterministic weighted-round-robin schedule; each tree
// carries the generation's original (systematic) blocks on every tree
// root edge at the tree's packed rate.
//
// Either way the source listens for repair requests (retransmissions for
// a stalled generation) and first-generation ACKs; repairs preempt fresh
// data on the pacers, so retransmission bandwidth is honestly accounted.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <vector>

#include "app/baseline.hpp"
#include "app/messages.hpp"
#include "app/provider.hpp"
#include "coding/encoder.hpp"
#include "coding/pool.hpp"
#include "ctrl/fwdtable.hpp"
#include "netsim/network.hpp"

namespace ncfn::app {

struct SourceConfig {
  coding::SessionId session = 1;
  coding::CodingParams params;
  /// Extra coded packets per generation (NC0 = 0, NC1 = 1, NC2 = 2).
  int redundancy = 0;
  /// Session payload rate lambda (Mbps) — sets the generation clock.
  double lambda_mbps = 10.0;
  netsim::Port data_port = 20001;    // destination port at next hops
  netsim::Port feedback_port = 40001;  // where this source listens
  std::uint32_t seed = 7;
};

struct SourceStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t repair_packets_sent = 0;
  std::uint64_t repair_requests = 0;
  /// now - first-generation-sent timestamps per acked receiver node.
  std::map<std::uint32_t, netsim::Time> first_gen_ack_rtt;
};

class McSource {
 public:
  McSource(netsim::Network& net, netsim::NodeId node,
           const GenerationProvider& provider, const SourceConfig& cfg);
  ~McSource();

  McSource(const McSource&) = delete;
  McSource& operator=(const McSource&) = delete;

  /// NC mode: out-edges with their plan rates (Mbps).
  void configure_hops(std::vector<std::pair<ctrl::NextHop, double>> hops);

  /// Re-steer a *live* source onto new hops (controller re-solve after a
  /// failure): pacers are rebuilt for the new edges, generation progress
  /// resumes from the least-advanced old pacer (a little duplication on
  /// the fast edges beats losing a generation on the slow ones — coded
  /// duplicates are harmless) or, with none, where the stream stopped,
  /// and stale pacer ticks are invalidated. Queued repair requests, and
  /// those parked while the source had no hop, move to the new pacers.
  /// `lambda_mbps` > 0 adopts the re-solved session rate for the
  /// per-generation quotas.
  void reconfigure_hops(std::vector<std::pair<ctrl::NextHop, double>> hops,
                        double lambda_mbps = 0.0);

  /// Non-NC mode: packed trees; this node's root hops are derived from
  /// each tree's edges.
  void configure_trees(const graph::Topology& topo,
                       std::vector<MulticastTree> trees);

  /// Starts pacing; a source with no hop idles until a rewire gives it one.
  void start();

  [[nodiscard]] bool data_exhausted() const;
  [[nodiscard]] const SourceStats& stats() const { return stats_; }

 private:
  struct Pacer {
    // NC mode: one out-edge. Tree mode: one tree (all its root hops).
    std::vector<ctrl::NextHop> hops;
    double interval_s = 0.0;  // per emitted packet
    // NC mode: deterministic per-generation quota (largest remainder), so
    // every generation receives exactly its share of coded packets on
    // this edge — clock jitter must not starve a generation.
    double quota_per_gen = 0.0;  // (g + R) * rate / lambda
    double quota_acc = 0.0;
    int remaining = 0;               // packets left for gen_cursor
    coding::GenerationId gen_cursor = 0;
    std::size_t tree_index = 0;          // tree mode
    coding::GenerationId tree_cursor = 0;  // next own generation (tree mode)
    std::size_t block_cursor = 0;          // next block within generation
    std::deque<Feedback> repair_queue;
    bool running = false;
  };

  void on_feedback(const netsim::Datagram& d);
  void pacer_tick(std::size_t idx);
  /// Schedule a pacer tick bound to the current pacer generation: ticks
  /// scheduled before a reconfigure_hops() must not touch rebuilt pacers.
  void schedule_tick(std::size_t idx, double delay_s);
  void send_packet(Pacer& p, const coding::CodedPacket& pkt, bool repair);
  /// An encoder over generation `gen`, materialized on first use.
  [[nodiscard]] coding::Encoder encoder(coding::GenerationId gen);

  netsim::Network& net_;
  netsim::NodeId node_;
  const GenerationProvider& provider_;
  SourceConfig cfg_;
  std::mt19937 rng_;
  // Coded packets from every cached encoder recycle through one pool, so
  // the paced steady state allocates nothing per packet.
  coding::PacketPool pool_ = coding::PacketPool::make();

  bool tree_mode_ = false;
  std::vector<MulticastTree> trees_;
  std::vector<std::uint16_t> schedule_;
  std::vector<Pacer> pacers_;
  std::uint64_t pacer_epoch_ = 0;  // bumped when pacers_ is rebuilt live
  // Stream position while no pacer runs: where a rewire that brings
  // hops back resumes. Repair requests received meanwhile wait here too.
  coding::GenerationId idle_cursor_ = 0;
  std::deque<Feedback> parked_repairs_;

  // Generations being emitted, materialized on first use: the clock
  // generations and whatever repairs are being served.
  std::map<coding::GenerationId, coding::Generation> generations_;

  bool started_ = false;
  netsim::Time start_time_ = 0;
  netsim::Time first_gen_sent_at_ = -1;
  std::size_t repair_rr_ = 0;
  SourceStats stats_;
  // Cached registry handles into the network's hub.
  obs::Counter* m_packets_sent_ = nullptr;
  obs::Counter* m_repair_packets_sent_ = nullptr;
  obs::Counter* m_repair_requests_ = nullptr;
};

}  // namespace ncfn::app
