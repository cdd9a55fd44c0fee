// Simulated overlay network: nodes (VMs / end hosts) joined by directed
// links (inter-data-center Internet paths).
//
// A link models what the paper measures on EC2/Linode paths: a bandwidth
// cap (time-varying, cf. Tab. I), a propagation delay (time-varying, for
// Alg. 2's delay-change events), a finite FIFO egress queue with tail
// drop, and a netem-style loss model. Datagram service is UDP-like:
// unreliable, in-order per link (a single simulated path), with 28 bytes
// of UDP+IP overhead charged per packet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "netsim/loss.hpp"
#include "netsim/sim.hpp"
#include "obs/obs.hpp"

namespace ncfn::netsim {

using NodeId = std::uint32_t;
using Port = std::uint16_t;

inline constexpr std::size_t kUdpIpOverhead = 28;  // 8 B UDP + 20 B IP

struct Datagram {
  NodeId src = 0;
  NodeId dst = 0;
  Port dst_port = 0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] std::size_t wire_bytes() const {
    return payload.size() + kUdpIpOverhead;
  }
};

struct LinkConfig {
  double capacity_bps = 100e6;  // bandwidth cap
  Time prop_delay = 0.010;      // one-way propagation delay (s)
  std::size_t queue_packets = 512;  // egress queue limit (tail drop)
  /// Uniform per-packet extra delay in [0, jitter]: Internet path jitter.
  /// Nonzero jitter reorders packets — harmless to the coding data plane
  /// (any sufficient set of packets decodes; Sec. III.B.1's case for UDP)
  /// but poison for cumulative-ACK TCP.
  Time jitter = 0.0;
};

struct LinkStats {
  std::uint64_t offered = 0;        // packets handed to the link
  std::uint64_t delivered = 0;      // packets that reached the far end
  std::uint64_t dropped_loss = 0;   // loss-model drops
  std::uint64_t dropped_queue = 0;  // tail drops
  std::uint64_t dropped_down = 0;   // dropped while (or because) link down
  std::uint64_t in_flight = 0;      // committed to the wire, not yet resolved
  std::uint64_t bytes_delivered = 0;

  /// Packet conservation: every offered packet is exactly one of
  /// delivered, dropped, or still in flight. Checked by the NCFN_AUDIT
  /// teardown pass (obs/audit.hpp).
  [[nodiscard]] bool conserved() const {
    return offered ==
           delivered + dropped_loss + dropped_queue + dropped_down + in_flight;
  }
};

class Network;

/// One directed link. Created and owned by Network (shared so that
/// in-flight delivery events hold weak handles and survive the link
/// being replaced or removed at runtime).
class Link : public std::enable_shared_from_this<Link> {
 public:
  Link(Network& net, NodeId from, NodeId to, const LinkConfig& cfg);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  [[nodiscard]] NodeId from() const { return from_; }
  [[nodiscard]] NodeId to() const { return to_; }
  [[nodiscard]] double capacity_bps() const { return capacity_bps_; }
  [[nodiscard]] Time prop_delay() const { return prop_delay_; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }

  /// Change the bandwidth cap at the current simulated time (already
  /// scheduled transmissions keep their old timing, like a shaper change).
  void set_capacity_bps(double bps) { capacity_bps_ = bps; }
  /// Change the propagation delay (route change on the Internet path).
  void set_prop_delay(Time d) { prop_delay_ = d; }
  /// Change the per-packet jitter bound.
  void set_jitter(Time j) { jitter_ = j; }
  /// Install / replace the loss model (nullptr = lossless).
  void set_loss_model(std::unique_ptr<LossModel> m) { loss_ = std::move(m); }

  /// Administrative up/down (outage injection). While down, transmit()
  /// drops every datagram with reason "down"; packets already serialized
  /// or in propagation when the link goes down are lost too (they are
  /// dropped, deterministically, at their scheduled delivery time).
  /// Coming back up does not resurrect anything.
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  /// Queue a burst of datagrams back-to-back; a single datagram is a
  /// burst of one. Admission (down check, loss model, tail drop) and
  /// traces stay per-packet, but the burst shares ONE serializer-departure
  /// event (the egress queue shrinks by the whole burst when its last
  /// packet leaves the serializer) and ONE delivery event with a single
  /// jitter draw (all survivors land together, in order, at the last
  /// packet's delivery time) — the deliberate timing coarsening that buys
  /// an O(batch) reduction in simulator events. Consumes the spanned
  /// datagrams (moves their payloads).
  void transmit(std::span<Datagram> burst);

  /// (Re)bind observability handles to `obs`. Called by Network on
  /// creation and whenever a hub is swapped in.
  void bind_obs(obs::Observability& obs);

 private:
  /// The serializer finished the burst's last packet: the egress queue
  /// shrinks by the burst's `n` packets now, not when they land after
  /// propagation.
  void departure(std::size_t n);
  /// Propagation finished: deliver every survivor, or drop them all if
  /// the link went down (epoch mismatch) while they were in flight.
  void complete_delivery(std::vector<Datagram> pkts, std::uint64_t epoch);

  Network& net_;
  NodeId from_, to_;
  double capacity_bps_;
  Time prop_delay_;
  Time jitter_;
  std::size_t queue_limit_;
  std::unique_ptr<LossModel> loss_;
  Time busy_until_ = 0;  // when the serializer frees up
  std::size_t queued_ = 0;  // packets waiting for / inside the serializer
  bool up_ = true;
  std::uint64_t down_epoch_ = 0;  // bumped on every set_up(false)
  LinkStats stats_;
  // Observability handles into the network's hub, bound together.
  obs::EventTrace* trace_ = nullptr;
  obs::Counter* m_enqueued_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_drop_loss_ = nullptr;
  obs::Counter* m_drop_queue_ = nullptr;
  obs::Counter* m_drop_down_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_busy_s_ = nullptr;  // cumulative serialization time
};

/// Handler bound with Network::bind: invoked once per arriving datagram.
using DatagramHandler = std::function<void(const Datagram&)>;

/// Handler bound with Network::bind_burst: invoked with each arriving run
/// of same-port datagrams (a single send arrives as a run of one). The
/// span is mutable so batch-aware receivers can steal payloads; any
/// payload left behind is recycled by the caller.
using BurstHandler = std::function<void(std::span<Datagram>)>;

class Network {
 public:
  explicit Network(std::uint32_t seed = 1) : rng_(seed) {
    own_obs_.trace.set_clock([this] { return sim_.now(); });
  }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] std::mt19937& rng() { return rng_; }

  /// Record into an external hub instead of the network's own (which
  /// stays idle). Existing and future links register their per-link
  /// metrics there; components built on this network afterwards pick
  /// it up from obs(). Call it before building those components. The
  /// hub must be non-null and outlive the network; its trace clock is
  /// the caller's to set.
  void set_obs(obs::Observability* obs);
  /// The hub every layer built on this network records into: the
  /// network's own, whose trace is stamped with this simulator's clock,
  /// unless set_obs() swapped in another. Never null.
  [[nodiscard]] obs::Observability* obs() const { return obs_; }

  /// Add a node; returns its id. Names are for diagnostics.
  NodeId add_node(std::string name);
  [[nodiscard]] const std::string& node_name(NodeId id) const {
    return node_names_.at(id);
  }
  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }

  /// Add a directed link. Replaces any existing from→to link; packets in
  /// flight on the replaced link evaporate (their delivery events hold a
  /// weak handle that no longer resolves).
  Link& add_link(NodeId from, NodeId to, const LinkConfig& cfg);
  /// Add a pair of symmetric links.
  void add_duplex_link(NodeId a, NodeId b, const LinkConfig& cfg);

  [[nodiscard]] Link* link(NodeId from, NodeId to);
  [[nodiscard]] const Link* link(NodeId from, NodeId to) const;

  /// Bind a handler at (node, port). Each port has one binding, so bind
  /// and bind_burst replace each other. A datagram handler is called once
  /// per datagram of an arriving burst, in order; a burst handler gets
  /// each arriving same-port run in one call.
  void bind(NodeId node, Port port, DatagramHandler handler);
  void bind_burst(NodeId node, Port port, BurstHandler handler);
  /// Remove the binding at (node, port), of either kind.
  void unbind(NodeId node, Port port);

  /// Send a datagram over the direct link src→dst, as a burst of one.
  /// Returns false (and drops) if no such link exists.
  bool send(Datagram d);

  /// Send a burst. Consecutive datagrams sharing (src, dst) ride the same
  /// link burst (one lookup, one departure + one delivery event — see
  /// Link::transmit); runs with no link are dropped and recycled.
  void send_burst(std::vector<Datagram>&& burst);

  /// Round-trip time of a small probe on the direct a→b and b→a links:
  /// the `ping` the paper's daemons run periodically. Returns nullopt if
  /// either direction is missing.
  [[nodiscard]] std::optional<Time> ping_rtt(NodeId a, NodeId b,
                                             std::size_t probe_bytes) const;

  /// The `iperf3`-style bandwidth probe: reports the current capacity of
  /// the a→b link perturbed by measurement noise (matching the few-percent
  /// wobble in Tab. I). Returns nullopt if there is no link.
  [[nodiscard]] std::optional<double> probe_bandwidth_bps(NodeId a, NodeId b,
                                                          double noise_frac);

  // Internal: called by Link to hand a delivered burst (one destination
  // node) to that node. Each consecutive same-port run goes to the port's
  // handler in one call; a run at an unbound port is dropped.
  void deliver(std::span<Datagram> burst);

  /// Packet-conservation audit: one "<from>-><to>: ..." line per link
  /// whose LinkStats fail conserved(). Empty when every link balances.
  /// SimNet runs this at teardown when audits are enabled.
  [[nodiscard]] std::vector<std::string> audit_conservation() const;

  /// Payload-buffer recycling. take_buffer() hands out an empty vector
  /// whose capacity was earned by an earlier recycled datagram, so the
  /// steady-state send path reuses storage instead of allocating.
  /// recycle_buffer() returns a payload (typically from a consumed or
  /// dropped datagram) to the bounded freelist.
  [[nodiscard]] std::vector<std::uint8_t> take_buffer();
  void recycle_buffer(std::vector<std::uint8_t>&& buf);

 private:
  static constexpr std::size_t kMaxRecycledBuffers = 4096;

  // Declared first: links, VNFs and endpoints hold handles into the hub
  // until they and the simulator's pending events are gone.
  obs::Observability own_obs_;
  obs::Observability* obs_ = &own_obs_;
  Simulator sim_;
  std::mt19937 rng_;
  std::vector<std::string> node_names_;
  std::map<std::pair<NodeId, NodeId>, std::shared_ptr<Link>> links_;
  std::map<std::pair<NodeId, Port>, BurstHandler> handlers_;
  std::vector<std::vector<std::uint8_t>> buffer_pool_;
};

}  // namespace ncfn::netsim
