// Simplified TCP-Reno transfer over the simulator — the paper's
// "Direct TCP" baseline in Fig. 7.
//
// Packet-level Reno: slow start, congestion avoidance, triple-duplicate-ACK
// fast retransmit with window halving, RTO with exponential backoff and
// Karn's rule for RTT sampling. The receiver delivers cumulative ACKs and
// buffers out-of-order segments. Only the qualitative behaviour matters
// for the reproduction (loss- and RTT-limited throughput below the UDP
// route capacity), so flow control / SACK / Nagle are out of scope.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "netsim/network.hpp"

namespace ncfn::netsim {

/// Payload bytes per segment.
inline constexpr std::size_t kTcpMss = 1460;

struct TcpConfig {
  double initial_ssthresh = 64;  // packets
  Time max_rto = 60.0;
};

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  Time completion_time = 0;
  [[nodiscard]] double goodput_bps(std::size_t total_bytes) const {
    return completion_time > 0
               ? static_cast<double>(total_bytes) * 8.0 / completion_time
               : 0.0;
  }
};

/// One unidirectional bulk transfer src→dst over their direct link pair.
/// Construct, then call start(); `on_complete` fires (in sim time) when the
/// last byte is cumulatively acknowledged.
class TcpTransfer {
 public:
  TcpTransfer(Network& net, NodeId src, NodeId dst, Port port,
              std::size_t total_bytes, const TcpConfig& cfg = {},
              std::function<void(const TcpStats&)> on_complete = nullptr);
  ~TcpTransfer();

  TcpTransfer(const TcpTransfer&) = delete;
  TcpTransfer& operator=(const TcpTransfer&) = delete;

  void start();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const TcpStats& stats() const { return stats_; }
  /// Bytes cumulatively acknowledged so far.
  [[nodiscard]] std::size_t bytes_acked() const {
    return static_cast<std::size_t>(snd_una_) * kTcpMss;
  }

 private:
  using Seq = std::uint64_t;

  void send_window();
  void send_segment(Seq seq, bool is_retransmit);
  void on_ack(Seq cumulative_ack);
  void on_data(const Datagram& d);       // receiver side
  void arm_rto();
  void on_rto();
  void complete();

  Network& net_;
  NodeId src_, dst_;
  Port data_port_, ack_port_;
  TcpConfig cfg_;
  std::function<void(const TcpStats&)> on_complete_;

  Seq total_segments_;
  Seq snd_una_ = 0;   // oldest unacked segment
  Seq snd_nxt_ = 0;   // next segment to send
  double cwnd_ = 1.0;     // packets
  double ssthresh_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  Seq recovery_point_ = 0;

  // RTT estimation (RFC 6298 style).
  Time srtt_ = 0, rttvar_ = 0, rto_ = 1.0;
  bool rtt_seeded_ = false;
  Seq timed_seq_ = 0;
  Time timed_sent_at_ = -1;  // -1: no sample in flight
  std::set<Seq> retransmitted_;  // Karn: never time retransmitted segments

  EventId rto_event_ = 0;
  bool rto_armed_ = false;

  // Receiver state.
  Seq rcv_nxt_ = 0;
  std::set<Seq> out_of_order_;

  bool started_ = false;
  bool finished_ = false;
  TcpStats stats_;
};

}  // namespace ncfn::netsim
