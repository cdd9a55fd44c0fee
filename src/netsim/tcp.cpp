#include "netsim/tcp.hpp"

#include <algorithm>
#include <cassert>

#include "coding/byteview.hpp"

namespace ncfn::netsim {

namespace {
constexpr Time kMinRto = 0.2;
// Receiver window in packets: large enough never to bind (no flow control).
constexpr std::size_t kReceiverWindow = 4096;

// 8-byte sequence number rides in the payload; the rest is padding up to
// the segment size so the link charges realistic serialization time.
std::vector<std::uint8_t> encode_seq(std::uint64_t seq, std::size_t size) {
  std::vector<std::uint8_t> out(std::max<std::size_t>(size, 8), 0);
  coding::ByteWriter w(out);
  w.u64(seq);
  return out;
}
std::uint64_t decode_seq(const std::vector<std::uint8_t>& p) {
  coding::ByteView v(p);
  return v.u64();  // short probe payloads sticky-fail to sequence 0
}
}  // namespace

TcpTransfer::TcpTransfer(Network& net, NodeId src, NodeId dst, Port port,
                         std::size_t total_bytes, const TcpConfig& cfg,
                         std::function<void(const TcpStats&)> on_complete)
    : net_(net),
      src_(src),
      dst_(dst),
      data_port_(port),
      ack_port_(static_cast<Port>(port + 1)),
      cfg_(cfg),
      on_complete_(std::move(on_complete)),
      total_segments_((total_bytes + kTcpMss - 1) / kTcpMss),
      ssthresh_(cfg.initial_ssthresh) {
  assert(total_segments_ > 0);
}

TcpTransfer::~TcpTransfer() {
  net_.unbind(dst_, data_port_);
  net_.unbind(src_, ack_port_);
}

void TcpTransfer::start() {
  assert(!started_);
  started_ = true;
  net_.bind(dst_, data_port_, [this](const Datagram& d) { on_data(d); });
  net_.bind(src_, ack_port_, [this](const Datagram& d) {
    if (!finished_) on_ack(decode_seq(d.payload));
  });
  send_window();
}

void TcpTransfer::send_window() {
  const auto wnd = static_cast<Seq>(
      std::min(cwnd_, static_cast<double>(kReceiverWindow)));
  while (snd_nxt_ < total_segments_ && snd_nxt_ < snd_una_ + wnd) {
    send_segment(snd_nxt_, /*is_retransmit=*/false);
    ++snd_nxt_;
  }
  if (!rto_armed_ && snd_una_ < snd_nxt_) arm_rto();
}

void TcpTransfer::send_segment(Seq seq, bool is_retransmit) {
  ++stats_.segments_sent;
  if (is_retransmit) {
    ++stats_.retransmissions;
    retransmitted_.insert(seq);
  } else if (timed_sent_at_ < 0 && retransmitted_.count(seq) == 0) {
    timed_seq_ = seq;
    timed_sent_at_ = net_.sim().now();
  }
  Datagram d;
  d.src = src_;
  d.dst = dst_;
  d.dst_port = data_port_;
  d.payload = encode_seq(seq, kTcpMss);
  net_.send(std::move(d));
}

void TcpTransfer::on_data(const Datagram& d) {
  const Seq seq = decode_seq(d.payload);
  if (seq == rcv_nxt_) {
    ++rcv_nxt_;
    while (out_of_order_.count(rcv_nxt_)) {
      out_of_order_.erase(rcv_nxt_);
      ++rcv_nxt_;
    }
  } else if (seq > rcv_nxt_) {
    out_of_order_.insert(seq);
  }
  Datagram ack;
  ack.src = dst_;
  ack.dst = src_;
  ack.dst_port = ack_port_;
  ack.payload = encode_seq(rcv_nxt_, 40);  // ACK-sized segment
  net_.send(std::move(ack));
}

void TcpTransfer::on_ack(Seq cumulative_ack) {
  if (cumulative_ack > snd_una_) {
    // New data acknowledged.
    if (timed_sent_at_ >= 0 && cumulative_ack > timed_seq_) {
      const Time sample = net_.sim().now() - timed_sent_at_;
      timed_sent_at_ = -1;
      if (!rtt_seeded_) {
        srtt_ = sample;
        rttvar_ = sample / 2;
        rtt_seeded_ = true;
      } else {
        rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
        srtt_ = 0.875 * srtt_ + 0.125 * sample;
      }
      rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, cfg_.max_rto);
    }
    const Seq newly = cumulative_ack - snd_una_;
    snd_una_ = cumulative_ack;
    dup_acks_ = 0;
    for (Seq s = snd_una_ > newly ? snd_una_ - newly : 0; s < snd_una_; ++s) {
      retransmitted_.erase(s);
    }
    if (in_recovery_) {
      if (snd_una_ >= recovery_point_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ACK: another segment from the same window was
        // lost; retransmit the new front hole immediately instead of
        // waiting for three more duplicates (or the RTO).
        send_segment(snd_una_, /*is_retransmit=*/true);
      }
    }
    if (!in_recovery_) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly);  // slow start
      } else {
        cwnd_ += static_cast<double>(newly) / cwnd_;  // AIMD
      }
    }
    if (rto_armed_) {
      net_.sim().cancel(rto_event_);
      rto_armed_ = false;
    }
    if (snd_una_ >= total_segments_) {
      complete();
      return;
    }
    arm_rto();
    send_window();
  } else if (cumulative_ack == snd_una_ && snd_nxt_ > snd_una_) {
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      // Fast retransmit + recovery.
      ++stats_.fast_retransmits;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_ + 3;
      in_recovery_ = true;
      recovery_point_ = snd_nxt_;
      send_segment(snd_una_, /*is_retransmit=*/true);
      if (rto_armed_) net_.sim().cancel(rto_event_);
      rto_armed_ = false;
      arm_rto();
    } else if (in_recovery_) {
      cwnd_ += 1;  // inflate
      send_window();
    }
  }
}

void TcpTransfer::arm_rto() {
  rto_event_ = net_.sim().schedule(rto_, [this] {
    rto_armed_ = false;
    if (!finished_) on_rto();
  });
  rto_armed_ = true;
}

void TcpTransfer::on_rto() {
  ++stats_.timeouts;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = false;
  timed_sent_at_ = -1;
  rto_ = std::min(rto_ * 2, cfg_.max_rto);
  snd_nxt_ = snd_una_;  // go-back-N restart from the hole
  send_segment(snd_nxt_, /*is_retransmit=*/true);
  ++snd_nxt_;
  arm_rto();
}

void TcpTransfer::complete() {
  finished_ = true;
  stats_.completion_time = net_.sim().now();
  if (rto_armed_) {
    net_.sim().cancel(rto_event_);
    rto_armed_ = false;
  }
  if (on_complete_) on_complete_(stats_);
}

}  // namespace ncfn::netsim
