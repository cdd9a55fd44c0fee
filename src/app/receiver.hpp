// Multicast receiver endpoint.
//
// Wraps a DECODE-role coding function (so receiver-side decode cost is
// charged through the same processing model as relays), accounts goodput,
// optionally verifies every decoded byte against the expected synthetic
// content, sends the first-generation ACK used by the Table II delay
// measurement, and runs the repair loop: a generation that has been seen
// but not completed within `repair_timeout_s` triggers a retransmission
// request to the source (with the missing-block mask for the Non-NC
// baseline). Without redundancy (NC0), losses make throughput collapse to
// this repair loop — exactly the effect Figs. 8 and 9 show.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "app/messages.hpp"
#include "app/provider.hpp"
#include "netsim/network.hpp"
#include "vnf/coding_vnf.hpp"

namespace ncfn::app {

/// Repair requests a receiver sends per generation before it gives up
/// on that generation.
inline constexpr int kMaxRepairRounds = 64;

struct ReceiverConfig {
  coding::SessionId session = 1;
  netsim::Port data_port = 20001;
  /// Source endpoint for repair requests / ACKs.
  std::uint32_t source_node = 0;
  netsim::Port source_feedback_port = 40001;
  bool enable_repair = true;
  double repair_timeout_s = 0.25;  // from first packet of a generation
  /// Periodic throughput sampling interval (0 = no time series).
  double sample_interval_s = 0.0;
  /// Coding parameters and processing model of the decode function.
  vnf::VnfConfig vnf;
};

struct ReceiverStats {
  std::uint64_t generations_decoded = 0;
  std::uint64_t payload_bytes = 0;  // decoded, unpadded
  std::uint64_t repair_requests_sent = 0;
  std::uint64_t verify_failures = 0;
  netsim::Time first_generation_decoded_at = -1;
  netsim::Time completed_at = -1;  // all generations decoded
  /// Time from the last mark_disruption() to the next decoded generation.
  netsim::Time last_recovery_s = -1;
};

struct ThroughputSample {
  netsim::Time at_s;
  std::uint64_t cumulative_bytes;
};

class McReceiver {
 public:
  McReceiver(netsim::Network& net, netsim::NodeId node,
             const GenerationProvider& provider,
             const ReceiverConfig& cfg);

  McReceiver(const McReceiver&) = delete;
  McReceiver& operator=(const McReceiver&) = delete;

  void start();

  [[nodiscard]] netsim::NodeId node() const { return node_; }
  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }
  [[nodiscard]] bool complete() const { return stats_.completed_at >= 0; }
  /// Average goodput since start (Mbps).
  [[nodiscard]] double goodput_mbps() const;
  /// Goodput over the trailing window ending at the latest sample (Mbps).
  [[nodiscard]] double windowed_goodput_mbps(double window_s) const;

  /// Verify decoded generations against the synthetic provider's expected
  /// content (costs a regeneration per generation; used in tests).
  void set_verify(const SyntheticProvider* expected) { verify_ = expected; }

  /// Failure-injection bookkeeping: a disruption (link outage, VNF crash,
  /// re-route) may have hit this receiver's session now. The time until
  /// the next decoded generation is recorded into the app.recovery_time_s
  /// histogram and stats().last_recovery_s — the per-session recovery
  /// latency of the tentpole acceptance criteria.
  void mark_disruption();

  /// Ordered application delivery: generations are handed to the sink in
  /// generation order (later-decoded earlier generations are held back),
  /// each as its unpadded payload bytes — a file reassembles by
  /// concatenating the calls.
  using OrderedSink =
      std::function<void(coding::GenerationId, std::vector<std::uint8_t>)>;
  void set_ordered_sink(OrderedSink sink) { ordered_sink_ = std::move(sink); }
  /// Generations decoded but still waiting for an earlier one.
  [[nodiscard]] std::size_t held_back() const { return held_back_.size(); }

 private:
  void on_generation_decoded(coding::GenerationId gen,
                             const std::vector<std::vector<std::uint8_t>>& blocks);
  void on_packet(coding::GenerationId gen, std::size_t rank, bool complete);
  void arm_repair_timer(coding::GenerationId gen);
  void sample();

  netsim::Network& net_;
  netsim::NodeId node_;
  const GenerationProvider& provider_;
  ReceiverConfig cfg_;
  std::unique_ptr<vnf::CodingVnf> vnf_;
  const SyntheticProvider* verify_ = nullptr;

  std::set<coding::GenerationId> decoded_;
  struct GenProgress {
    bool timer_armed = false;
    int repair_rounds = 0;
  };
  std::map<coding::GenerationId, GenProgress> progress_;
  netsim::Time start_time_ = 0;
  ReceiverStats stats_;
  std::vector<ThroughputSample> samples_;
  OrderedSink ordered_sink_;
  coding::GenerationId next_ordered_ = 0;
  std::map<coding::GenerationId, std::vector<std::uint8_t>> held_back_;
  netsim::Time disruption_at_ = -1;
  // Cached registry handles into the network's hub.
  obs::Counter* m_generations_decoded_ = nullptr;
  obs::Counter* m_payload_bytes_ = nullptr;
  obs::Counter* m_repair_requests_ = nullptr;
  obs::Counter* m_verify_failures_ = nullptr;
  obs::Histogram* m_recovery_s_ = nullptr;
};

}  // namespace ncfn::app
