// Deterministic structured event trace.
//
// Every layer of the stack reports its externally observable actions here
// as typed, sim-time-stamped records: the netsim layer's packet
// enqueue/drop/deliver, the coding layer's generation open/close/decode,
// the VNF layer's recodes, the control plane's NC_* signals and
// forwarding-table swaps. Records serialize to JSONL — one object per
// line, fixed key order, fixed float formatting — so that two runs with
// the same (seed, scenario) produce *byte-identical* traces. That
// determinism contract turns the trace into a golden-file regression
// harness (tests/test_obs.cpp): a PR that silently changes packet
// ordering, drop behaviour or decode timing fails a tier-1 test instead
// of only shifting a bench number.
//
// The trace is disabled by default. Every emitter starts with an inline
// enabled() check, so a disabled trace costs one predictable branch per
// event and touches no memory. Timestamps come from a clock callback
// (bound to Simulator::now() by the network that owns the hub), so lower
// layers can emit events without depending on netsim.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace ncfn::obs {

class EventTrace {
 public:
  /// Seconds of simulated time; bound by the owner (e.g. to
  /// Simulator::now()). Unset clock stamps 0.
  using Clock = std::function<double()>;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }

  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Accumulated JSONL (one record per line, each newline-terminated).
  [[nodiscard]] const std::string& data() const noexcept { return data_; }
  [[nodiscard]] std::size_t record_count() const noexcept { return records_; }
  void clear() {
    data_.clear();
    records_ = 0;
  }
  /// Write data() to `path`. Returns false on I/O error.
  bool write(const std::string& path) const;

  // ---- netsim ----
  /// Packet accepted onto a link's egress queue.
  void packet_enqueue(std::uint32_t from, std::uint32_t to, std::size_t bytes,
                      std::size_t queue_depth) {
    if (!enabled_) return;
    emit_link("pkt_enq", from, to, bytes, queue_depth);
  }
  /// Packet dropped by the link; reason is "loss" or "queue".
  void packet_drop(std::uint32_t from, std::uint32_t to, std::size_t bytes,
                   const char* reason) {
    if (!enabled_) return;
    emit_drop(from, to, bytes, reason);
  }
  /// Packet handed to the destination node.
  void packet_deliver(std::uint32_t from, std::uint32_t to,
                      std::size_t bytes, std::size_t queue_depth) {
    if (!enabled_) return;
    emit_link("pkt_dlv", from, to, bytes, queue_depth);
  }
  /// Link administrative state change (outage start / end).
  void link_state(std::uint32_t from, std::uint32_t to, bool up) {
    if (!enabled_) return;
    emit_pair(up ? "link_up" : "link_down", from, to);
  }

  // ---- coding ----
  /// New (session, generation) decoding state created at `node`.
  void gen_open(std::uint32_t node, std::uint32_t session,
                std::uint32_t generation) {
    if (!enabled_) return;
    emit_gen("gen_open", node, session, generation, 0);
  }
  /// Generation state dropped; reason is "evict" or "erase".
  void gen_close(std::uint32_t node, std::uint32_t session,
                 std::uint32_t generation, const char* reason) {
    if (!enabled_) return;
    emit_gen_reason("gen_close", node, session, generation, reason);
  }
  /// Generation reached full rank (decode-ready) after `seen` packets.
  void gen_decode(std::uint32_t node, std::uint32_t session,
                  std::uint32_t generation, std::size_t seen) {
    if (!enabled_) return;
    emit_gen("gen_decode", node, session, generation, seen);
  }

  // ---- vnf ----
  /// A recoded packet emitted by the coding function at `node`;
  /// `rank` is the decoding-matrix rank the combination was drawn from.
  void vnf_recode(std::uint32_t node, std::uint32_t session,
                  std::uint32_t generation, std::size_t rank) {
    if (!enabled_) return;
    emit_gen("vnf_recode", node, session, generation, rank);
  }

  /// Coding function at `node` crashed: buffered decoder state is lost.
  void vnf_crash(std::uint32_t node) {
    if (!enabled_) return;
    emit_node("vnf_crash", node);
  }
  /// Coding function at `node` restarted cold after a crash.
  void vnf_restart(std::uint32_t node) {
    if (!enabled_) return;
    emit_node("vnf_restart", node);
  }

  // ---- ctrl ----
  /// An NC_* control signal handled at (or emitted towards) `node`.
  void signal(std::uint32_t node, const char* kind) {
    if (!enabled_) return;
    emit_signal(node, kind);
  }
  /// Controller reacted to a topology change (`cause` is "link_down",
  /// "link_up", "node_down", ... ) by re-solving `sessions` sessions.
  void resolve(const char* cause, std::size_t sessions) {
    if (!enabled_) return;
    emit_resolve(cause, sessions);
  }
  /// Forwarding table replaced at `node`: `changed` entries differed,
  /// modeled apply cost `cost_s`.
  void fwdtab_swap(std::uint32_t node, std::size_t changed, double cost_s) {
    if (!enabled_) return;
    emit_fwdtab(node, changed, cost_s);
  }

 private:
  [[nodiscard]] double now() const { return clock_ ? clock_() : 0.0; }
  void emit_link(const char* ev, std::uint32_t from, std::uint32_t to,
                 std::size_t bytes, std::size_t queue_depth);
  void emit_drop(std::uint32_t from, std::uint32_t to, std::size_t bytes,
                 const char* reason);
  void emit_gen(const char* ev, std::uint32_t node, std::uint32_t session,
                std::uint32_t generation, std::size_t aux);
  void emit_gen_reason(const char* ev, std::uint32_t node,
                       std::uint32_t session, std::uint32_t generation,
                       const char* reason);
  void emit_signal(std::uint32_t node, const char* kind);
  void emit_fwdtab(std::uint32_t node, std::size_t changed, double cost_s);
  void emit_pair(const char* ev, std::uint32_t from, std::uint32_t to);
  void emit_node(const char* ev, std::uint32_t node);
  void emit_resolve(const char* cause, std::size_t sessions);
  void stamp(const char* ev);
  void finish();

  bool enabled_ = false;
  Clock clock_;
  std::string data_;
  std::size_t records_ = 0;
};

}  // namespace ncfn::obs
