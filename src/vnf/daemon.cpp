#include "vnf/daemon.hpp"

namespace ncfn::vnf {

VnfDaemon::VnfDaemon(netsim::Network& net, netsim::NodeId node,
                     const DaemonConfig& cfg)
    : net_(net),
      node_(node),
      cfg_(cfg),
      vnf_(net, node, cfg.vnf),
      obs_(net.obs()) {
  // Bucket bounds span Table III's range: per-entry cost ~31 ms, full
  // 10-entry table swap ~311 ms.
  static constexpr double kBounds[] = {0.025, 0.05, 0.1, 0.2, 0.4};
  m_table_update_s_ = &obs_->metrics.histogram("ctrl.table_update_s", kBounds);
  m_table_updates_ = &obs_->metrics.counter("ctrl.table_updates");
  m_vnf_starts_ = &obs_->metrics.counter("vnf.starts");
  m_shutdowns_ = &obs_->metrics.counter("vnf.shutdowns");
  m_shutdowns_cancelled_ = &obs_->metrics.counter("vnf.shutdowns_cancelled");
  net_.bind(node_, cfg_.control_port,
            [this](const netsim::Datagram& d) { on_control_datagram(d); });
}

VnfDaemon::~VnfDaemon() { net_.unbind(node_, cfg_.control_port); }

void VnfDaemon::on_control_datagram(const netsim::Datagram& d) {
  ++stats_.signals_received;
  const std::string text(d.payload.begin(), d.payload.end());
  auto signal = ctrl::parse_signal(text);
  if (!signal) {
    ++stats_.signals_malformed;
    return;
  }
  handle_signal(*signal);
}

void VnfDaemon::handle_signal(const ctrl::Signal& s) {
  const char* kind = ctrl::signal_name(s);
  obs_->metrics.counter(std::string("ctrl.signals_received.") + kind).inc();
  obs_->trace.signal(node_, kind);
  std::visit(
      [this](const auto& sig) {
        using T = std::decay_t<decltype(sig)>;
        if constexpr (std::is_same_v<T, ctrl::NcStart>) {
          running_ = true;
          ++shutdown_epoch_;
          shutdown_pending_ = false;
        } else if constexpr (std::is_same_v<T, ctrl::NcVnfStart>) {
          // Reuse an existing (draining) VM if possible, else "launch".
          // Either way any pending shutdown is cancelled.
          if (shutdown_pending_) {
            ++stats_.shutdowns_cancelled;
            m_shutdowns_cancelled_->inc();
          }
          shutdown_pending_ = false;
          ++shutdown_epoch_;
          running_ = true;
          // Coding function becomes ready after the start latency; the
          // VNF_READY trace record carries the Sec. V.C.5 launch
          // timestamp.
          net_.sim().schedule(cfg_.vnf_start_s, [this] {
            ++stats_.vnf_starts;
            m_vnf_starts_->inc();
            obs_->trace.signal(node_, "VNF_READY");
          });
          if (sig.count > vnf_.lanes()) vnf_.set_lanes(sig.count);
        } else if constexpr (std::is_same_v<T, ctrl::NcVnfEnd>) {
          const std::uint64_t epoch = ++shutdown_epoch_;
          shutdown_pending_ = true;
          net_.sim().schedule(sig.tau_s, [this, epoch] {
            if (shutdown_epoch_ == epoch && running_) {
              running_ = false;
              shutdown_pending_ = false;
              ++stats_.shutdowns;
              m_shutdowns_->inc();
              obs_->trace.signal(node_, "VNF_SHUTDOWN");
            }
          });
        } else if constexpr (std::is_same_v<T, ctrl::NcForwardTab>) {
          apply_table(sig);
        } else if constexpr (std::is_same_v<T, ctrl::NcSettings>) {
          apply_settings(sig);
        }
      },
      s);
}

void VnfDaemon::apply_settings(const ctrl::NcSettings& s) {
  coding::CodingParams params = cfg_.vnf.params;
  params.generation_blocks = s.generation_blocks;
  params.block_size = s.block_size;
  // Coding parameters are system-wide and set at initialization; a change
  // restarts the coding function with a fresh buffer.
  if (params.generation_blocks != cfg_.vnf.params.generation_blocks ||
      params.block_size != cfg_.vnf.params.block_size) {
    cfg_.vnf.params = params;
    vnf_.reset(params);
  }
  for (const ctrl::SessionSetting& ss : s.sessions) {
    vnf_.configure_session(ss.session, ss.role, ss.udp_port);
  }
}

void VnfDaemon::apply_table(const ctrl::NcForwardTab& t) {
  // SIGUSR1: pause, load the table, resume. The apply cost scales with
  // the number of entries that actually changed (Table III).
  const std::size_t changed =
      ctrl::ForwardingTable::diff_entries(table_, t.table);
  const double cost =
      static_cast<double>(changed) * cfg_.table_entry_apply_s;
  vnf_.pause();
  stats_.last_table_update_cost_s = cost;
  ++stats_.table_updates;
  m_table_updates_->inc();
  m_table_update_s_->record(cost);
  obs_->trace.fwdtab_swap(node_, changed, cost);
  table_ = t.table;
  net_.sim().schedule(cost, [this, tab = t.table] {
    for (const auto& [session, hops] : tab.entries()) {
      std::vector<NextHopRate> rates;
      rates.reserve(hops.size());
      for (const ctrl::NextHop& h : hops) rates.push_back(NextHopRate{h, 1.0});
      vnf_.set_next_hops(session, std::move(rates));
    }
    vnf_.resume();
  });
}

void VnfDaemon::start_probes(std::vector<netsim::NodeId> peers,
                             double interval_s, ProbeReport report) {
  probe_peers_ = std::move(peers);
  probe_interval_s_ = interval_s;
  probe_report_ = std::move(report);
  probing_ = true;
  net_.sim().schedule(probe_interval_s_, [this] { probe_round(); });
}

void VnfDaemon::probe_round() {
  if (!probing_) return;
  for (netsim::NodeId peer : probe_peers_) {
    const auto bw = net_.probe_bandwidth_bps(node_, peer, 0.02);
    const auto rtt = net_.ping_rtt(node_, peer, 64);
    if (probe_report_) probe_report_(peer, bw, rtt);
  }
  net_.sim().schedule(probe_interval_s_, [this] { probe_round(); });
}

void VnfDaemon::start_heartbeats(netsim::NodeId controller, netsim::Port port,
                                 double interval_s) {
  hb_target_ = controller;
  hb_port_ = port;
  hb_interval_s_ = interval_s;
  net_.sim().schedule(hb_interval_s_, [this] { heartbeat_round(); });
}

void VnfDaemon::heartbeat_round() {
  netsim::Datagram d;
  d.src = node_;
  d.dst = hb_target_;
  d.dst_port = hb_port_;
  d.payload = net_.take_buffer();
  const std::string text = "HB " + std::to_string(node_);
  d.payload.assign(text.begin(), text.end());
  net_.send(std::move(d));
  net_.sim().schedule(hb_interval_s_, [this] { heartbeat_round(); });
}

}  // namespace ncfn::vnf
