// ctrl_churn workload: controller decisions under session churn.
//
// A ctrl::Controller on the six-data-center overlay of Sec. V.C (more
// hosts per region, so session endpoints stay distinct) receives a
// seeded script of decisions (closed loop). The script runs in episodes
// of kEpisodeDecisions (20) decisions on a fresh controller: three session
// joins, then a fixed cycle of session join/quit, receiver join/quit and
// per-VM bandwidth reports that takes the live session count from 3 to
// 5 and back, as in Fig. 10. Each decision is one public Controller call
// followed by tick(), timed together; simulated time advances 60 s per
// decision, so bandwidth changes persist past tau1 and re-solve.
//
// An episode's sessions join at fixed region offsets from the episode's
// base region, and a pass runs one episode from each of the six base
// regions, so every pass solves the same mix of placements. Bandwidth
// reports alternate between 75 % and 125 % of the nominal VM rate. Whole
// passes repeat until --seconds have passed. The seed orders the base
// regions and picks the host VMs (equivalent within a region, so the
// solved problems do not depend on it). After every decision
// the plan is checked: its LP statuses must be kOptimal and it must not
// score below the empty plan. Longer episodes do not pass that check:
// the deployed VNF count ratchets up until the objective goes negative.
//
//   perf_ctrl --seed <n> [--seconds <s>] [--min-decisions <n>]
//             [--setup-only 1]
//
// Prints one JSON line: per-decision wall times and the failures.
#include <array>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "app/scenarios.hpp"
#include "ctrl/controller.hpp"
#include "harness/common.hpp"

using namespace ncfn;
namespace hb = perfbench::harness;

namespace {

constexpr double kStepS = 60.0;
constexpr std::size_t kEpisodeDecisions = 20;
constexpr std::size_t kRegions = 6;
constexpr std::size_t kMinSessions = 3;

enum class Op { kJoin, kQuit, kReceiverJoin, kReceiverQuit, kBandwidth };
/// After kMinSessions joins, an episode repeats this cycle.
constexpr std::array kCycle = {
    Op::kJoin, Op::kBandwidth, Op::kReceiverJoin, Op::kJoin,
    Op::kBandwidth, Op::kQuit, Op::kReceiverQuit, Op::kQuit,
    Op::kBandwidth, Op::kReceiverJoin};

app::scenarios::SixDcParams overlay_params() {
  app::scenarios::SixDcParams p;
  p.hosts_per_region = 16;
  return p;
}

ctrl::Controller::Config controller_config() {
  ctrl::Controller::Config cfg;
  cfg.alpha = 20.0;
  cfg.tau_s = cfg.tau1_s = cfg.tau2_s = 600.0;
  return cfg;
}

/// The decisions' inputs: endpoints at fixed offsets from the episode's
/// base region, on seeded host VMs.
class Script {
 public:
  Script(const app::scenarios::SixDc& net, std::uint32_t seed)
      : net_(&net), rng_(seed), first_base_(seed % kRegions) {}

  /// Start episode `e`: every host is free and joins count from zero.
  void new_episode(std::size_t e) {
    used_.clear();
    joins_ = 0;
    base_ = first_base_ + e;
  }

  /// An unused host VM in region `base + offset` (mod 6), now used.
  graph::NodeIdx host_in(std::size_t offset) {
    const std::size_t per_region = net_->hosts.size() / kRegions;
    std::uniform_int_distribution<std::size_t> d(0, per_region - 1);
    graph::NodeIdx h = -1;
    while (h < 0 || used_.count(h) != 0) {
      h = net_->hosts[region(offset) * per_region + d(rng_)];
    }
    used_.insert(h);
    return h;
  }
  void release(graph::NodeIdx h) { used_.erase(h); }

  /// The n-th join of the episode: source region base + n, 1-4
  /// receivers in the regions after it.
  ctrl::SessionSpec session(coding::SessionId id) {
    const std::size_t n = joins_++;
    ctrl::SessionSpec spec;
    spec.id = id;
    spec.lmax_s = 0.150;
    spec.max_rate_mbps = 200.0;
    spec.source = host_in(n);
    for (std::size_t i = 0; i <= n % 4; ++i) {
      spec.receivers.push_back(host_in(n + 1 + i));
    }
    return spec;
  }

  /// The region `offset` regions after the episode's base region.
  std::size_t region(std::size_t offset) const {
    return (base_ + offset) % kRegions;
  }

  /// A receiver VM for a receiver join.
  graph::NodeIdx receiver() { return host_in(joins_ + 3); }

 private:
  const app::scenarios::SixDc* net_;
  std::mt19937 rng_;
  std::size_t first_base_;
  std::size_t base_ = 0;
  std::size_t joins_ = 0;
  std::set<graph::NodeIdx> used_;
};

/// Why the controller's current plan is wrong, or nullptr.
const char* plan_problem(const ctrl::Controller& ctl) {
  if (ctl.sessions().empty()) return nullptr;
  const ctrl::DeploymentPlan& plan = ctl.plan();
  if (plan.relax_status != lp::Status::kOptimal ||
      plan.final_status != lp::Status::kOptimal) {
    return "LP status is not optimal";
  }
  if (plan.objective < -1e-6) return "plan scores below the empty plan";
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  hb::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint32_t>(flags.num("seed", 1));
  const double seconds = flags.num("seconds", 5);
  const auto min_decisions =
      static_cast<std::size_t>(flags.num("min-decisions", 1));
  const bool setup_only = flags.num("setup-only", 0) != 0;
  flags.done();

  std::unique_ptr<app::scenarios::SixDc> net;
  std::unique_ptr<ctrl::Controller> ctl;
  {
    PB_SPAN(kAppWire);
    net = std::make_unique<app::scenarios::SixDc>(
        app::scenarios::six_datacenters(overlay_params()));
    ctl = std::make_unique<ctrl::Controller>(net->topo, controller_config());
  }
  if (setup_only) return 0;

  Script script(*net, seed);
  script.new_episode(0);
  coding::SessionId next_id = 1;
  double now = 0;
  std::vector<double> decide_s;
  std::uint64_t failed = 0;
  std::string first_failure;
  const std::size_t pass = kRegions * kEpisodeDecisions;
  const double t_begin = hb::now_s();
  while (decide_s.size() % pass != 0 || decide_s.size() < min_decisions ||
         hb::now_s() - t_begin < seconds) {
    const std::size_t k = decide_s.size() % kEpisodeDecisions;
    if (k == 0 && !decide_s.empty()) {
      PB_SPAN(kAppWire);
      ctl = std::make_unique<ctrl::Controller>(net->topo, controller_config());
      script.new_episode(decide_s.size() / kEpisodeDecisions);
      now = 0;
    }
    now += kStepS;
    // Draw the decision (untimed), then time the call plus its tick.
    double t0 = 0;
    {
      PB_SPAN(kHarness);
      const Op op = k < kMinSessions
                        ? Op::kJoin
                        : kCycle[(k - kMinSessions) % kCycle.size()];
      const auto& live = ctl->sessions();
      if (op == Op::kJoin) {
        const ctrl::SessionSpec spec = script.session(next_id++);
        t0 = hb::now_s();
        PB_SPAN(kCtrlDecide);
        ctl->add_session(spec, now);
        ctl->tick(now);
      } else if (op == Op::kQuit) {
        const ctrl::SessionSpec spec = live.front();  // the oldest
        script.release(spec.source);
        for (const graph::NodeIdx h : spec.receivers) script.release(h);
        t0 = hb::now_s();
        PB_SPAN(kCtrlDecide);
        ctl->remove_session(spec.id, now);
        ctl->tick(now);
      } else if (op == Op::kReceiverJoin) {
        const coding::SessionId id = live[k % live.size()].id;
        const graph::NodeIdx host = script.receiver();
        t0 = hb::now_s();
        PB_SPAN(kCtrlDecide);
        ctl->add_receiver(id, host, now);
        ctl->tick(now);
      } else if (op == Op::kReceiverQuit) {
        // A session's last receiver leaves, if it has more than one.
        const ctrl::SessionSpec spec = live[k % live.size()];
        const graph::NodeIdx host = spec.receivers.back();
        const bool leaves = spec.receivers.size() > 1;
        if (leaves) script.release(host);
        t0 = hb::now_s();
        PB_SPAN(kCtrlDecide);
        if (leaves) ctl->remove_receiver(spec.id, host, now);
        ctl->tick(now);
      } else {
        // A per-VM bandwidth report of 75 % or 125 % of the nominal
        // 400 Mbps, at a data center that rotates with the decision.
        const graph::NodeIdx dc = net->dcs[script.region(k)];
        const double low = 300e6, high = 500e6;
        const double bin = k % 2 ? low : high, bout = k % 2 ? high : low;
        t0 = hb::now_s();
        PB_SPAN(kCtrlDecide);
        ctl->report_bandwidth(dc, bin, bout, now);
        ctl->tick(now);
      }
    }
    decide_s.push_back(hb::now_s() - t0);

    PB_SPAN(kHarness);
    if (const char* why = plan_problem(*ctl)) {
      ++failed;
      if (first_failure.empty()) {
        first_failure =
            "decision " + std::to_string(decide_s.size()) + ": " + why;
      }
    }
  }

  std::printf(
      "{\"decisions\": %zu, \"decide_s\": [%s], \"failed\": %llu, "
      "\"first_failure\": %s}\n",
      decide_s.size(), hb::join(decide_s).c_str(),
      static_cast<unsigned long long>(failed),
      hb::quoted(first_failure).c_str());
  return 0;
}
