// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary reproduces one table or figure from the paper's
// evaluation (Sec. V) and prints the same rows/series the paper reports,
// plus the paper's reference numbers where useful. Absolute Mbps depend
// on the simulated substrate; the *shape* (ordering, crossovers,
// saturation points) is the reproduction target — see EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "app/baseline.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "app/scenarios.hpp"
#include "ctrl/problem.hpp"
#include "netsim/loss.hpp"

namespace ncfn::bench {

inline ctrl::SessionSpec butterfly_session(const app::scenarios::Butterfly& b) {
  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = b.source;
  spec.receivers = {b.recv_o2, b.recv_c2};
  spec.lmax_s = 0.150;
  return spec;
}

inline ctrl::DeploymentPlan plan_butterfly(const app::scenarios::Butterfly& b) {
  ctrl::DeploymentProblem prob;
  prob.topo = &b.topo;
  prob.alpha = 0.0;
  prob.sessions.push_back(butterfly_session(b));
  return ctrl::solve_deployment(prob);
}

struct ButterflyRunConfig {
  coding::CodingParams params;       // generation/block/buffer sizes
  int redundancy = 0;                // NC0/NC1/NC2
  double uniform_loss = 0.0;         // on the T->V2 bottleneck
  double burst_loss_p = 0.0;         // paper burst model parameter P
  double duration_s = 4.0;
  double recode_hold_s = 0.050;      // 0 = strict per-arrival pipeline
  double proc_rate_Bps = 4e8;      // VNF coding capacity model
  std::uint32_t seed = 7;
};

struct ButterflyRunResult {
  double goodput_mbps = 0.0;  // min over the two receivers
  double rx_goodput[2] = {0, 0};
  std::uint64_t repair_requests = 0;
  std::uint64_t verify_failures = 0;
  double first_gen_ack_rtt[2] = {-1, -1};  // seconds, per receiver
};

/// Run one NC multicast session on the Fig. 6 butterfly.
inline ButterflyRunResult run_nc_butterfly(const ButterflyRunConfig& cfg) {
  const auto b = app::scenarios::butterfly(false);
  const auto plan = plan_butterfly(b);
  app::SyntheticProvider provider(
      cfg.seed,
      static_cast<std::size_t>(80e6 / 8 * (cfg.duration_s + 5)),
      cfg.params);

  app::SimNet sim(b.topo);
  if (cfg.uniform_loss > 0) {
    sim.link(b.bottleneck)
        ->set_loss_model(
            std::make_unique<netsim::UniformLoss>(cfg.uniform_loss));
  } else if (cfg.burst_loss_p > 0) {
    sim.link(b.bottleneck)
        ->set_loss_model(
            std::make_unique<netsim::BurstLoss>(cfg.burst_loss_p));
  }
  app::SessionWiring wiring;
  wiring.vnf.params = cfg.params;
  wiring.vnf.recode_hold_s = cfg.recode_hold_s;
  wiring.vnf.proc_rate_Bps = cfg.proc_rate_Bps;
  wiring.redundancy = cfg.redundancy;
  wiring.repair_timeout_s = 0.3;
  wiring.seed = cfg.seed + 11;
  app::NcMulticastSession session(sim, plan, 0, butterfly_session(b),
                                  provider, wiring);
  session.receiver(0).set_verify(&provider);
  session.receiver(1).set_verify(&provider);
  session.start();
  sim.net().sim().run_until(cfg.duration_s);

  ButterflyRunResult r;
  r.goodput_mbps = session.session_goodput_mbps();
  for (int k = 0; k < 2; ++k) {
    r.rx_goodput[k] = session.receiver(static_cast<std::size_t>(k)).goodput_mbps();
  }
  // Session-wide totals come from the shared metrics registry — the same
  // numbers every other consumer (ncfn-run --metrics-out, tests) sees.
  r.repair_requests = sim.metrics().counter_value("app.repair_requests_sent");
  r.verify_failures = sim.metrics().counter_value("app.verify_failures");
  int k = 0;
  for (const auto& [node, rtt] : session.source().stats().first_gen_ack_rtt) {
    if (k < 2) r.first_gen_ack_rtt[k++] = rtt;
  }
  return r;
}

/// Run one routing-only (Non-NC) session on the butterfly.
inline ButterflyRunResult run_tree_butterfly(const ButterflyRunConfig& cfg) {
  const auto b = app::scenarios::butterfly(false);
  const auto packing = app::pack_trees(b.topo, b.source,
                                       {b.recv_o2, b.recv_c2}, 0.150);
  app::SyntheticProvider provider(
      cfg.seed,
      static_cast<std::size_t>(60e6 / 8 * (cfg.duration_s + 5)),
      cfg.params);
  app::SimNet sim(b.topo);
  if (cfg.uniform_loss > 0) {
    sim.link(b.bottleneck)
        ->set_loss_model(
            std::make_unique<netsim::UniformLoss>(cfg.uniform_loss));
  } else if (cfg.burst_loss_p > 0) {
    sim.link(b.bottleneck)
        ->set_loss_model(
            std::make_unique<netsim::BurstLoss>(cfg.burst_loss_p));
  }
  app::SessionWiring wiring;
  wiring.vnf.params = cfg.params;
  wiring.vnf.proc_rate_Bps = cfg.proc_rate_Bps;
  wiring.repair_timeout_s = 0.3;
  wiring.seed = cfg.seed + 13;
  app::TreeMulticastSession session(sim, packing, butterfly_session(b),
                                    provider, wiring);
  session.start();
  sim.net().sim().run_until(cfg.duration_s);

  ButterflyRunResult r;
  r.goodput_mbps = session.session_goodput_mbps();
  for (int k = 0; k < 2; ++k) {
    r.rx_goodput[k] = session.receiver(static_cast<std::size_t>(k)).goodput_mbps();
  }
  r.repair_requests = sim.metrics().counter_value("app.repair_requests_sent");
  int k = 0;
  for (const auto& [node, rtt] : session.source().stats().first_gen_ack_rtt) {
    if (k < 2) r.first_gen_ack_rtt[k++] = rtt;
  }
  return r;
}

inline void print_header(const char* fig, const char* title) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", fig, title);
  std::printf("==================================================================\n");
}

}  // namespace ncfn::bench
