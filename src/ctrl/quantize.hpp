// Generation-granular plan quantization.
//
// Optimization (2) is a fluid model: its optimum may assign a conceptual
// flow 0.5 packets per generation on some path. The data plane, however,
// codes within generations of g blocks, so a receiver whose paths deliver
// fractional per-generation packet counts sees integer shortfalls on a
// fraction of generations — each one a stall that only the repair loop
// can clear. Quantization trades a little planned rate for exactness:
//
//   for each session, find the largest lambda' <= lambda such that every
//   receiver's paths deliver, at integer per-generation packet counts
//   n_p = floor(g * rate_p / lambda'), at least g packets per generation;
//   then snap each path rate to n_p * lambda' / g.
//
// The butterfly's clean 35/35 splits are untouched (lambda' = lambda);
// awkward splits lose at most a few quanta of planned rate and gain a
// stall-free data plane. Applied by the session runtime before wiring
// (SessionWiring::quantize).
#pragma once

#include "ctrl/problem.hpp"

namespace ncfn::ctrl {

struct QuantizeResult {
  /// Sessions whose lambda was reduced to reach integrality.
  int sessions_reduced = 0;
  /// Total planned rate given up (Mbps, across sessions).
  double rate_lost_mbps = 0.0;
};

/// Quantize every session of `plan` in place for generations of
/// `generation_blocks` blocks. Edge rates f_m(e) are recomputed from the
/// snapped path rates; VNF counts are left unchanged (they covered the
/// larger rates, so they still cover). A session that no quantum step
/// makes integral runs at its receivers' smallest best-path rate, and a
/// session with a receiver that has no path is zeroed.
QuantizeResult quantize_plan(DeploymentPlan& plan,
                             std::size_t generation_blocks);

}  // namespace ncfn::ctrl
