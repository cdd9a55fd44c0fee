// Observability hub: one metrics registry plus one event trace. Every
// netsim::Network owns one, so every layer built on a network records
// into it; a harness that wants its own hub swaps it in with
// Network::set_obs before building on the network.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ncfn::obs {

struct Observability {
  MetricsRegistry metrics;
  EventTrace trace;
};

}  // namespace ncfn::obs
