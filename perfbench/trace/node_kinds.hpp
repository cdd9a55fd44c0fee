// Node kinds for the handler-tagging rule in wraps.cpp: a handler bound
// at node i of `net` is timed under kinds[i]. SimNet registers its
// topology automatically; a harness that builds a netsim::Network itself
// registers it here.
#pragma once

#include <vector>

#include "netsim/network.hpp"
#include "trace/span.hpp"

namespace perfbench::trace {

void register_node_kinds(const ncfn::netsim::Network& net,
                         std::vector<Key> kinds);
void forget_node_kinds(const ncfn::netsim::Network& net);

}  // namespace perfbench::trace
