// Link-time interposition of the layers' entry points. The traced
// binaries link with -Wl,--wrap=<symbol> for every symbol listed in
// wrapped_symbols.txt: each call into that symbol from another
// translation unit lands in __wrap_<symbol> here, which opens a span and
// calls the original through __real_<symbol>. Calls inside one
// translation unit are not interposed, so only cross-module entry
// points are listed.
//
// Attribution rules for work that runs later from the event loop:
//  * a handler passed to Network::bind/bind_burst is wrapped in a span
//    tagged by the node's kind: vnf at a data-center node, app.endpoint
//    at a host node (kinds come from the SimNet topology, or from
//    register_node_kinds for networks a harness builds itself);
//  * a closure passed to Simulator::schedule_at takes the key of the
//    innermost span open when it was scheduled, or netsim.dispatch.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "app/config.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "ctrl/problem.hpp"
#include "gf/gf256.hpp"
#include "graph/paths.hpp"
#include "lp/simplex.hpp"
#include "netsim/network.hpp"
#include "netsim/worker.hpp"
#include "obs/merge.hpp"
#include "trace/node_kinds.hpp"
#include "trace/provider.hpp"
#include "trace/span.hpp"

using namespace ncfn;
using perfbench::trace::Counter;
using perfbench::trace::Key;
using perfbench::trace::Span;
namespace tr = perfbench::trace;

namespace {

struct KindRegistry {
  std::mutex mu;
  std::map<const netsim::Network*, std::vector<Key>> kinds;
};
KindRegistry& kind_registry() {
  static auto* r = new KindRegistry;  // never destroyed (see span.cpp)
  return *r;
}

Key node_key(const netsim::Network* net, netsim::NodeId node) {
  KindRegistry& r = kind_registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.kinds.find(net);
  if (it == r.kinds.end() || node >= it->second.size()) {
    tr::count(Counter::kUntaggedBinds);
    return Key::kAppEndpoint;
  }
  return it->second[node];
}

// Decorators handed to sessions in place of the caller's provider; they
// must outlive the sessions, so they live until the process exits.
struct ProviderRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<tr::TimedProvider>> providers;
};
const app::GenerationProvider& timed(const app::GenerationProvider& inner) {
  static auto* r = new ProviderRegistry;
  const std::lock_guard<std::mutex> lock(r->mu);
  r->providers.push_back(std::make_unique<tr::TimedProvider>(inner));
  return *r->providers.back();
}

void count_gf(std::size_t bytes) {
  tr::count(Counter::kGfBytes, bytes);
  if (bytes % 64 != 0) tr::count(Counter::kGfTailCalls);
}

}  // namespace

namespace perfbench::trace {

void register_node_kinds(const netsim::Network& net, std::vector<Key> kinds) {
  KindRegistry& r = kind_registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.kinds[&net] = std::move(kinds);
}

void forget_node_kinds(const netsim::Network& net) {
  KindRegistry& r = kind_registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.kinds.erase(&net);
}

}  // namespace perfbench::trace

// Each wrapper below is declared with the original's C++ signature, with
// `this` as an explicit first parameter for member functions (the
// Itanium ABI passes it first; a by-value class return still travels
// through the hidden result pointer ahead of it).
extern "C" {

// ---- netsim ----
std::size_t __real__ZN4ncfn6netsim9Simulator9run_untilEd(netsim::Simulator*,
                                                         double);
std::size_t __wrap__ZN4ncfn6netsim9Simulator9run_untilEd(
    netsim::Simulator* self, double t_end) {
  const Span span(Key::kNetsimDispatch);
  const std::size_t n =
      __real__ZN4ncfn6netsim9Simulator9run_untilEd(self, t_end);
  tr::count(Counter::kEvents, n);
  return n;
}

netsim::EventId __real__ZN4ncfn6netsim9Simulator11schedule_atEdSt8functionIFvvEE(
    netsim::Simulator*, double, std::function<void()>);
netsim::EventId __wrap__ZN4ncfn6netsim9Simulator11schedule_atEdSt8functionIFvvEE(
    netsim::Simulator* self, double t, std::function<void()> fn) {
  const Key key = tr::current_key(Key::kNetsimDispatch);
  return __real__ZN4ncfn6netsim9Simulator11schedule_atEdSt8functionIFvvEE(
      self, t, [key, fn = std::move(fn)] {
        const Span span(key);
        fn();
      });
}

bool __real__ZN4ncfn6netsim7Network4sendENS0_8DatagramE(netsim::Network*,
                                                        netsim::Datagram);
bool __wrap__ZN4ncfn6netsim7Network4sendENS0_8DatagramE(netsim::Network* self,
                                                        netsim::Datagram d) {
  const Span span(Key::kNetsimLink);
  return __real__ZN4ncfn6netsim7Network4sendENS0_8DatagramE(self,
                                                            std::move(d));
}

void __real__ZN4ncfn6netsim7Network10send_burstEOSt6vectorINS0_8DatagramESaIS3_EE(
    netsim::Network*, std::vector<netsim::Datagram>&&);
void __wrap__ZN4ncfn6netsim7Network10send_burstEOSt6vectorINS0_8DatagramESaIS3_EE(
    netsim::Network* self, std::vector<netsim::Datagram>&& burst) {
  const Span span(Key::kNetsimLink);
  __real__ZN4ncfn6netsim7Network10send_burstEOSt6vectorINS0_8DatagramESaIS3_EE(
      self, std::move(burst));
}

void __real__ZN4ncfn6netsim7Network4bindEjtSt8functionIFvRKNS0_8DatagramEEE(
    netsim::Network*, netsim::NodeId, netsim::Port, netsim::DatagramHandler);
void __wrap__ZN4ncfn6netsim7Network4bindEjtSt8functionIFvRKNS0_8DatagramEEE(
    netsim::Network* self, netsim::NodeId node, netsim::Port port,
    netsim::DatagramHandler handler) {
  const Key key = node_key(self, node);
  __real__ZN4ncfn6netsim7Network4bindEjtSt8functionIFvRKNS0_8DatagramEEE(
      self, node, port,
      [key, h = std::move(handler)](const netsim::Datagram& d) {
        const Span span(key);
        h(d);
      });
}

void __real__ZN4ncfn6netsim7Network10bind_burstEjtSt8functionIFvSt4spanINS0_8DatagramELm18446744073709551615EEEE(
    netsim::Network*, netsim::NodeId, netsim::Port, netsim::BurstHandler);
void __wrap__ZN4ncfn6netsim7Network10bind_burstEjtSt8functionIFvSt4spanINS0_8DatagramELm18446744073709551615EEEE(
    netsim::Network* self, netsim::NodeId node, netsim::Port port,
    netsim::BurstHandler handler) {
  const Key key = node_key(self, node);
  __real__ZN4ncfn6netsim7Network10bind_burstEjtSt8functionIFvSt4spanINS0_8DatagramELm18446744073709551615EEEE(
      self, node, port,
      [key, h = std::move(handler)](std::span<netsim::Datagram> burst) {
        const Span span(key);
        h(burst);
      });
}

void __real__ZN4ncfn6netsim10WorkerPool3runEmRKSt8functionIFvmEE(
    netsim::WorkerPool*, std::size_t,
    const std::function<void(std::size_t)>&);
void __wrap__ZN4ncfn6netsim10WorkerPool3runEmRKSt8functionIFvmEE(
    netsim::WorkerPool* self, std::size_t jobs,
    const std::function<void(std::size_t)>& fn) {
  const Span span(Key::kNetsimWorker);
  // Each job's slot is written by the one lane that runs it and read
  // after run() returns, past the pool's barrier.
  std::vector<std::int64_t> job_ns(jobs, 0);
  const std::function<void(std::size_t)> timed_fn = [&](std::size_t j) {
    const std::int64_t t0 = tr::now_ns();
    fn(j);
    job_ns[j] = tr::now_ns() - t0;
  };
  const std::int64_t t0 = tr::now_ns();
  __real__ZN4ncfn6netsim10WorkerPool3runEmRKSt8functionIFvmEE(self, jobs,
                                                               timed_fn);
  const std::int64_t wall = tr::now_ns() - t0;
  const std::size_t lanes = self->workers();
  std::vector<std::int64_t> lane_ns(lanes, 0);
  for (std::size_t j = 0; j < jobs; ++j) lane_ns[j % lanes] += job_ns[j];
  for (const std::int64_t busy : lane_ns) {
    tr::count(Counter::kWorkerBusyNs, static_cast<std::uint64_t>(busy));
    tr::count(Counter::kWorkerWaitNs,
              static_cast<std::uint64_t>(wall > busy ? wall - busy : 0));
  }
}

// ---- coding ----
coding::CodedPacket __real__ZN4ncfn6coding7Encoder13encode_randomEv(
    coding::Encoder*);
coding::CodedPacket __wrap__ZN4ncfn6coding7Encoder13encode_randomEv(
    coding::Encoder* self) {
  const Span span(Key::kCoding);
  return __real__ZN4ncfn6coding7Encoder13encode_randomEv(self);
}

coding::CodedPacket __real__ZN4ncfn6coding7Encoder17encode_systematicEm(
    coding::Encoder*, std::size_t);
coding::CodedPacket __wrap__ZN4ncfn6coding7Encoder17encode_systematicEm(
    coding::Encoder* self, std::size_t i) {
  const Span span(Key::kCoding);
  return __real__ZN4ncfn6coding7Encoder17encode_systematicEm(self, i);
}

void __real__ZN4ncfn6coding7Encoder19encode_random_batchEmRNS0_11PacketBatchE(
    coding::Encoder*, std::size_t, coding::PacketBatch&);
void __wrap__ZN4ncfn6coding7Encoder19encode_random_batchEmRNS0_11PacketBatchE(
    coding::Encoder* self, std::size_t k, coding::PacketBatch& out) {
  const Span span(Key::kCoding);
  __real__ZN4ncfn6coding7Encoder19encode_random_batchEmRNS0_11PacketBatchE(
      self, k, out);
}

bool __real__ZN4ncfn6coding7Decoder3addERKNS0_11CodedPacketE(
    coding::Decoder*, const coding::CodedPacket&);
bool __wrap__ZN4ncfn6coding7Decoder3addERKNS0_11CodedPacketE(
    coding::Decoder* self, const coding::CodedPacket& pkt) {
  const Span span(Key::kCoding);
  return __real__ZN4ncfn6coding7Decoder3addERKNS0_11CodedPacketE(self, pkt);
}

coding::CodedPacket __real__ZNK4ncfn6coding7Decoder6recodeERSt23mersenne_twister_engineImLm32ELm624ELm397ELm31ELm2567483615ELm11ELm4294967295ELm7ELm2636928640ELm15ELm4022730752ELm18ELm1812433253EE(
    const coding::Decoder*, std::mt19937&);
coding::CodedPacket __wrap__ZNK4ncfn6coding7Decoder6recodeERSt23mersenne_twister_engineImLm32ELm624ELm397ELm31ELm2567483615ELm11ELm4294967295ELm7ELm2636928640ELm15ELm4022730752ELm18ELm1812433253EE(
    const coding::Decoder* self, std::mt19937& rng) {
  const Span span(Key::kCoding);
  return __real__ZNK4ncfn6coding7Decoder6recodeERSt23mersenne_twister_engineImLm32ELm624ELm397ELm31ELm2567483615ELm11ELm4294967295ELm7ELm2636928640ELm15ELm4022730752ELm18ELm1812433253EE(
      self, rng);
}

void __real__ZNK4ncfn6coding7Decoder12recode_batchERSt23mersenne_twister_engineImLm32ELm624ELm397ELm31ELm2567483615ELm11ELm4294967295ELm7ELm2636928640ELm15ELm4022730752ELm18ELm1812433253EEmRNS0_11PacketBatchE(
    const coding::Decoder*, std::mt19937&, std::size_t, coding::PacketBatch&);
void __wrap__ZNK4ncfn6coding7Decoder12recode_batchERSt23mersenne_twister_engineImLm32ELm624ELm397ELm31ELm2567483615ELm11ELm4294967295ELm7ELm2636928640ELm15ELm4022730752ELm18ELm1812433253EEmRNS0_11PacketBatchE(
    const coding::Decoder* self, std::mt19937& rng, std::size_t k,
    coding::PacketBatch& out) {
  const Span span(Key::kCoding);
  __real__ZNK4ncfn6coding7Decoder12recode_batchERSt23mersenne_twister_engineImLm32ELm624ELm397ELm31ELm2567483615ELm11ELm4294967295ELm7ELm2636928640ELm15ELm4022730752ELm18ELm1812433253EEmRNS0_11PacketBatchE(
      self, rng, k, out);
}

std::vector<std::vector<std::uint8_t>> __real__ZNK4ncfn6coding7Decoder7recoverEv(
    const coding::Decoder*);
std::vector<std::vector<std::uint8_t>> __wrap__ZNK4ncfn6coding7Decoder7recoverEv(
    const coding::Decoder* self) {
  const Span span(Key::kCodingRecover);
  return __real__ZNK4ncfn6coding7Decoder7recoverEv(self);
}

// ---- gf ----
void __real__ZN4ncfn2gf8bulk_xorESt4spanIhLm18446744073709551615EES1_IKhLm18446744073709551615EE(
    std::span<gf::u8>, std::span<const gf::u8>);
void __wrap__ZN4ncfn2gf8bulk_xorESt4spanIhLm18446744073709551615EES1_IKhLm18446744073709551615EE(
    std::span<gf::u8> dst, std::span<const gf::u8> src) {
  const Span span(Key::kGf);
  count_gf(dst.size());
  __real__ZN4ncfn2gf8bulk_xorESt4spanIhLm18446744073709551615EES1_IKhLm18446744073709551615EE(
      dst, src);
}

void __real__ZN4ncfn2gf8bulk_mulESt4spanIhLm18446744073709551615EEh(
    std::span<gf::u8>, gf::u8);
void __wrap__ZN4ncfn2gf8bulk_mulESt4spanIhLm18446744073709551615EEh(
    std::span<gf::u8> dst, gf::u8 c) {
  const Span span(Key::kGf);
  count_gf(dst.size());
  __real__ZN4ncfn2gf8bulk_mulESt4spanIhLm18446744073709551615EEh(dst, c);
}

void __real__ZN4ncfn2gf11bulk_muladdESt4spanIhLm18446744073709551615EES1_IKhLm18446744073709551615EEh(
    std::span<gf::u8>, std::span<const gf::u8>, gf::u8);
void __wrap__ZN4ncfn2gf11bulk_muladdESt4spanIhLm18446744073709551615EES1_IKhLm18446744073709551615EEh(
    std::span<gf::u8> dst, std::span<const gf::u8> src, gf::u8 c) {
  const Span span(Key::kGf);
  count_gf(dst.size());
  __real__ZN4ncfn2gf11bulk_muladdESt4spanIhLm18446744073709551615EES1_IKhLm18446744073709551615EEh(
      dst, src, c);
}

void __real__ZN4ncfn2gf14bulk_muladd_x4ESt4spanIhLm18446744073709551615EEPKPKhS4_(
    std::span<gf::u8>, const gf::u8* const*, const gf::u8*);
void __wrap__ZN4ncfn2gf14bulk_muladd_x4ESt4spanIhLm18446744073709551615EEPKPKhS4_(
    std::span<gf::u8> dst, const gf::u8* const* src, const gf::u8* c) {
  const Span span(Key::kGf);
  count_gf(dst.size());
  __real__ZN4ncfn2gf14bulk_muladd_x4ESt4spanIhLm18446744073709551615EEPKPKhS4_(
      dst, src, c);
}

gf::u8 __real__ZN4ncfn2gf3dotESt4spanIKhLm18446744073709551615EES3_(
    std::span<const gf::u8>, std::span<const gf::u8>);
gf::u8 __wrap__ZN4ncfn2gf3dotESt4spanIKhLm18446744073709551615EES3_(
    std::span<const gf::u8> a, std::span<const gf::u8> b) {
  const Span span(Key::kGf);
  count_gf(a.size());
  return __real__ZN4ncfn2gf3dotESt4spanIKhLm18446744073709551615EES3_(a, b);
}

// ---- app ----
std::vector<std::uint8_t> __real__ZNK4ncfn3app17SyntheticProvider16generation_bytesEj(
    const app::SyntheticProvider*, coding::GenerationId);
std::vector<std::uint8_t> __wrap__ZNK4ncfn3app17SyntheticProvider16generation_bytesEj(
    const app::SyntheticProvider* self, coding::GenerationId id) {
  const Span span(Key::kAppProvider);
  std::vector<std::uint8_t> out =
      __real__ZNK4ncfn3app17SyntheticProvider16generation_bytesEj(self, id);
  tr::count(Counter::kProviderBytes, out.size());
  return out;
}

void __real__ZN4ncfn3app8McSource5startEv(app::McSource*);
void __wrap__ZN4ncfn3app8McSource5startEv(app::McSource* self) {
  const Span span(Key::kAppEndpoint);
  __real__ZN4ncfn3app8McSource5startEv(self);
}

void __real__ZN4ncfn3app10McReceiver5startEv(app::McReceiver*);
void __wrap__ZN4ncfn3app10McReceiver5startEv(app::McReceiver* self) {
  const Span span(Key::kAppEndpoint);
  __real__ZN4ncfn3app10McReceiver5startEv(self);
}

std::optional<app::Scenario> __real__ZN4ncfn3app13load_scenarioERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS0_10ParseErrorE(
    const std::string&, app::ParseError*);
std::optional<app::Scenario> __wrap__ZN4ncfn3app13load_scenarioERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS0_10ParseErrorE(
    const std::string& path, app::ParseError* err) {
  const Span span(Key::kAppParse);
  return __real__ZN4ncfn3app13load_scenarioERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS0_10ParseErrorE(
      path, err);
}

void __real__ZN4ncfn3app6SimNetC1ERKNS_5graph8TopologyERKNS0_12SimNetConfigE(
    app::SimNet*, const graph::Topology&, const app::SimNetConfig&);
void __wrap__ZN4ncfn3app6SimNetC1ERKNS_5graph8TopologyERKNS0_12SimNetConfigE(
    app::SimNet* self, const graph::Topology& topo,
    const app::SimNetConfig& cfg) {
  const Span span(Key::kAppWire);
  __real__ZN4ncfn3app6SimNetC1ERKNS_5graph8TopologyERKNS0_12SimNetConfigE(
      self, topo, cfg);
  std::vector<Key> kinds;
  for (graph::NodeIdx i = 0; i < topo.node_count(); ++i) {
    kinds.push_back(topo.node(i).kind == graph::NodeKind::kDataCenter
                        ? Key::kVnf
                        : Key::kAppEndpoint);
  }
  tr::register_node_kinds(self->net(), std::move(kinds));
}

void __real__ZN4ncfn3app6SimNetD1Ev(app::SimNet*);
void __wrap__ZN4ncfn3app6SimNetD1Ev(app::SimNet* self) {
  const Span span(Key::kAppTeardown);
  tr::forget_node_kinds(self->net());
  __real__ZN4ncfn3app6SimNetD1Ev(self);
}

void __real__ZN4ncfn3app18NcMulticastSessionC1ERNS0_6SimNetERKNS_4ctrl14DeploymentPlanEmRKNS4_11SessionSpecERKNS0_18GenerationProviderERKNS0_13SessionWiringE(
    app::NcMulticastSession*, app::SimNet&, const ctrl::DeploymentPlan&,
    std::size_t, const ctrl::SessionSpec&, const app::GenerationProvider&,
    const app::SessionWiring&);
void __wrap__ZN4ncfn3app18NcMulticastSessionC1ERNS0_6SimNetERKNS_4ctrl14DeploymentPlanEmRKNS4_11SessionSpecERKNS0_18GenerationProviderERKNS0_13SessionWiringE(
    app::NcMulticastSession* self, app::SimNet& sim,
    const ctrl::DeploymentPlan& plan, std::size_t m,
    const ctrl::SessionSpec& spec, const app::GenerationProvider& provider,
    const app::SessionWiring& wiring) {
  const Span span(Key::kAppWire);
  __real__ZN4ncfn3app18NcMulticastSessionC1ERNS0_6SimNetERKNS_4ctrl14DeploymentPlanEmRKNS4_11SessionSpecERKNS0_18GenerationProviderERKNS0_13SessionWiringE(
      self, sim, plan, m, spec, timed(provider), wiring);
}

// ---- ctrl / lp / graph ----
ctrl::DeploymentPlan __real__ZN4ncfn4ctrl16solve_deploymentERKNS0_17DeploymentProblemERKNS0_12SolveOptionsE(
    const ctrl::DeploymentProblem&, const ctrl::SolveOptions&);
ctrl::DeploymentPlan __wrap__ZN4ncfn4ctrl16solve_deploymentERKNS0_17DeploymentProblemERKNS0_12SolveOptionsE(
    const ctrl::DeploymentProblem& prob, const ctrl::SolveOptions& opts) {
  const Span span(Key::kCtrlSolve);
  return __real__ZN4ncfn4ctrl16solve_deploymentERKNS0_17DeploymentProblemERKNS0_12SolveOptionsE(
      prob, opts);
}

lp::Solution __real__ZNK4ncfn2lp7Problem5solveEm(const lp::Problem*,
                                                 std::size_t);
lp::Solution __wrap__ZNK4ncfn2lp7Problem5solveEm(const lp::Problem* self,
                                                 std::size_t max_iters) {
  const Span span(Key::kLpSolve);
  lp::Solution sol = __real__ZNK4ncfn2lp7Problem5solveEm(self, max_iters);
  if (!sol.ok()) tr::count(Counter::kLpNonOptimal);
  return sol;
}

std::vector<graph::Path> __real__ZN4ncfn5graph14feasible_pathsERKNS0_8TopologyEiidRKNS0_16PathSearchLimitsE(
    const graph::Topology&, graph::NodeIdx, graph::NodeIdx, double,
    const graph::PathSearchLimits&);
std::vector<graph::Path> __wrap__ZN4ncfn5graph14feasible_pathsERKNS0_8TopologyEiidRKNS0_16PathSearchLimitsE(
    const graph::Topology& topo, graph::NodeIdx src, graph::NodeIdx dst,
    double lmax_s, const graph::PathSearchLimits& limits) {
  const Span span(Key::kGraphPaths);
  return __real__ZN4ncfn5graph14feasible_pathsERKNS0_8TopologyEiidRKNS0_16PathSearchLimitsE(
      topo, src, dst, lmax_s, limits);
}

// ---- obs ----
}  // extern "C"

namespace {
// Every EventTrace emitter appends one record to data().
template <typename Real, typename... Args>
void traced_emit(Real real, obs::EventTrace* self, Args... args) {
  const Span span(Key::kObsTrace);
  const std::size_t before = self->data().size();
  real(self, args...);
  tr::count(Counter::kTraceRecords);
  tr::count(Counter::kTraceBytes, self->data().size() - before);
}
}  // namespace

extern "C" {

void __real__ZN4ncfn3obs10EventTrace9emit_linkEPKcjjmm(
    obs::EventTrace*, const char*, std::uint32_t, std::uint32_t, std::size_t,
    std::size_t);
void __wrap__ZN4ncfn3obs10EventTrace9emit_linkEPKcjjmm(
    obs::EventTrace* self, const char* ev, std::uint32_t from,
    std::uint32_t to, std::size_t bytes, std::size_t q) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace9emit_linkEPKcjjmm, self, ev,
              from, to, bytes, q);
}

void __real__ZN4ncfn3obs10EventTrace9emit_dropEjjmPKc(
    obs::EventTrace*, std::uint32_t, std::uint32_t, std::size_t,
    const char*);
void __wrap__ZN4ncfn3obs10EventTrace9emit_dropEjjmPKc(
    obs::EventTrace* self, std::uint32_t from, std::uint32_t to,
    std::size_t bytes, const char* reason) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace9emit_dropEjjmPKc, self, from,
              to, bytes, reason);
}

void __real__ZN4ncfn3obs10EventTrace8emit_genEPKcjjjm(
    obs::EventTrace*, const char*, std::uint32_t, std::uint32_t,
    std::uint32_t, std::size_t);
void __wrap__ZN4ncfn3obs10EventTrace8emit_genEPKcjjjm(
    obs::EventTrace* self, const char* ev, std::uint32_t node,
    std::uint32_t session, std::uint32_t gen, std::size_t aux) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace8emit_genEPKcjjjm, self, ev,
              node, session, gen, aux);
}

void __real__ZN4ncfn3obs10EventTrace15emit_gen_reasonEPKcjjjS3_(
    obs::EventTrace*, const char*, std::uint32_t, std::uint32_t,
    std::uint32_t, const char*);
void __wrap__ZN4ncfn3obs10EventTrace15emit_gen_reasonEPKcjjjS3_(
    obs::EventTrace* self, const char* ev, std::uint32_t node,
    std::uint32_t session, std::uint32_t gen, const char* reason) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace15emit_gen_reasonEPKcjjjS3_,
              self, ev, node, session, gen, reason);
}

void __real__ZN4ncfn3obs10EventTrace11emit_signalEjPKc(obs::EventTrace*,
                                                       std::uint32_t,
                                                       const char*);
void __wrap__ZN4ncfn3obs10EventTrace11emit_signalEjPKc(obs::EventTrace* self,
                                                       std::uint32_t node,
                                                       const char* kind) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace11emit_signalEjPKc, self, node,
              kind);
}

void __real__ZN4ncfn3obs10EventTrace11emit_fwdtabEjmd(obs::EventTrace*,
                                                      std::uint32_t,
                                                      std::size_t, double);
void __wrap__ZN4ncfn3obs10EventTrace11emit_fwdtabEjmd(obs::EventTrace* self,
                                                      std::uint32_t node,
                                                      std::size_t changed,
                                                      double cost_s) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace11emit_fwdtabEjmd, self, node,
              changed, cost_s);
}

void __real__ZN4ncfn3obs10EventTrace9emit_pairEPKcjj(obs::EventTrace*,
                                                     const char*,
                                                     std::uint32_t,
                                                     std::uint32_t);
void __wrap__ZN4ncfn3obs10EventTrace9emit_pairEPKcjj(obs::EventTrace* self,
                                                     const char* ev,
                                                     std::uint32_t from,
                                                     std::uint32_t to) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace9emit_pairEPKcjj, self, ev,
              from, to);
}

void __real__ZN4ncfn3obs10EventTrace9emit_nodeEPKcj(obs::EventTrace*,
                                                    const char*,
                                                    std::uint32_t);
void __wrap__ZN4ncfn3obs10EventTrace9emit_nodeEPKcj(obs::EventTrace* self,
                                                    const char* ev,
                                                    std::uint32_t node) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace9emit_nodeEPKcj, self, ev, node);
}

void __real__ZN4ncfn3obs10EventTrace12emit_resolveEPKcm(obs::EventTrace*,
                                                        const char*,
                                                        std::size_t);
void __wrap__ZN4ncfn3obs10EventTrace12emit_resolveEPKcm(obs::EventTrace* self,
                                                        const char* cause,
                                                        std::size_t sessions) {
  traced_emit(&__real__ZN4ncfn3obs10EventTrace12emit_resolveEPKcm, self,
              cause, sessions);
}

std::string __real__ZN4ncfn3obs12merge_tracesB5cxx11ERKSt6vectorIPKNS0_10EventTraceESaIS4_EE(
    const std::vector<const obs::EventTrace*>&);
std::string __wrap__ZN4ncfn3obs12merge_tracesB5cxx11ERKSt6vectorIPKNS0_10EventTraceESaIS4_EE(
    const std::vector<const obs::EventTrace*>& traces) {
  const Span span(Key::kObsMerge);
  return __real__ZN4ncfn3obs12merge_tracesB5cxx11ERKSt6vectorIPKNS0_10EventTraceESaIS4_EE(
      traces);
}

obs::MetricsRegistry __real__ZN4ncfn3obs13merge_metricsERKSt6vectorIPKNS0_15MetricsRegistryESaIS4_EE(
    const std::vector<const obs::MetricsRegistry*>&);
obs::MetricsRegistry __wrap__ZN4ncfn3obs13merge_metricsERKSt6vectorIPKNS0_15MetricsRegistryESaIS4_EE(
    const std::vector<const obs::MetricsRegistry*>& regs) {
  const Span span(Key::kObsMerge);
  return __real__ZN4ncfn3obs13merge_metricsERKSt6vectorIPKNS0_15MetricsRegistryESaIS4_EE(
      regs);
}

bool __real__ZNK4ncfn3obs10EventTrace5writeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const obs::EventTrace*, const std::string&);
bool __wrap__ZNK4ncfn3obs10EventTrace5writeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const obs::EventTrace* self, const std::string& path) {
  const Span span(Key::kObsWrite);
  return __real__ZNK4ncfn3obs10EventTrace5writeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      self, path);
}

bool __real__ZNK4ncfn3obs15MetricsRegistry10write_jsonERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const obs::MetricsRegistry*, const std::string&);
bool __wrap__ZNK4ncfn3obs15MetricsRegistry10write_jsonERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const obs::MetricsRegistry* self, const std::string& path) {
  const Span span(Key::kObsWrite);
  return __real__ZNK4ncfn3obs15MetricsRegistry10write_jsonERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      self, path);
}

// ncfn-run writes the sharded run's outputs with plain stdio.
std::size_t __real_fwrite(const void*, std::size_t, std::size_t, std::FILE*);
std::size_t __wrap_fwrite(const void* ptr, std::size_t size, std::size_t n,
                          std::FILE* f) {
  const Span span(Key::kObsWrite);
  return __real_fwrite(ptr, size, n, f);
}

}  // extern "C"
