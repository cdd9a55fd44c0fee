// Edge-case suite for the post-barrier trace/metrics merge (ctest -L
// obs|mt). test_mt.cpp proves the merge agrees with the inline run on
// real scenarios; this file pins the boundary behavior with hand-
// written goldens, BYTE-compared: equal timestamps across 3+ inputs,
// empty input streams in every position, and header-only (registered
// but empty) metrics. Byte equality is the contract — a merge that is
// "semantically" right but reorders or reformats breaks replay diffs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ncfn;

obs::EventTrace make_trace(double* clock_slot) {
  obs::EventTrace tr;
  tr.enable();
  tr.set_clock([clock_slot] { return *clock_slot; });
  return tr;
}

// ---- Traces ----

TEST(MergeEdge, EqualTimestampsAcrossThreeInputsKeepInputOrder) {
  double t = 1.0;
  obs::EventTrace a = make_trace(&t);
  obs::EventTrace b = make_trace(&t);
  obs::EventTrace c = make_trace(&t);
  // Every record carries the same timestamp: the (input index, emission
  // order) tie-break decides everything. c emits twice to also pin
  // within-input stability under ties.
  a.vnf_restart(1);
  b.vnf_restart(2);
  c.vnf_restart(3);
  c.vnf_crash(4);

  const std::string merged = obs::merge_traces({&a, &b, &c});
  EXPECT_EQ(merged,
            "{\"t\":1.000000000,\"ev\":\"vnf_restart\",\"node\":1}\n"
            "{\"t\":1.000000000,\"ev\":\"vnf_restart\",\"node\":2}\n"
            "{\"t\":1.000000000,\"ev\":\"vnf_restart\",\"node\":3}\n"
            "{\"t\":1.000000000,\"ev\":\"vnf_crash\",\"node\":4}\n");
}

TEST(MergeEdge, EqualTimestampBlocksInterleaveByTimeNotInput) {
  double t = 0;
  obs::EventTrace a = make_trace(&t);
  obs::EventTrace b = make_trace(&t);
  t = 2.0;
  a.vnf_restart(1);
  t = 1.0;
  b.vnf_restart(2);
  t = 2.0;
  b.vnf_restart(3);  // ties a's 2.0 record: input 0 first

  const std::string merged = obs::merge_traces({&a, &b});
  EXPECT_EQ(merged,
            "{\"t\":1.000000000,\"ev\":\"vnf_restart\",\"node\":2}\n"
            "{\"t\":2.000000000,\"ev\":\"vnf_restart\",\"node\":1}\n"
            "{\"t\":2.000000000,\"ev\":\"vnf_restart\",\"node\":3}\n");
}

TEST(MergeEdge, EmptyInputsVanishWithoutATrace) {
  double t = 0.5;
  obs::EventTrace empty_head = make_trace(&t);
  obs::EventTrace populated = make_trace(&t);
  obs::EventTrace empty_tail = make_trace(&t);
  populated.vnf_restart(7);

  // Empty streams in any position contribute zero bytes; a merge with
  // one live input IS that input, byte for byte.
  EXPECT_EQ(obs::merge_traces({&empty_head, &populated, &empty_tail}),
            populated.data());
  EXPECT_EQ(obs::merge_traces({&empty_head, &empty_tail}), "");
  EXPECT_EQ(obs::merge_traces({}), "");
}

// ---- Metrics ----

TEST(MergeEdge, HeaderOnlyMetricsSnapshotIsTheEmptyGolden) {
  // A registry with nothing registered serializes to the header-only
  // snapshot: all three sections present, all empty. The merge of such
  // registries is the same golden — sections never disappear.
  const std::string kEmptyGolden =
      "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
  const obs::MetricsRegistry blank;
  EXPECT_EQ(blank.to_json(), kEmptyGolden);
  const obs::MetricsRegistry none = obs::merge_metrics({});
  EXPECT_EQ(none.to_json(), kEmptyGolden);

  obs::MetricsRegistry a, b;
  const obs::MetricsRegistry merged = obs::merge_metrics({&a, &b});
  EXPECT_EQ(merged.to_json(), kEmptyGolden);
}

TEST(MergeEdge, EmptyRegistriesAreTheMergeIdentity) {
  obs::MetricsRegistry empty_head, populated, empty_tail;
  populated.counter("pkts").inc(11);
  populated.gauge("load").add(2.5);
  const std::vector<double> bounds = {1.0, 4.0};
  populated.histogram("lat", bounds).record(0.5);
  populated.histogram("lat", bounds).record(6.0);

  const obs::MetricsRegistry merged =
      obs::merge_metrics({&empty_head, &populated, &empty_tail});
  EXPECT_EQ(merged.to_json(), populated.to_json());
}

TEST(MergeEdge, ZeroValuedEntriesSurviveTheFold) {
  // "Registered but never bumped" is observable state (the snapshot
  // names the metric); the fold must keep it rather than dropping
  // zero-valued entries.
  obs::MetricsRegistry a, b;
  a.counter("seen");  // registered, value 0
  b.counter("seen").inc(0);
  a.gauge("idle");
  const obs::MetricsRegistry merged = obs::merge_metrics({&a, &b});
  EXPECT_EQ(merged.to_json(),
            "{\"counters\":{\"seen\":0},\"gauges\":{\"idle\":0},"
            "\"histograms\":{}}");
}

}  // namespace
