// Deterministic merging of per-shard observability output.
//
// A multi-worker run gives every shard its own Observability hub: trace
// and metrics writes stay single-threaded within a shard, so the hot
// path needs no locks and each shard's output is exactly what the same
// shard would produce alone. The merge happens once, after the barrier
// at end of run, on one thread:
//
//   * Traces: a k-way merge of the shards' JSONL buffers ordered by
//     (sim time, shard index, emission order). Each shard's buffer is
//     already time-sorted, and the timestamp comparison happens on the
//     fixed "%.9f" text itself (shorter integer part => smaller; equal
//     length => lexicographic), so the merge is exact — no float
//     round-trip — and byte-identical for any worker count.
//   * Metrics: counters sum, gauges add, histograms fold bucket-wise
//     (Histogram::merge; bounds must match, which they do because every
//     shard registers through the same wiring code).
//
// Concurrency contract: the inputs must be QUIESCENT — no worker lane
// may still be appending to any trace buffer or bumping any registry
// when a merge starts. The callers guarantee this structurally: merges
// run on the single post-barrier thread, after WorkerPool::run has
// joined every lane (shard ownership is the
// NCFN_GUARDED_BY(owner) Role in app::SimShard; the shard accessors
// assert it before handing buffers to the merge). The merge itself
// never mutates its inputs, so no lock is taken here.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ncfn::obs {

/// Merge already-time-sorted JSONL trace buffers into one stream ordered
/// by (sim time, input index, original order). Inputs must be
/// EventTrace-formatted: every line starts with {"t":<%.9f>,...
[[nodiscard]] std::string merge_traces(
    const std::vector<const EventTrace*>& traces);

/// Fold per-shard registries into one: counters sum, gauges add,
/// histograms merge. Deterministic: names visit in map order, shards in
/// input order.
[[nodiscard]] MetricsRegistry merge_metrics(
    const std::vector<const MetricsRegistry*>& regs);

}  // namespace ncfn::obs
