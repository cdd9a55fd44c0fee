// Metrics registry — the uniform measurement surface for the whole stack.
//
// The paper's evaluation is a set of measurements (throughput, decode
// latency, VNF launch overhead, table-update cost); this registry gives
// every layer one place to publish those quantities instead of each bench
// re-deriving ad-hoc counters. Design constraints, matching the data
// plane's zero-allocation discipline:
//
//   * Registration (`counter()` / `gauge()` / `histogram()`) may allocate;
//     it happens once, at wiring time. The returned references are stable
//     for the registry's lifetime (node-based map), so hot paths hold a
//     handle and update it with a single add — no lookup, no allocation.
//   * Histograms use fixed buckets chosen at registration; record() is a
//     linear scan over a small immutable bound array — allocation-free.
//   * Snapshots serialize to JSON with keys in lexicographic order, so two
//     identical runs produce byte-identical output (the same determinism
//     contract as the event trace).
//
// Single-threaded by design, like the simulator that feeds it.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace ncfn::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram. Bucket i counts samples x with
/// bound[i-1] <= x < bound[i]; one implicit overflow bucket catches
/// x >= bound.back(). Bounds are fixed at registration, so record() never
/// allocates. An empty bound list is legal: every sample lands in the
/// single overflow bucket (count/sum/min/max still track exactly).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::span<const double> bounds)
      : bounds_(bounds.begin(), bounds.end()), buckets_(bounds.size() + 1, 0) {}

  void record(double x) noexcept {
    std::size_t i = 0;
    while (i < bounds_.size() && x >= bounds_[i]) ++i;
    ++buckets_[i];
    ++count_;
    sum_ += x;
    if (count_ == 1 || x < min_) min_ = x;
    if (count_ == 1 || x > max_) max_ = x;
  }

  /// Fold another histogram with identical bounds into this one.
  /// Mismatched bounds are rejected (returns false, no change).
  bool merge(const Histogram& other) noexcept {
    if (bounds_ != other.bounds_) return false;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ < min_) min_ = other.min_;
      if (count_ == 0 || other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    return true;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Min/max of recorded samples; 0 when empty.
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 buckets; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_{0};  // degenerate single-bucket default
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricsRegistry {
 public:
  /// Get-or-create. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// Bounds are taken from the first registration of `name`; later calls
  /// return the existing histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::span<const double> bounds) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram(bounds)).first;
    }
    return it->second;
  }

  /// Read-only lookups for consumers (benches, tests); nullptr if absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }
  /// Counter value or 0 when never registered (absent == never incremented).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    const Counter* c = find_counter(name);
    return c == nullptr ? 0 : c->value();
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Deterministic JSON snapshot:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// Keys are emitted in lexicographic (map) order.
  [[nodiscard]] std::string to_json() const;

  /// Write to_json() (plus a trailing newline) to `path`.
  /// Returns false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace ncfn::obs
