// Timing GenerationProvider decorator: every generation() call is an
// app.provider span. Used wherever an API takes the provider interface.
#pragma once

#include "app/provider.hpp"
#include "trace/span.hpp"

namespace perfbench::trace {

class TimedProvider final : public ncfn::app::GenerationProvider {
 public:
  /// `inner` must outlive this decorator.
  explicit TimedProvider(const ncfn::app::GenerationProvider& inner)
      : inner_(&inner) {}

  [[nodiscard]] ncfn::coding::GenerationId generation_count() const override {
    return inner_->generation_count();
  }
  [[nodiscard]] std::size_t total_bytes() const override {
    return inner_->total_bytes();
  }
  [[nodiscard]] ncfn::coding::Generation generation(
      ncfn::coding::GenerationId id) const override {
    const Span span(Key::kAppProvider);
    ncfn::coding::Generation g = inner_->generation(id);
    count(Counter::kProviderBytes, g.payload_bytes());
    return g;
  }

 private:
  const ncfn::app::GenerationProvider* inner_;
};

}  // namespace perfbench::trace
