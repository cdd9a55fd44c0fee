// Runtime kernel dispatch: resolves the active tier once on first use —
// the best tier the build and CPU support, unless NCFN_GF_ISA or
// force_tier() overrides it. Lives in its own translation unit compiled
// without ISA flags so the selection logic itself runs on any CPU.
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "gf/gf256_kernels.hpp"

namespace ncfn::gf::simd {

namespace {

struct TierEntry {
  Tier tier;
  const char* name;  // the NCFN_GF_ISA spelling
  const KernelTable* (*table)() noexcept;
};

/// Every tier, best first: auto selection takes the first one the build
/// and CPU can run, and scalar always can.
constexpr TierEntry kTiers[] = {
    {Tier::kGfni, "gfni", detail::gfni_table},
    {Tier::kAvx2, "avx2", detail::avx2_table},
    {Tier::kScalar, "scalar", detail::scalar_table},
};

const KernelTable* table_for(Tier t) noexcept {
  for (const TierEntry& e : kTiers) {
    if (e.tier == t) return e.table();
  }
  return nullptr;
}

const KernelTable* auto_select() noexcept {
  if (const char* env = std::getenv("NCFN_GF_ISA"); env != nullptr) {
    for (const TierEntry& e : kTiers) {
      if (std::strcmp(env, e.name) == 0) {
        if (const KernelTable* kt = e.table()) return kt;
      }
    }
    // Unknown or unsupported value: fall through to auto selection.
  }
  return table_for(best_tier());
}

// Publication contract (release/acquire): every store below publishes a
// pointer to a KernelTable that is immutable and fully constructed
// BEFORE the store — the tables live in static storage inside the
// detail::*_table() functions, so the release store is what makes their
// initialization visible to the acquire load on any other thread. Two
// threads racing first use may both run auto_select(); it is a pure
// function of (env, CPUID), so both compute the same pointer and the
// duplicate store is harmless. force_tier()/reset_tier() reuse the same
// release publication; they are test-only knobs whose callers serialize
// externally (worker lanes never retune the tier mid-run).
std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const KernelTable& kernels() noexcept {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = auto_select();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

Tier active_tier() noexcept { return kernels().tier; }

Tier best_tier() noexcept {
  for (const TierEntry& e : kTiers) {
    if (e.table() != nullptr) return e.tier;
  }
  return Tier::kScalar;
}

bool tier_supported(Tier t) noexcept { return table_for(t) != nullptr; }

const char* tier_name(Tier t) noexcept {
  for (const TierEntry& e : kTiers) {
    if (e.tier == t) return e.name;
  }
  return "?";
}

bool force_tier(Tier t) noexcept {
  const KernelTable* kt = table_for(t);
  if (kt == nullptr) return false;
  g_active.store(kt, std::memory_order_release);
  return true;
}

void reset_tier() noexcept {
  g_active.store(auto_select(), std::memory_order_release);
}

}  // namespace ncfn::gf::simd
