// Packet-loss models, the netem substitute (Sec. V.B.3).
//
// The paper emulates (a) i.i.d. uniform loss at rates 0–50 % and (b) burst
// loss where "the loss rate of the n-th packet is P_n = 25% x P_{n-1} + P"
// with P_0 = 0 and P in 0–5 %. Both are provided here, plus a classic
// two-state Gilbert–Elliott model for extra failure-injection coverage.
#pragma once

#include <memory>
#include <random>

namespace ncfn::netsim {

/// Decides, per packet, whether the link drops it.
class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Returns true if the packet should be dropped.
  virtual bool drop(std::mt19937& rng) = 0;
};

/// I.i.d. Bernoulli loss with fixed rate.
class UniformLoss final : public LossModel {
 public:
  explicit UniformLoss(double rate) : rate_(rate) {}
  bool drop(std::mt19937& rng) override {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < rate_;
  }
  [[nodiscard]] double rate() const { return rate_; }

 private:
  double rate_;
};

/// The paper's burst model: P_n = 0.25 * P_{n-1} + P, P_0 = 0.
/// After a drop the loss probability spikes (the 0.25 carry-over decays a
/// burst geometrically); stationary per-packet rate works out near
/// P / (1 - 0.25) for small P.
class BurstLoss final : public LossModel {
 public:
  explicit BurstLoss(double p) : p_(p) {}
  bool drop(std::mt19937& rng) override {
    pn_ = 0.25 * pn_ + p_;
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < pn_;
  }

 private:
  double p_;
  double pn_ = 0.0;
};

/// Two-state Gilbert–Elliott channel (good/bad), for failure injection.
class GilbertElliottLoss final : public LossModel {
 public:
  GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good,
                     double loss_good, double loss_bad)
      : p_gb_(p_good_to_bad),
        p_bg_(p_bad_to_good),
        loss_good_(loss_good),
        loss_bad_(loss_bad) {}
  bool drop(std::mt19937& rng) override {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    // Sample the loss in the *current* state, then transition: the n-th
    // packet sees the state reached after n-1 packets. Transitioning
    // first made the first packet of every burst draw from the wrong
    // state and skewed the stationary loss rate.
    const bool dropped = u(rng) < (good_ ? loss_good_ : loss_bad_);
    if (good_) {
      if (u(rng) < p_gb_) good_ = false;
    } else {
      if (u(rng) < p_bg_) good_ = true;
    }
    return dropped;
  }

 private:
  double p_gb_, p_bg_, loss_good_, loss_bad_;
  bool good_ = true;
};

}  // namespace ncfn::netsim
