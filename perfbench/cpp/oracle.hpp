#pragma once
// Output checks computed apart from the program under test. Every check is a
// pure function over values the benchmark read out of the engine, so the
// self-tests (tests.cpp) can feed it corrupted outputs and see it fail.
//
//   * RidgeOracle   — per-arm ridge regression by normal equations in long
//                     double: (X̃ᵀX̃ + ridge·I) θ = X̃ᵀy with x̃ = [x; 1].
//   * tolerant_arm  — Algorithm 1 line 7: the lowest prediction R̂_min, the
//                     window R̂_min + tr·max(R̂_min, 0) + ts, and the lowest
//                     resource cost inside it (ties keep the lower index).
//   * resource_cost — cpus + memory_gb/16 + 8·gpus, from the spec fields.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perfbench {

/// Agreement bound between engine and oracle predictions (README, "Checks").
inline constexpr double kRidgeTolerance = 1e-6;

class RidgeOracle {
 public:
  explicit RidgeOracle(std::size_t dim) : k_(dim + 1), a_(k_ * k_, 0.0L), b_(k_, 0.0L) {}

  void add(std::span<const double> x, double y) {
    for (std::size_t i = 0; i < k_; ++i) {
      const long double xi = i + 1 < k_ ? x[i] : 1.0L;
      for (std::size_t j = 0; j < k_; ++j) {
        const long double xj = j + 1 < k_ ? x[j] : 1.0L;
        a_[i * k_ + j] += xi * xj;
      }
      b_[i] += xi * y;
    }
    ++n_;
  }

  std::size_t count() const { return n_; }

  /// θ = [w; b] by Gaussian elimination with partial pivoting.
  std::vector<long double> solve(double ridge) const {
    std::vector<long double> m = a_;
    std::vector<long double> v = b_;
    for (std::size_t i = 0; i < k_; ++i) m[i * k_ + i] += ridge;
    for (std::size_t c = 0; c < k_; ++c) {
      std::size_t piv = c;
      for (std::size_t r = c + 1; r < k_; ++r) {
        if (std::fabs(m[r * k_ + c]) > std::fabs(m[piv * k_ + c])) piv = r;
      }
      if (piv != c) {
        for (std::size_t j = 0; j < k_; ++j) std::swap(m[c * k_ + j], m[piv * k_ + j]);
        std::swap(v[c], v[piv]);
      }
      for (std::size_t r = c + 1; r < k_; ++r) {
        const long double f = m[r * k_ + c] / m[c * k_ + c];
        for (std::size_t j = c; j < k_; ++j) m[r * k_ + j] -= f * m[c * k_ + j];
        v[r] -= f * v[c];
      }
    }
    std::vector<long double> theta(k_, 0.0L);
    for (std::size_t i = k_; i-- > 0;) {
      long double s = v[i];
      for (std::size_t j = i + 1; j < k_; ++j) s -= m[i * k_ + j] * theta[j];
      theta[i] = s / m[i * k_ + i];
    }
    return theta;
  }

  static long double predict(const std::vector<long double>& theta,
                             std::span<const double> x) {
    long double s = theta.back();
    for (std::size_t i = 0; i + 1 < theta.size(); ++i) s += theta[i] * x[i];
    return s;
  }

 private:
  std::size_t k_;
  std::vector<long double> a_;
  std::vector<long double> b_;
  std::size_t n_ = 0;
};

/// (a) Engine predictions agree with the oracle's within kRidgeTolerance,
/// relative to 1 + |oracle|.
inline bool predictions_match(std::span<const double> engine,
                              std::span<const long double> oracle) {
  if (engine.size() != oracle.size()) return false;
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const long double err = std::fabs(static_cast<long double>(engine[i]) - oracle[i]);
    if (!(err <= kRidgeTolerance * (1.0L + std::fabs(oracle[i])))) return false;
  }
  return true;
}

inline double resource_cost(int cpus, double memory_gb, int gpus) {
  return 1.0 * cpus + memory_gb / 16.0 + 8.0 * gpus;
}

/// (b) The tolerant rule the engine must follow.
inline std::size_t tolerant_arm(std::span<const double> preds,
                                std::span<const double> costs, double ratio,
                                double seconds) {
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < preds.size(); ++i) {
    if (preds[i] < preds[fastest]) fastest = i;
  }
  const double r_min = preds[fastest];
  const double limit = r_min + ratio * (r_min > 0.0 ? r_min : 0.0) + seconds;
  std::size_t best = fastest;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] <= limit && costs[i] < costs[best]) best = i;
  }
  return best;
}

/// (b) Every served arm equals the oracle's arm.
inline bool decisions_match(std::span<const std::size_t> served,
                            std::span<const std::size_t> oracle) {
  if (served.size() != oracle.size()) return false;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i] != oracle[i]) return false;
  }
  return true;
}

/// (c) Bit-identical doubles (NaN payloads and signed zeros included).
inline bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// (d) The engine's observation count equals the benchmark's own tally.
inline bool count_matches(std::size_t engine, std::size_t tally) { return engine == tally; }

/// (e) Probe-set regret of the learned greedy policy against the expected
/// regret of a uniform random choice, both from ground truth. `truth` holds
/// arms runtimes per probe row (row-major), `chosen` one arm per row.
struct ProbeRegret {
  double greedy = 0.0;
  double random = 0.0;
};

inline ProbeRegret probe_regret(std::span<const double> truth, std::size_t arms,
                                std::span<const std::size_t> chosen) {
  ProbeRegret r;
  for (std::size_t row = 0; row < chosen.size(); ++row) {
    const double* t = truth.data() + row * arms;
    double best = t[0];
    double mean = 0.0;
    for (std::size_t a = 0; a < arms; ++a) {
      best = std::min(best, t[a]);
      mean += t[a];
    }
    mean /= static_cast<double>(arms);
    r.greedy += t[chosen[row]] - best;
    r.random += mean - best;
  }
  return r;
}

inline bool greedy_beats_random(const ProbeRegret& r) { return r.greedy < r.random; }

}  // namespace perfbench
