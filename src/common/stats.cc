#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rpe {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  RPE_CHECK_GE(p, 0.0);
  RPE_CHECK_LE(p, 100.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  RPE_CHECK_EQ(xs.size(), ys.size());
  if (xs.size() < 2) return 0.0;
  const double mx = Mean(xs), my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double LpError(const std::vector<double>& a, const std::vector<double>& b,
               double p) {
  RPE_CHECK_EQ(a.size(), b.size());
  RPE_CHECK_GT(p, 0.0);
  if (a.empty()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    s += std::pow(std::abs(a[i] - b[i]), p);
  }
  return std::pow(s / static_cast<double>(a.size()), 1.0 / p);
}

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace rpe
