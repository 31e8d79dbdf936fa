// Small descriptive-statistics helpers shared by the error metrics, feature
// extraction and experiment reporting code.
#pragma once

#include <cstddef>
#include <vector>

namespace rpe {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// Population variance; 0 for fewer than 2 elements.
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double StdDev(const std::vector<double>& xs);

/// p-th percentile (p in [0,100]) by linear interpolation; 0 for empty input.
double Percentile(std::vector<double> xs, double p);

/// Pearson correlation coefficient; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

/// Lp norm of the elementwise difference, normalized by count:
/// (sum |a_i - b_i|^p / n)^(1/p). Used for the paper's L1/L2 progress errors.
double LpError(const std::vector<double>& a, const std::vector<double>& b,
               double p);

/// \brief Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);
  size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rpe
