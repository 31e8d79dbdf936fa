// Table 7: MART training times (seconds) as a function of the number of
// training examples and boosting iterations M, including writing the
// model (in the .rpsn model encoding the serving tier loads). Trains on synthetic data with the paper's feature arity
// (~200 features) and 30-leaf trees.
#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mart/mart.h"
#include "serving/snapshot.h"

using namespace rpe;

namespace {

Dataset MakeSyntheticData(size_t examples, size_t features, uint64_t seed) {
  Dataset data(features);
  Rng rng(seed);
  std::vector<double> x(features);
  for (size_t i = 0; i < examples; ++i) {
    for (size_t f = 0; f < features; ++f) x[f] = rng.NextDouble();
    // Nonlinear target with noise, so trees have something to learn.
    const double y = 0.3 * x[0] + (x[1] > 0.5 ? 0.4 : 0.0) +
                     0.2 * x[2] * x[3] + 0.05 * rng.NextGaussian();
    RPE_CHECK_OK(data.AddExample(x, y));
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  // --parallel-only skips the (long) paper sweep and runs just the
  // thread-count comparison below.
  const bool parallel_only =
      argc > 1 && std::string(argv[1]) == "--parallel-only";
  const size_t kFeatures = 200;  // the paper: ~200 double values per query
  const std::vector<size_t> example_counts = {100, 500, 3000, 6000, 60000};
  const std::vector<int> boosting = {20, 50, 100, 200, 500, 1000};

  TablePrinter table({"Examples", "M=20", "M=50", "M=100", "M=200", "M=500",
                      "M=1000"});
  for (size_t n : parallel_only ? std::vector<size_t>{} : example_counts) {
    Dataset data = MakeSyntheticData(n, kFeatures, 42 + n);
    std::vector<std::string> row = {std::to_string(n)};
    for (int m : boosting) {
      MartParams params;
      params.num_trees = m;
      params.tree.max_leaves = 30;
      const auto start = std::chrono::steady_clock::now();
      MartModel model = MartModel::Train(data, params);
      // Include writing the model in the .rpsn model encoding, the format
      // the system loads (the paper's times include writing the output
      // model).
      const std::string blob = EncodeMartModel(model);
      const auto end = std::chrono::steady_clock::now();
      const double secs =
          std::chrono::duration<double>(end - start).count() +
          1e-9 * static_cast<double>(blob.size() ? 0 : 1);
      row.push_back(TablePrinter::Fmt(secs, secs < 1 ? 2 : 1));
      std::cerr << n << " examples, M=" << m << ": " << secs << "s\n";
    }
    table.AddRow(std::move(row));
  }
  if (!parallel_only) {
    std::cout << "=== Table 7: MART training times in seconds ===\n";
    table.Print();
    std::cout << "\nPaper's Table 7: sub-second up to 6K examples; 60K\n"
                 "examples range from 8s (M=20) to 41s (M=1000). Training\n"
                 "scales ~linearly in examples x M.\n";
  }

  // Parallel-training delta: the same fit at several thread counts. The
  // fitted model is thread-count invariant (ordered split reduction), so
  // this measures pure wall-clock, not a different model. Hardware
  // concurrency on this host bounds the achievable speedup.
  std::cout << "\n=== Parallel training: wall-clock vs. thread count ===\n"
            << "(hardware concurrency: "
            << std::thread::hardware_concurrency() << ")\n";
  TablePrinter threads_table(
      {"Examples x M", "T=1", "T=2", "T=4", "T=8", "speedup T=8"});
  const std::vector<std::pair<size_t, int>> parallel_cases = {
      {6000, 100}, {20000, 100}};
  for (const auto& [n, m] : parallel_cases) {
    Dataset data = MakeSyntheticData(n, kFeatures, 42 + n);
    MartParams params;
    params.num_trees = m;
    params.tree.max_leaves = 30;
    std::vector<double> secs_by_threads;
    for (const int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      params.pool = &pool;
      const auto start = std::chrono::steady_clock::now();
      MartModel model = MartModel::Train(data, params);
      const auto end = std::chrono::steady_clock::now();
      secs_by_threads.push_back(
          std::chrono::duration<double>(end - start).count());
      std::cerr << n << " examples, M=" << m << ", T=" << threads << ": "
                << secs_by_threads.back() << "s\n";
    }
    threads_table.AddRow(
        {std::to_string(n) + " x M=" + std::to_string(m),
         TablePrinter::Fmt(secs_by_threads[0], 2),
         TablePrinter::Fmt(secs_by_threads[1], 2),
         TablePrinter::Fmt(secs_by_threads[2], 2),
         TablePrinter::Fmt(secs_by_threads[3], 2),
         TablePrinter::Fmt(secs_by_threads[0] / secs_by_threads[3], 2) +
             "x"});
  }
  threads_table.Print();
  return 0;
}
