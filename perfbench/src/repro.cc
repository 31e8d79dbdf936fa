// repro-cold: the paper's reproduction pipeline from an empty record
// cache. Four workload families are built (set-up), executed into
// pipeline records, and evaluated leave-one-family-out with the dynamic
// six-estimator selector (Fig. 5's protocol).
//
// The untraced pass calls the program's own entry points (RunWorkload,
// TrainAndEvaluate) so that any speed-up inside them shows. The traced
// pass makes the same calls one layer at a time, with a span around each,
// and must reproduce the untraced records and choices exactly.
#include <iostream>
#include <memory>
#include <tuple>

#include "bench.h"
#include "common/crc32.h"
#include "exec/executor.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "optimizer/cardinality.h"
#include "serving/snapshot.h"
#include "workload/workload.h"

namespace perfbench {

using namespace rpe;

namespace {

/// The four families: the light TPC-H/TPC-DS workloads and the join-heavy
/// Real-1/Real-2 ones, with the paper's per-family settings
/// (PaperWorkloadConfigs) at reduced query counts, each built from one
/// fixed draw. A few queries of each family set most of its cost, so a
/// seeded draw would move wall time and the latency tail with the draw
/// rather than with the program; the benchmark seed shuffles the order in
/// which the families run (and so the record order the selectors train
/// on) instead.
std::vector<WorkloadConfig> FamilyConfigs() {
  std::vector<WorkloadConfig> out;
  for (const WorkloadConfig& base : PaperWorkloadConfigs()) {
    WorkloadConfig c = base;
    if (base.name == "tpch-parttuned") {
      c.name = "tpch";
      c.num_queries = 150;
    } else if (base.name == "tpcds") {
      c.num_queries = 100;
    } else if (base.name == "real1") {
      c.num_queries = 30;
    } else if (base.name == "real2") {
      c.num_queries = 20;
    } else {
      continue;
    }
    c.seed = base.seed + 1000;
    out.push_back(c);
  }
  return out;
}

/// BuildWorkload for every family, in the seeded family order.
Result<std::vector<Workload>> BuildFamilies(
    const std::vector<WorkloadConfig>& configs, uint64_t seed,
    SpanLog* log = nullptr) {
  std::vector<size_t> order(configs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = order.size(); i > 1; --i) {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    std::swap(order[i - 1], order[(z ^ (z >> 31)) % i]);
  }
  std::vector<Workload> out;
  for (size_t f : order) {
    ScopedSpan span(log, "workload.build", f + 1);
    RPE_ASSIGN_OR_RETURN(Workload w, BuildWorkload(configs[f]));
    out.push_back(std::move(w));
  }
  return out;
}

/// Passes of the untraced pipeline per run; every timing is the median
/// over them (per query for the latencies, per holdout for swap_s).
constexpr int kPasses = 2;
/// Builds of the four families per run; setup_s is their median.
constexpr int kSetupReps = 9;

/// How far dynamic selection may trail the best fixed estimator in average
/// L1. The seed program trails it by 0.0012-0.0015 over seeds 1-10; the
/// rest is room for the seed-to-seed spread, so a program whose selection
/// loses further ground fails the run.
constexpr double kSelectionGap = 0.002;

/// The MART settings of the repository's Fig. 5 reproduction
/// (bench/bench_fig5_avg_errors: 100 trees of 30 leaves).
MartParams Fig5Params() {
  MartParams params;
  params.num_trees = 100;
  params.tree.max_leaves = 30;
  params.learning_rate = 0.1;
  return params;
}

bool IsJoinFamily(const WorkloadConfig& c) {
  return c.kind == WorkloadKind::kReal1 || c.kind == WorkloadKind::kReal2;
}

std::vector<PipelineRecord> Concat(
    const std::vector<std::vector<PipelineRecord>>& parts, size_t skip) {
  std::vector<PipelineRecord> out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i == skip) continue;
    out.insert(out.end(), parts[i].begin(), parts[i].end());
  }
  return out;
}

uint32_t RecordsCrc(const std::vector<std::vector<PipelineRecord>>& parts) {
  const std::string bytes =
      EncodeRecordBatch(Concat(parts, static_cast<size_t>(-1)));
  return Crc32(bytes.data(), bytes.size());
}

/// What one pass of the pipeline produced and how long each phase took.
struct Pass {
  std::vector<std::vector<PipelineRecord>> records;  ///< per family
  std::vector<double> query_ms;    ///< per executed query
  uint64_t attempted = 0;          ///< queries planned
  uint64_t executed = 0;           ///< queries planned and executed
  double setup_s = 0.0;            ///< BuildWorkload of all families
  double execute_s = 0.0;          ///< execute -> records, all families
  double wall_s = 0.0;             ///< execute -> records -> train -> evaluate
  std::vector<double> holdout_s;   ///< train + evaluate per held-out family
  std::vector<PipelineRecord> test;     ///< held-out records, holdout order
  std::vector<size_t> choices;          ///< selector choice per test record
};

// ---------------------------------------------------------------------------
// Untraced pass: the program's own entry points.

Result<Pass> UntracedPass(const std::vector<Workload>& workloads) {
  Pass pass;
  const auto t0 = Clock::now();
  for (const Workload& w : workloads) {
    RunOptions options;
    auto last = Clock::now();
    options.exec.on_run_complete = [&](const QueryRunResult&) {
      const auto now = Clock::now();
      pass.query_ms.push_back(SecondsBetween(last, now) * 1e3);
      last = now;
      ++pass.executed;
    };
    pass.attempted += w.queries.size();
    RPE_ASSIGN_OR_RETURN(std::vector<PipelineRecord> records,
                         RunWorkload(w, options));
    pass.records.push_back(std::move(records));
  }
  pass.execute_s = SecondsBetween(t0, Clock::now());

  for (size_t f = 0; f < pass.records.size(); ++f) {
    const auto h0 = Clock::now();
    const SelectionEvaluation eval =
        TrainAndEvaluate(Concat(pass.records, f), pass.records[f], PoolSix(),
                         /*use_dynamic_features=*/true, Fig5Params());
    pass.holdout_s.push_back(SecondsBetween(h0, Clock::now()));
    pass.test.insert(pass.test.end(), pass.records[f].begin(),
                     pass.records[f].end());
    pass.choices.insert(pass.choices.end(), eval.choices.begin(),
                        eval.choices.end());
  }
  pass.wall_s = SecondsBetween(t0, Clock::now());
  return pass;
}

// ---------------------------------------------------------------------------
// Traced pass: the same work, one layer call at a time.

/// Per-query layer tallies of the traced pass, split light/join.
struct ExecTally {
  std::vector<double> light_ms, join_ms;
  double getnext = 0.0;
  double busy_s = 0.0;
  uint64_t observations = 0;
  uint64_t failed = 0;
  uint64_t pipelines = 0;
};

Result<Pass> TracedPass(const std::vector<WorkloadConfig>& configs,
                        uint64_t seed, SpanLog* log, ExecTally* tally) {
  Pass pass;
  const auto s0 = Clock::now();
  RPE_ASSIGN_OR_RETURN(std::vector<Workload> workloads,
                       BuildFamilies(configs, seed, log));
  pass.setup_s = SecondsBetween(s0, Clock::now());

  const auto t0 = Clock::now();
  uint64_t query_id = 0;
  for (const Workload& w : workloads) {
    // Mirrors RunWorkload: one planner and histogram store per workload.
    ScopedSpan run_span(log, "harness.run_workload");
    CardinalityEstimator card(w.catalog.get());
    RunOptions options;
    Planner planner(w.catalog.get(), &card, options.planner);
    std::vector<PipelineRecord> records;
    for (const QuerySpec& spec : w.queries) {
      ++pass.attempted;
      const auto q0 = Clock::now();
      ScopedSpan query_span(log, "harness.query", ++query_id);
      std::unique_ptr<PhysicalPlan> plan;
      {
        ScopedSpan span(log, "optimizer.plan");
        auto planned = planner.Plan(spec);
        if (!planned.ok()) {
          span.Fail();
          ++tally->failed;
          continue;
        }
        plan = std::move(planned).ValueOrDie();
      }
      QueryRunResult run;
      {
        ScopedSpan span(log, "exec.execute");
        const auto e0 = Clock::now();
        auto executed = ExecutePlan(*plan, *w.catalog, options.exec);
        if (!executed.ok()) {
          span.Fail();
          ++tally->failed;
          continue;
        }
        run = std::move(executed).ValueOrDie();
        const double ms = SecondsBetween(e0, Clock::now()) * 1e3;
        (IsJoinFamily(w.config) ? tally->join_ms : tally->light_ms)
            .push_back(ms);
        tally->busy_s += ms * 1e-3;
      }
      run.plan = plan.get();
      ++pass.executed;
      tally->observations += run.observations.size();
      for (double n : run.true_n) tally->getnext += n;
      for (const Pipeline& pipeline : run.pipelines) {
        ++tally->pipelines;
        ScopedSpan span(log, "selection.make_record");
        PipelineView view{&run, &pipeline};
        PipelineRecord record;
        if (MakeRecord(view, w.config.name, spec.name, "", &record,
                       options.min_observations)) {
          records.push_back(std::move(record));
        }
      }
      pass.query_ms.push_back(SecondsBetween(q0, Clock::now()) * 1e3);
    }
    pass.records.push_back(std::move(records));
  }
  pass.execute_s = SecondsBetween(t0, Clock::now());

  // Mirrors TrainAndEvaluate; the batched select must pick exactly what
  // the per-record select of the untraced pass picked.
  Clock::duration excluded{0};
  for (size_t f = 0; f < pass.records.size(); ++f) {
    const std::vector<PipelineRecord>& test = pass.records[f];
    const auto h0 = Clock::now();
    std::unique_ptr<EstimatorSelector> selector;
    {
      ScopedSpan eval_span(log, "harness.train_and_evaluate", f + 1);
      {
        ScopedSpan span(log, "mart.train");
        selector = std::make_unique<EstimatorSelector>(EstimatorSelector::Train(
            Concat(pass.records, f), PoolSix(), /*use_dynamic_features=*/true,
            Fig5Params()));
      }
      std::vector<const std::vector<double>*> rows;
      for (const PipelineRecord& r : test) rows.push_back(&r.features);
      std::vector<size_t> choices(test.size());
      {
        ScopedSpan span(log, "selection.select");
        selector->SelectBatch(rows, choices);
      }
      EvaluateChoices(test, choices, PoolSix());
      pass.test.insert(pass.test.end(), test.begin(), test.end());
      pass.choices.insert(pass.choices.end(), choices.begin(), choices.end());
    }
    pass.holdout_s.push_back(SecondsBetween(h0, Clock::now()));
    // Raw scoring cost of the same rows: beside the evaluation, not part
    // of the pipeline's wall time.
    const auto p0 = Clock::now();
    std::vector<const double*> ptrs;
    for (const PipelineRecord& r : test) ptrs.push_back(r.features.data());
    std::vector<double> scores(test.size() * selector->pool().size());
    {
      ScopedSpan span(log, "mart.predict", test.size());
      selector->flat().PredictAllBatch(ptrs, scores);
    }
    excluded += Clock::now() - p0;
  }
  pass.wall_s = SecondsBetween(t0, Clock::now() - excluded);
  return pass;
}

/// Pooled L1 of the selector's choices and the paper's bounds on the
/// same records: the best of the prior estimators Fig. 5 compares against
/// (DNE, TGN, LUO), and the per-record oracle over the six candidates. The
/// best of all six fixed estimators is reported beside them.
struct Orderings {
  double sel_l1 = 0.0, best_prior_l1 = 0.0, best_fixed_l1 = 0.0,
         oracle_l1 = 0.0;
  std::string best_prior, best_fixed;
};

/// Lowest fixed-estimator L1 over `candidates`, and its name.
std::pair<double, std::string> BestFixed(const std::vector<PipelineRecord>& test,
                                         const std::vector<size_t>& candidates) {
  std::pair<double, std::string> best{1e300, ""};
  for (size_t est : candidates) {
    const double l1 =
        EvaluateChoices(test, FixedChoice(test, est), PoolSix()).avg_l1;
    if (l1 < best.first) {
      best = {l1, EstimatorName(static_cast<EstimatorKind>(est))};
    }
  }
  return best;
}

Orderings ComputeOrderings(const Pass& pass) {
  Orderings o;
  const std::vector<size_t> pool = PoolSix();
  o.sel_l1 = EvaluateChoices(pass.test, pass.choices, pool).avg_l1;
  std::tie(o.best_prior_l1, o.best_prior) =
      BestFixed(pass.test, PoolOriginalThree());
  std::tie(o.best_fixed_l1, o.best_fixed) = BestFixed(pass.test, pool);
  std::vector<size_t> oracle;
  for (const PipelineRecord& r : pass.test) oracle.push_back(BestInPool(r, pool));
  o.oracle_l1 = EvaluateChoices(pass.test, oracle, pool).avg_l1;
  return o;
}

double RateOrZero(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The end-to-end metrics of one pass (peak RSS is added by the caller).
void EndToEnd(const Pass& pass, const Orderings& o, Report* r) {
  r->Metric("setup_s", pass.setup_s, "s", kSetupReps);
  r->Metric("wall_s", pass.wall_s, "s", kPasses);
  r->Metric("sel_l1", o.sel_l1, "fraction", pass.test.size());
  r->Metric("sessions_per_s", RateOrZero(pass.executed, pass.execute_s), "1/s",
            pass.executed);
  // One executed query is both the session and the request here.
  const size_t n = pass.query_ms.size();
  r->Metric("req_p50_ms", Percentile(pass.query_ms, 50), "ms", n);
  r->Metric("req_p90_ms", Percentile(pass.query_ms, 90), "ms", n);
  r->Metric("req_p99_ms", Percentile(pass.query_ms, 99), "ms", n);
  r->Metric("session_p50_ms", Percentile(pass.query_ms, 50), "ms", n);
  r->Metric("session_p99_ms", Percentile(pass.query_ms, 99), "ms", n);
  r->Metric("swap_s", Median(pass.holdout_s), "s", pass.holdout_s.size());
}

/// One pass holding the per-element medians of `passes`' timings and the
/// first pass's outputs.
Pass MedianPass(std::vector<Pass> passes) {
  Pass out = passes.front();
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.*field);
    return Median(v);
  };
  out.execute_s = median_of(&Pass::execute_s);
  out.wall_s = median_of(&Pass::wall_s);
  for (size_t i = 0; i < out.query_ms.size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.query_ms[i]);
    out.query_ms[i] = Median(v);
  }
  for (size_t i = 0; i < out.holdout_s.size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.holdout_s[i]);
    out.holdout_s[i] = Median(v);
  }
  return out;
}

}  // namespace

int RunRepro(uint64_t seed, bool trace, const std::string& trace_out) {
  const std::vector<WorkloadConfig> configs = FamilyConfigs();
  Report report;
  // Set-up, measured kSetupReps times (median); the last build is used.
  std::vector<double> setup_reps;
  Result<std::vector<Workload>> workloads = std::vector<Workload>{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workloads = std::vector<Workload>{};
    const auto t0 = Clock::now();
    workloads = BuildFamilies(configs, seed);
    setup_reps.push_back(SecondsBetween(t0, Clock::now()));
    if (!workloads.ok()) break;
  }
  std::vector<Pass> passes;
  Status failed = workloads.status();
  for (int i = 0; i < kPasses && failed.ok(); ++i) {
    auto pass = UntracedPass(*workloads);
    failed = pass.status();
    if (pass.ok()) passes.push_back(std::move(pass).ValueOrDie());
  }
  if (!failed.ok()) {
    std::cerr << "repro-cold: " << failed.ToString() << "\n";
    return 1;
  }
  bool deterministic = true;
  for (const Pass& p : passes) {
    deterministic &= RecordsCrc(p.records) == RecordsCrc(passes[0].records) &&
                     p.choices == passes[0].choices;
  }
  report.Check("passes produce identical records and choices", deterministic,
               std::to_string(passes.size()) + " passes");
  Pass base = MedianPass(std::move(passes));
  base.setup_s = Median(setup_reps);
  const Orderings o = ComputeOrderings(base);
  const double base_rss = PeakRssMb();
  size_t num_records = 0;
  for (const auto& f : base.records) num_records += f.size();

  report.attempted = base.attempted;
  report.failed = base.attempted - base.executed;
  report.Check("sel_l1 < best prior estimator", o.sel_l1 < o.best_prior_l1,
               "sel_l1=" + JsonNumber(o.sel_l1) + " best of DNE/TGN/LUO (" +
                   o.best_prior + ")=" + JsonNumber(o.best_prior_l1));
  // Fig. 5: selection beats every fixed estimator. On these records it
  // does not (TGNINT is about 0.0015 lower), so the check holds the program
  // to the gap it has: a wider gap than kSelectionGap fails the run.
  report.Check("sel_l1 - best fixed-estimator L1 <= " +
                   JsonNumber(kSelectionGap),
               o.sel_l1 - o.best_fixed_l1 <= kSelectionGap,
               "sel_l1=" + JsonNumber(o.sel_l1) + " best of six (" +
                   o.best_fixed + ")=" + JsonNumber(o.best_fixed_l1) +
                   (o.sel_l1 < o.best_fixed_l1 ? "; Fig. 5 ordering holds"
                                               : "; Fig. 5 ordering does "
                                                 "not hold"));
  report.Check("oracle < sel_l1", o.oracle_l1 < o.sel_l1,
               "oracle=" + JsonNumber(o.oracle_l1) +
                   " sel_l1=" + JsonNumber(o.sel_l1));
  report.Check("every family produced records", num_records > 0 &&
                   std::all_of(base.records.begin(), base.records.end(),
                               [](const auto& f) { return !f.empty(); }),
               std::to_string(num_records) + " records");
  report.Info("records", static_cast<double>(num_records));
  report.Info("records_crc", static_cast<double>(RecordsCrc(base.records)));
  report.Info("best_prior_l1", o.best_prior_l1);
  report.Info("best_prior", o.best_prior);
  report.Info("best_fixed_l1", o.best_fixed_l1);
  report.Info("best_fixed", o.best_fixed);
  report.Info("oracle_l1", o.oracle_l1);
  report.Info("execute_s", base.execute_s);

  if (!trace) {
    EndToEnd(base, o, &report);
    report.Metric("peak_rss_mb", base_rss, "MB");
    std::cout << report.ToJson() << std::endl;
    return report.all_checks_ok() ? 0 : 1;
  }

  SpanLog log(1);
  ExecTally tally;
  auto traced_or = TracedPass(configs, seed, &log, &tally);
  if (!traced_or.ok()) {
    std::cerr << "repro-cold traced: " << traced_or.status().ToString()
              << "\n";
    return 1;
  }
  const Pass& traced = *traced_or;
  const std::vector<Span> spans = log.Take();
  const Orderings traced_o = ComputeOrderings(traced);

  report.Check("traced records CRC == untraced",
               RecordsCrc(traced.records) == RecordsCrc(base.records),
               "crc32 " + std::to_string(RecordsCrc(traced.records)) +
                   " vs " + std::to_string(RecordsCrc(base.records)));
  report.Check("traced choices == untraced", traced.choices == base.choices,
               std::to_string(traced.choices.size()) + " choices");

  // Tracing overhead: every end-to-end metric, traced pass vs untraced.
  Report base_e2e, traced_e2e;
  EndToEnd(base, o, &base_e2e);
  EndToEnd(traced, traced_o, &traced_e2e);
  base_e2e.Metric("peak_rss_mb", base_rss, "MB");
  traced_e2e.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("untraced", base_e2e.ToJson());
  report.Info("traced", traced_e2e.ToJson());

  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const std::vector<double> train_s = Durations(spans, "mart.train", 1.0);
  double train_rows = 0.0;
  for (size_t f = 0; f < traced.records.size(); ++f) {
    train_rows += static_cast<double>(num_records - traced.records[f].size()) *
                  static_cast<double>(PoolSix().size());
  }
  const std::vector<double> predict_s = Durations(spans, "mart.predict", 1.0);
  const std::vector<double> select_s =
      Durations(spans, "selection.select", 1.0);
  const double rows = static_cast<double>(traced.test.size());

  report.Metric("workload.build_s", sum(Durations(spans, "workload.build", 1)),
                "s", configs.size());
  const std::vector<double> plan_us = Durations(spans, "optimizer.plan", 1e6);
  report.Metric("optimizer.plan_us", Mean(plan_us), "us", plan_us.size());
  report.Metric("exec.execute_ms.light", Mean(tally.light_ms), "ms",
                tally.light_ms.size());
  report.Metric("exec.execute_ms.join", Mean(tally.join_ms), "ms",
                tally.join_ms.size());
  report.Metric("exec.getnext_per_s", RateOrZero(tally.getnext, tally.busy_s),
                "1/s");
  report.Metric("exec.observations", static_cast<double>(tally.observations),
                "count");
  report.Metric("exec.failed", static_cast<double>(tally.failed), "count");
  report.Metric("selection.make_record_us",
                Mean(Durations(spans, "selection.make_record", 1e6)), "us",
                tally.pipelines);
  report.Metric("selection.record_yield",
                RateOrZero(static_cast<double>(num_records),
                           static_cast<double>(tally.pipelines)),
                "fraction", tally.pipelines);
  report.Metric("mart.train_s", Mean(train_s), "s", train_s.size());
  report.Metric("mart.fit_rows_per_s", RateOrZero(train_rows, sum(train_s)),
                "1/s");
  report.Metric("mart.predict_us_per_row",
                RateOrZero(sum(predict_s) * 1e6, rows), "us", traced.test.size());
  report.Metric("selection.select_us", RateOrZero(sum(select_s) * 1e6, rows),
                "us", traced.test.size());
  report.Metric("harness.evaluate_ms",
                Mean(SelfSeconds(spans, "harness.train_and_evaluate")) * 1e3,
                "ms", traced.records.size());

  std::cerr << "repro-cold per-layer spans (traced pass):\n";
  PrintLayerTable(spans, std::cerr);
  if (!trace_out.empty()) {
    const rpe::Status wrote = WriteChromeTrace(spans, trace_out);
    report.Check("trace written", wrote.ok(), wrote.ToString());
  }
  std::cout << report.ToJson() << std::endl;
  return report.all_checks_ok() ? 0 : 1;
}

}  // namespace perfbench
