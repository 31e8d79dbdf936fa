// Per-layer measurements of the serve-steady workload, taken in-process
// on the same corpus, snapshot, session sequence and ingest records the
// TCP run used, by timing calls into each module's public functions. Also
// the set-up the workload makes before its server starts.
#include <functional>
#include <iostream>
#include <memory>

#include "common/thread_pool.h"
#include "selection/monitor.h"
#include "serve.h"
#include "serving/ingest.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "workload/workload.h"

namespace perfbench {

using namespace rpe;

namespace {

/// The server's retrain parameters (`serve-tcp --pool six --trees N`).
MartParams RetrainParams() {
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = kRetrainTrees;
  return params;
}

/// Seconds per call of `fn`, repeated until at least `min_s` elapsed.
template <class Fn>
double SecondsPerCall(Fn&& fn, double min_s = 0.05) {
  size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = SecondsBetween(t0, Clock::now());
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

/// Median of `reps` single timings of `fn`, in seconds.
template <class Fn>
double MedianSeconds(Fn&& fn, int reps) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(SecondsBetween(t0, Clock::now()));
  }
  return Median(t);
}

std::string Payload(const std::string& frame) {
  return frame.substr(kFrameHeaderBytes);
}

}  // namespace

int RunServePrep(uint64_t seed, const std::string& dir) {
  ServeCorpus corpus;
  Status st = BuildServeCorpus(ServeConfig(), &corpus);
  if (!st.ok()) {
    std::cerr << "prep: " << st.ToString() << "\n";
    return 1;
  }
  // The snapshot serve-tcp would train itself on its own corpus.
  const SelectorStack stack =
      SelectorStack::Train(corpus.records, PoolSix(), RetrainParams());
  st = SaveSelectorStack(stack, dir + "/model.rpsn");
  // The ingest stream: real records of a TPC-H run under a second seed.
  auto stream = BuildAndRun(StreamConfig(seed));
  if (st.ok()) st = stream.status();
  if (st.ok()) st = SaveRecordBatch(*stream, dir + "/stream.rpsn");
  if (!st.ok()) {
    std::cerr << "prep: " << st.ToString() << "\n";
    return 1;
  }
  // The serve-tcp flags of this corpus and the shape the client assumes.
  const WorkloadConfig c = ServeConfig();
  const std::vector<std::string> args = {
      "--kind", c.name, "--queries", std::to_string(c.num_queries),
      "--scale", JsonNumber(c.scale), "--seed", std::to_string(c.seed),
      "--shards", std::to_string(kShards),
      "--threads", std::to_string(kServerThreads),
      "--trees", std::to_string(kRetrainTrees),
      "--retrain-every", std::to_string(kRetrainEvery)};
  std::cout << "{\"corpus_records\": " << corpus.records.size()
            << ", \"stream_records\": " << stream->size()
            << ", \"server_args\": [";
  for (size_t i = 0; i < args.size(); ++i) {
    std::cout << (i ? ", " : "") << JsonString(args[i]);
  }
  std::cout << "]}" << std::endl;
  return 0;
}

int RunServeLayers(const ClientOptions& o, size_t retrains) {
  // The server runs its trainer on a 2-thread pool; so does this.
  ThreadPool::SetGlobalThreads(kServerThreads);
  Report report;
  SpanLog log(1);
  ServeCorpus corpus;
  Status st = BuildServeCorpus(ServeConfig(), &corpus, &log);
  auto stream = LoadRecordBatch(o.stream);
  if (st.ok()) st = stream.status();
  if (!st.ok()) {
    std::cerr << "layers: " << st.ToString() << "\n";
    return 1;
  }
  const std::vector<Span> spans = log.Take();
  report.attempted = corpus.attempted;
  report.failed = corpus.failed;

  // workload / optimizer / exec / selection capture: the server's set-up.
  report.Metric("workload.build_s",
                Mean(Durations(spans, "workload.build", 1.0)), "s");
  const auto plan_us = Durations(spans, "optimizer.plan", 1e6);
  report.Metric("optimizer.plan_us", Mean(plan_us), "us", plan_us.size());
  const auto exec_ms = Durations(spans, "exec.execute", 1e3);
  report.Metric("exec.execute_ms.light", Mean(exec_ms), "ms", exec_ms.size());
  report.Metric("exec.getnext_per_s", corpus.getnext / corpus.execute_s, "1/s");
  report.Metric("exec.observations", static_cast<double>(corpus.observations),
                "count");
  report.Metric("exec.failed", static_cast<double>(corpus.failed), "count");
  const auto record_us = Durations(spans, "selection.make_record", 1e6);
  report.Metric("selection.make_record_us", Mean(record_us), "us",
                record_us.size());
  report.Metric("selection.record_yield",
                static_cast<double>(corpus.records.size()) /
                    static_cast<double>(corpus.pipelines),
                "fraction", corpus.pipelines);

  // Snapshot load (the server's set-up) and encode (each retrain's write).
  std::shared_ptr<const SelectorStack> stack;
  const double load_s = MedianSeconds(
      [&] {
        auto loaded = LoadSelectorStack(o.model);
        if (loaded.ok()) {
          stack = std::make_shared<const SelectorStack>(std::move(*loaded));
        }
      },
      5);
  if (stack == nullptr) {
    std::cerr << "layers: cannot load " << o.model << "\n";
    return 1;
  }
  report.Metric("serving.snapshot_load_ms", load_s * 1e3, "ms", 5);
  report.Metric("serving.snapshot_encode_ms",
                MedianSeconds([&] { (void)EncodeSelectorStack(*stack); }, 5) *
                    1e3,
                "ms", 5);

  // mart + selection scoring on the corpus rows.
  std::vector<const double*> row_ptrs;
  std::vector<const std::vector<double>*> rows;
  for (const PipelineRecord& r : corpus.records) {
    row_ptrs.push_back(r.features.data());
    rows.push_back(&r.features);
  }
  const double n_rows = static_cast<double>(rows.size());
  const EstimatorSelector& dyn = stack->dynamic_selector;
  std::vector<double> scores(rows.size() * dyn.pool().size());
  report.Metric("mart.predict_us_per_row",
                SecondsPerCall([&] { dyn.flat().PredictAllBatch(row_ptrs, scores); }) *
                    1e6 / n_rows,
                "us", rows.size());
  std::vector<size_t> choices(rows.size());
  report.Metric("selection.select_us",
                SecondsPerCall([&] { dyn.SelectBatch(rows, choices); }) * 1e6 /
                    n_rows,
                "us", rows.size());
  const ProgressMonitor monitor(&stack->static_selector, &dyn);
  report.Metric("selection.decide_us",
                SecondsPerCall([&] { (void)monitor.DecideForRuns(corpus.ptrs); }) *
                    1e6 / static_cast<double>(corpus.ptrs.size()),
                "us", corpus.ptrs.size());
  const auto decisions = monitor.DecideForRuns(corpus.ptrs);
  double sink = 0.0;
  const double progress_s = SecondsPerCall([&] {
    for (size_t r = 0; r < corpus.ptrs.size(); ++r) {
      const QueryRunResult& run = *corpus.ptrs[r];
      for (size_t oi = 0; oi < run.observations.size(); ++oi) {
        sink += monitor.QueryProgressAt(run, decisions[r], oi);
      }
    }
  });
  report.Metric("selection.progress_ns",
                progress_s * 1e9 / static_cast<double>(corpus.observations),
                "ns", corpus.observations);
  report.Info("progress_checksum", sink);

  // serving: the closed-loop session sequence, in-process, one thread.
  ShardedMonitorService::Options service_options;
  service_options.num_shards = kShards;
  ShardedMonitorService service(stack, service_options);
  const std::vector<uint32_t> seq =
      SessionSequence(o.seed, 0, kClosedSessions, corpus.ptrs.size());
  double open_s = 0.0, advance_s = 0.0, close_s = 0.0;
  uint64_t steps = 0;
  const auto s0 = Clock::now();
  for (uint32_t idx : seq) {
    const QueryRunResult* run = corpus.ptrs[idx];
    auto t0 = Clock::now();
    auto id = service.OpenSession(run);
    auto t1 = Clock::now();
    if (!id.ok()) {
      std::cerr << "layers: " << id.status().ToString() << "\n";
      return 1;
    }
    for (size_t oi = 0; oi < run->observations.size(); ++oi) {
      (void)service.Advance(*id);
    }
    auto t2 = Clock::now();
    (void)service.CloseSession(*id);
    auto t3 = Clock::now();
    open_s += SecondsBetween(t0, t1);
    advance_s += SecondsBetween(t1, t2);
    close_s += SecondsBetween(t2, t3);
    steps += run->observations.size();
  }
  const double total_s = SecondsBetween(s0, Clock::now());
  const double n_sessions = static_cast<double>(seq.size());
  report.Metric("serving.open_us", open_s * 1e6 / n_sessions, "us", seq.size());
  report.Metric("serving.advance_ns_per_step",
                advance_s * 1e9 / static_cast<double>(steps), "ns", steps);
  report.Metric("serving.close_us", close_s * 1e6 / n_sessions, "us",
                seq.size());
  report.Metric("serving.inproc_sessions_per_s", n_sessions / total_s, "1/s",
                seq.size());

  // Hot swap with 256 sessions open.
  std::vector<ShardedMonitorService::SessionId> open_ids;
  for (size_t i = 0; i < 256; ++i) {
    auto id = service.OpenSession(corpus.ptrs[i % corpus.ptrs.size()]);
    if (id.ok()) open_ids.push_back(*id);
  }
  report.Metric("serving.swap_us",
                MedianSeconds([&] { service.SwapModels(stack); }, 21) * 1e6,
                "us", 21);
  for (auto id : open_ids) (void)service.CloseSession(id);

  // Ingest queue push, on copies of the stream records.
  {
    std::vector<PipelineRecord> copies;
    for (int rep = 0; rep < 8; ++rep) {
      copies.insert(copies.end(), stream->begin(), stream->end());
    }
    RecordIngestQueue queue(copies.size());
    const auto t0 = Clock::now();
    for (PipelineRecord& r : copies) queue.Push(std::move(r));
    report.Metric("serving.ingest_push_ns",
                  SecondsBetween(t0, Clock::now()) * 1e9 /
                      static_cast<double>(copies.size()),
                  "ns", copies.size());
  }

  // wire codec: both directions of each message type, request + response.
  {
    const uint32_t idx = seq.front();
    const uint32_t nobs =
        static_cast<uint32_t>(corpus.ptrs[idx]->observations.size());
    IngestBatchRequest batch;
    for (size_t i = 0; i < kRetrainEvery; ++i) {
      batch.records.push_back((*stream)[i % stream->size()]);
    }
    struct Codec {
      const char* type;
      std::function<void()> encode, decode;
    };
    const std::string open_req = Payload(EncodeOpenRequest({idx}));
    const std::string open_resp = Payload(EncodeOpenResponse({7, idx, nobs}));
    const std::string adv_req = Payload(EncodeAdvanceRequest({7, kMaxSteps}));
    const std::string adv_resp =
        Payload(EncodeAdvanceResponse({0.5, kMaxSteps, 0}));
    const std::string close_req = Payload(EncodeCloseRequest({7}));
    const std::string ingest_req = Payload(EncodeIngestBatchRequest(batch));
    const std::string ingest_resp = Payload(EncodeIngestResponse(
        MsgType::kIngestBatch,
        {static_cast<uint32_t>(kRetrainEvery), 0}));
    size_t bytes = 0;
    const std::vector<Codec> codecs = {
        {"open",
         [&] {
           bytes += EncodeOpenRequest({idx}).size() +
                    EncodeOpenResponse({7, idx, nobs}).size();
         },
         [&] {
           bytes += DecodeOpenRequest(open_req).ok() +
                    DecodeOpenResponse(open_resp).ok();
         }},
        {"advance",
         [&] {
           bytes += EncodeAdvanceRequest({7, kMaxSteps}).size() +
                    EncodeAdvanceResponse({0.5, kMaxSteps, 0}).size();
         },
         [&] {
           bytes += DecodeAdvanceRequest(adv_req).ok() +
                    DecodeAdvanceResponse(adv_resp).ok();
         }},
        {"close",
         [&] {
           bytes += EncodeCloseRequest({7}).size() +
                    EncodeCloseResponse().size();
         },
         [&] { bytes += DecodeCloseRequest(close_req).ok(); }},
        {"ingest_batch",
         [&] {
           bytes += EncodeIngestBatchRequest(batch).size() +
                    EncodeIngestResponse(
                        MsgType::kIngestBatch,
                        {static_cast<uint32_t>(kRetrainEvery), 0})
                        .size();
         },
         [&] {
           bytes += DecodeIngestBatchRequest(ingest_req).ok() +
                    DecodeIngestResponse(ingest_resp).ok();
         }},
    };
    for (const Codec& c : codecs) {
      report.Metric(std::string("wire.encode_ns.") + c.type,
                    SecondsPerCall(c.encode, 0.02) * 1e9, "ns");
      report.Metric(std::string("wire.decode_ns.") + c.type,
                    SecondsPerCall(c.decode, 0.02) * 1e9, "ns");
    }
    report.Info("codec_checksum", static_cast<double>(bytes));
  }

  // mart retrain: the trainer's corpus (seed corpus, then one quota of the
  // stream per retrain, 4096-record window) at each size the run reached.
  std::vector<PipelineRecord> train_corpus = corpus.records;
  std::vector<double> retrain_s;
  size_t next = 0;
  for (size_t k = 0; k < retrains; ++k) {
    for (size_t i = 0; i < kRetrainEvery; ++i) {
      train_corpus.push_back((*stream)[next++ % stream->size()]);
    }
    if (train_corpus.size() > 4096) {
      train_corpus.erase(train_corpus.begin(),
                         train_corpus.end() - 4096);
    }
    const auto t0 = Clock::now();
    (void)SelectorStack::Train(train_corpus, PoolSix(), RetrainParams());
    retrain_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  report.Metric("mart.retrain_s", Median(retrain_s), "s", retrain_s.size());

  std::cerr << "in-process per-layer spans (corpus set-up):\n";
  PrintLayerTable(spans, std::cerr);
  std::cout << report.ToJson() << std::endl;
  return 0;
}

}  // namespace perfbench
