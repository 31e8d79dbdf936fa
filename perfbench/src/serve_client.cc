// The benchmark's own wire client for serve-steady.
//
// Load shape: two session connections and one ingest/stats connection,
// one thread each. An open-loop phase (sessions due at a fixed rate)
// measures latency; a closed-loop phase (a fixed number of sessions, back
// to back) measures capacity as sessions per second of server CPU time,
// which the host's steal does not inflate. Open-loop latency is timed from
// when a request was due, not from when it was sent, so a stall shows in
// every request queued behind it; how late the generator itself woke is
// reported apart.
//
// One session = Open -> Advance(max_steps) until done -> Close. Every
// Advance response is kept and checked bit for bit against
// ProgressMonitor::ReplayQueryProgress of the same run under the same
// snapshot. After the sessions, the ingest/stats connection times hot
// swaps: each sends one retrain quota of records and polls Stats until the
// model generation moves.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>

#include "exec/executor.h"
#include "optimizer/cardinality.h"
#include "selection/monitor.h"
#include "serve.h"
#include "serving/snapshot.h"
#include "workload/workload.h"

namespace perfbench {

using namespace rpe;

// ---------------------------------------------------------------------------
// Corpus, session sequence, connection

WorkloadConfig ServeConfig() {
  WorkloadConfig c;
  c.kind = WorkloadKind::kTpch;
  c.name = "tpch";
  c.scale = 5.0;
  c.zipf = 1.0;
  c.tuning = TuningLevel::kPartiallyTuned;
  c.num_queries = 40;
  c.seed = 1;
  return c;
}

WorkloadConfig StreamConfig(uint64_t seed) {
  WorkloadConfig c = ServeConfig();
  c.num_queries = 150;
  c.seed = 7919 + seed;
  return c;
}

Status BuildServeCorpus(const WorkloadConfig& config, ServeCorpus* out,
                        SpanLog* log) {
  Workload workload;
  {
    ScopedSpan span(log, "workload.build");
    RPE_ASSIGN_OR_RETURN(workload, BuildWorkload(config));
  }
  // Mirrors serve-tcp's start-up (RunQuery per query, failures skipped):
  // the surviving runs, in order, are the server's run_index space.
  RunOptions options;
  for (const QuerySpec& spec : workload.queries) {
    ++out->attempted;
    CardinalityEstimator card(workload.catalog.get());
    Planner planner(workload.catalog.get(), &card, options.planner);
    std::unique_ptr<PhysicalPlan> plan;
    {
      ScopedSpan span(log, "optimizer.plan");
      auto planned = planner.Plan(spec);
      if (!planned.ok()) {
        span.Fail();
        ++out->failed;
        continue;
      }
      plan = std::move(planned).ValueOrDie();
    }
    OwnedRun run;
    {
      ScopedSpan span(log, "exec.execute");
      const auto t0 = Clock::now();
      auto executed = ExecutePlan(*plan, *workload.catalog, options.exec);
      out->execute_s += SecondsBetween(t0, Clock::now());
      if (!executed.ok()) {
        span.Fail();
        ++out->failed;
        continue;
      }
      run.result = std::move(executed).ValueOrDie();
    }
    run.plan = std::move(plan);
    run.result.plan = run.plan.get();
    out->observations += run.result.observations.size();
    for (double n : run.result.true_n) out->getnext += n;
    for (const Pipeline& pipeline : run.result.pipelines) {
      ++out->pipelines;
      ScopedSpan span(log, "selection.make_record");
      PipelineView view{&run.result, &pipeline};
      PipelineRecord record;
      if (MakeRecord(view, config.name, spec.name, "", &record,
                     options.min_observations)) {
        out->records.push_back(std::move(record));
      }
    }
    out->runs.push_back(std::move(run));
  }
  for (const OwnedRun& run : out->runs) out->ptrs.push_back(&run.result);
  if (out->runs.empty()) return Status::Internal("corpus has no runs");
  return Status::OK();
}

std::vector<uint32_t> SessionSequence(uint64_t seed, uint64_t stream,
                                      size_t n, size_t num_runs) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
  std::vector<uint32_t> out(n);
  for (uint32_t& idx : out) {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    idx = static_cast<uint32_t>((z ^ (z >> 31)) % num_runs);
  }
  return out;
}

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

Status WireConn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::IOError(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    return Status::IOError("connect 127.0.0.1:" + std::to_string(port) + ": " +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Status::OK();
}

Status WireConn::Send(const std::string& frame) {
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  bytes_sent += frame.size();
  return Status::OK();
}

Result<WireFrame> WireConn::Receive() {
  while (true) {
    WireFrame frame;
    RPE_ASSIGN_OR_RETURN(bool complete, decoder_.Next(&frame));
    if (complete) {
      bytes_received += kFrameHeaderBytes + frame.payload.size();
      return frame;
    }
    char chunk[16 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IOError("connection closed mid-response");
    decoder_.Feed(chunk, static_cast<size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Sessions

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Open-loop percentiles are medians over equal time windows, kWindows to
/// the --seconds of the phase, taken over the quiet windows: those in which
/// the host stole at most kStealShare of all CPUs' time. While fewer than
/// kQuietNeeded windows were quiet the phase runs on, one window at a time,
/// up to kMaxWindows; if that is not enough, the quietest kQuietNeeded
/// windows are used and the run says so.
constexpr size_t kWindows = 20;
constexpr size_t kQuietNeeded = 10;
constexpr size_t kMaxWindows = 3 * kWindows;
constexpr double kStealShare = 0.01;
/// The generator is on time when its lateness p99 stays below the gap
/// between two sessions of one connection (2 ms at 1000/s over two). The
/// host preempts a spinning thread for about 1 ms now and then, so a
/// tighter limit would reject runs whose reported medians are sound.
constexpr double kLateLimitMs = 2e3 / kOpenRate;
/// How long before a due time the open-loop generator stops sleeping and
/// spins.
constexpr auto kSpin = std::chrono::microseconds(2000);

/// Span names of one message type (spans take string literals).
struct TypeSpans {
  const char* request;
  const char* encode;
  const char* rtt;
  const char* decode;
};
constexpr TypeSpans kOpenSpans{"client.open", "wire.encode.open",
                               "net.rtt.open", "wire.decode.open"};
constexpr TypeSpans kAdvanceSpans{"client.advance", "wire.encode.advance",
                                  "net.rtt.advance", "wire.decode.advance"};
constexpr TypeSpans kCloseSpans{"client.close", "wire.encode.close",
                                "net.rtt.close", "wire.decode.close"};
constexpr TypeSpans kIngestSpans{"client.ingest_batch",
                                 "wire.encode.ingest_batch",
                                 "net.rtt.ingest_batch",
                                 "wire.decode.ingest_batch"};
constexpr TypeSpans kStatsSpans{"client.stats", "wire.encode.stats",
                                "net.rtt.stats", "wire.decode.stats"};

/// \brief One session as the client saw it.
struct SessionTrace {
  uint32_t run_index = 0;
  uint32_t num_observations = 0;  ///< from the Open response
  /// (cumulative steps, progress) per Advance response.
  std::vector<std::pair<uint32_t, double>> points;
  bool done = false;
};

/// \brief Everything one worker thread measured.
struct Tally {
  uint64_t requests = 0;   ///< session frames sent (retries included)
  uint64_t busy = 0;       ///< kStatusBusy answers
  uint64_t errors = 0;     ///< any other error answer or transport failure
  uint64_t opens = 0, closes = 0, advance_steps = 0;
  std::vector<double> req_ms, req_naive_ms, req_at_s;  ///< open loop
  std::vector<double> session_ms, session_at_s;        ///< open loop
  std::vector<double> late_ms, late_at_s;  ///< open loop
  std::vector<SessionTrace> sessions;
  uint64_t bytes = 0;
  Status fatal;
};

/// Per-thread request context: connection, clock origin, span log.
struct Ctx {
  WireConn* conn;
  Tally* tally;
  SpanLog* log;
  bool open_loop;
  Clock::time_point phase_start;
};

/// One request/response exchange. `due` is when the request should have
/// been sent; the open-loop latency sample runs from `due` to the
/// response. A busy answer counts as a failed request with a missing
/// (infinite) latency sample and is retried after a backoff, unless
/// `shed` is given: then it is not retried and *shed is set.
template <class Encode, class Decode>
Status Exchange(Ctx& ctx, const TypeSpans& names, Clock::time_point due,
                Encode&& encode, Decode&& decode, Clock::time_point* answered,
                bool* shed = nullptr) {
  auto backoff = std::chrono::microseconds(500);
  while (true) {
    const int64_t begin_ns = NowNs();
    size_t handle = 0;
    if (ctx.log != nullptr) handle = ctx.log->Begin(names.request, 0, begin_ns);
    std::string frame;
    {
      ScopedSpan span(ctx.log, names.encode);
      frame = encode();
    }
    const auto sent = Clock::now();
    Result<WireFrame> response = Status::OK();
    {
      ScopedSpan span(ctx.log, names.rtt);
      Status st = ctx.conn->Send(frame);
      response = st.ok() ? ctx.conn->Receive() : Result<WireFrame>(st);
    }
    const auto got = Clock::now();
    *answered = got;
    ++ctx.tally->requests;
    const bool busy = response.ok() && response->status == kStatusBusy;
    Status decoded = Status::OK();
    if (!response.ok()) {
      decoded = response.status();
    } else if (!busy) {
      ScopedSpan span(ctx.log, names.decode);
      decoded = response->ok() ? decode(response->payload)
                               : response->ToStatus();
    }
    const bool failed = busy || !decoded.ok();
    if (ctx.log != nullptr) {
      ctx.log->End(handle, failed, ToNs(sent) - ToNs(due));
    }
    if (ctx.open_loop) {
      ctx.tally->req_ms.push_back(failed ? kInf
                                         : SecondsBetween(due, got) * 1e3);
      ctx.tally->req_naive_ms.push_back(SecondsBetween(sent, got) * 1e3);
      ctx.tally->req_at_s.push_back(SecondsBetween(ctx.phase_start, due));
    }
    if (!busy) {
      if (!decoded.ok()) ++ctx.tally->errors;
      return decoded;
    }
    ++ctx.tally->busy;
    if (shed != nullptr) {
      *shed = true;
      return Status::OK();
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::microseconds(64000));
    due = Clock::now();
  }
}

Status RunSession(Ctx& ctx, uint32_t run_index, uint32_t max_steps,
                  Clock::time_point due, uint64_t seq) {
  SessionTrace trace;
  trace.run_index = run_index;
  size_t handle = 0;
  if (ctx.log != nullptr) handle = ctx.log->Begin("client.session", seq);
  Clock::time_point answered;
  OpenResponse opened;
  Status st = Exchange(
      ctx, kOpenSpans, due,
      [&] { return EncodeOpenRequest(OpenRequest{run_index}); },
      [&](std::string_view payload) {
        auto r = DecodeOpenResponse(payload);
        if (!r.ok()) return r.status();
        opened = *r;
        return Status::OK();
      },
      &answered);
  if (st.ok()) {
    ++ctx.tally->opens;
    trace.num_observations = opened.num_observations;
    uint32_t steps = 0;
    while (st.ok() && !trace.done) {
      AdvanceResponse stepped;
      st = Exchange(
          ctx, kAdvanceSpans, answered,
          [&] {
            return EncodeAdvanceRequest(
                AdvanceRequest{opened.session_id, max_steps});
          },
          [&](std::string_view payload) {
            auto r = DecodeAdvanceResponse(payload);
            if (!r.ok()) return r.status();
            stepped = *r;
            return Status::OK();
          },
          &answered);
      if (!st.ok()) break;
      steps += stepped.steps;
      ctx.tally->advance_steps += stepped.steps;
      trace.points.emplace_back(steps, stepped.progress);
      trace.done = stepped.done != 0;
    }
    if (st.ok()) {
      st = Exchange(
          ctx, kCloseSpans, answered,
          [&] { return EncodeCloseRequest(CloseRequest{opened.session_id}); },
          [](std::string_view) { return Status::OK(); }, &answered);
      if (st.ok()) ++ctx.tally->closes;
    }
  }
  if (ctx.log != nullptr) ctx.log->End(handle, !st.ok());
  if (st.ok() && ctx.open_loop) {
    ctx.tally->session_ms.push_back(SecondsBetween(due, answered) * 1e3);
    ctx.tally->session_at_s.push_back(SecondsBetween(ctx.phase_start, due));
  }
  ctx.tally->sessions.push_back(std::move(trace));
  return st;
}

/// Closed loop: each connection claims the next session until all of
/// `seq` is spent.
void ClosedLoopWorker(uint16_t port, const std::vector<uint32_t>& seq,
                      uint32_t max_steps, std::atomic<size_t>* next,
                      Clock::time_point start, Tally* tally, SpanLog* log) {
  WireConn conn;
  tally->fatal = conn.Connect(port);
  if (!tally->fatal.ok()) return;
  Ctx ctx{&conn, tally, log, false, start};
  while (true) {
    const size_t k = next->fetch_add(1);
    if (k >= seq.size()) break;
    tally->fatal = RunSession(ctx, seq[k], max_steps, Clock::now(), k + 1);
    if (!tally->fatal.ok()) break;
  }
  tally->bytes = conn.bytes_sent + conn.bytes_received;
}

Clock::time_point DueAt(Clock::time_point start, size_t k, double rate) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(k) /
                                                   rate));
}

/// Open loop: session k is due at start + k / rate; connection `id` of
/// `conns` runs sessions id, id + conns, ... in order, so a late session
/// queues behind its predecessor and that wait counts in its latency. With
/// `stop_ns`, sessions due at or after that time are not run.
void OpenLoopWorker(uint16_t port, const std::vector<uint32_t>& seq,
                    uint32_t max_steps, double rate, size_t id, size_t conns,
                    Clock::time_point start, Tally* tally, SpanLog* log,
                    WireConn* preconnected,
                    const std::atomic<int64_t>* stop_ns) {
  WireConn own;
  WireConn* conn = preconnected;
  if (conn == nullptr) {
    tally->fatal = own.Connect(port);
    if (!tally->fatal.ok()) return;
    conn = &own;
  }
  Ctx ctx{conn, tally, log, true, start};
  auto free_at = start;
  for (size_t k = id; k < seq.size(); k += conns) {
    const auto due = DueAt(start, k, rate);
    if (stop_ns != nullptr && ToNs(due) >= stop_ns->load()) break;
    const auto ready = std::max(due, free_at);
    // Sleep until shortly before the due time, then spin: a thread woken
    // from sleep on a shared host can run late by far more than a request
    // takes, and that lateness would be charged to the server.
    std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    tally->late_ms.push_back(
        std::max(0.0, SecondsBetween(ready, Clock::now()) * 1e3));
    tally->late_at_s.push_back(SecondsBetween(start, due));
    tally->fatal = RunSession(ctx, seq[k], max_steps, due, k + 1);
    if (!tally->fatal.ok()) break;
    free_at = Clock::now();
  }
  tally->bytes = conn->bytes_sent + conn->bytes_received;
}


/// The quiet windows (see kStealShare), or the kQuietNeeded quietest if
/// fewer were quiet; `steal_s[w]` is the CPU time stolen in window w.
std::vector<size_t> QuietWindows(const std::vector<double>& steal_s,
                                 double limit_s) {
  std::vector<size_t> order(steal_s.size());
  for (size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal_s[a] < steal_s[b]; });
  size_t keep = std::min(kQuietNeeded, order.size());
  while (keep < order.size() && steal_s[order[keep]] <= limit_s) ++keep;
  order.resize(keep);
  return order;
}

/// `values` split into windows of `window_s` by their `at_s`.
std::vector<std::vector<double>> ByWindow(const std::vector<double>& values,
                                          const std::vector<double>& at_s,
                                          double window_s, size_t windows) {
  std::vector<std::vector<double>> bins(windows);
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(std::max(0.0, at_s[i]) / window_s));
    bins[w].push_back(values[i]);
  }
  return bins;
}

/// Median over the windows `quiet` of each window's percentile.
double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& at_s, double window_s,
                          size_t windows, const std::vector<size_t>& quiet,
                          double pct) {
  std::vector<std::vector<double>> bins =
      ByWindow(values, at_s, window_s, windows);
  std::vector<double> per_window;
  for (size_t w : quiet) {
    if (!bins[w].empty()) per_window.push_back(Percentile(std::move(bins[w]), pct));
  }
  return Median(per_window);
}

Tally Merge(std::vector<Tally>& parts) {
  Tally all;
  for (Tally& t : parts) {
    all.requests += t.requests;
    all.busy += t.busy;
    all.errors += t.errors;
    all.opens += t.opens;
    all.closes += t.closes;
    all.advance_steps += t.advance_steps;
    all.bytes += t.bytes;
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(all.req_ms, t.req_ms);
    append(all.req_naive_ms, t.req_naive_ms);
    append(all.req_at_s, t.req_at_s);
    append(all.session_ms, t.session_ms);
    append(all.session_at_s, t.session_at_s);
    append(all.late_ms, t.late_ms);
    append(all.late_at_s, t.late_at_s);
    for (auto& s : t.sessions) all.sessions.push_back(std::move(s));
    if (!t.fatal.ok() && all.fatal.ok()) all.fatal = t.fatal;
  }
  return all;
}

// ---------------------------------------------------------------------------
// Ingest + stats connection

/// \brief The ingest/stats connection's state: IngestBatch frames and the
/// Stats polls that time each hot swap.
struct Ingest {
  WireConn conn;
  Tally tally;  ///< request counts of this connection
  SpanLog* log = nullptr;
  const std::vector<PipelineRecord>* stream = nullptr;
  size_t next_record = 0;
  size_t retrain_every = 100;
  uint64_t offered = 0, accepted = 0, dropped = 0, shed = 0;
  uint64_t generation0 = 0, generation = 0;
  /// Ack times of the batches that completed a retrain quota; the first
  /// `matched` have been matched to a new generation.
  std::vector<Clock::time_point> pending;
  size_t matched = 0;
  std::vector<double> swap_s;

  Result<WireStats> Stats() {
    Ctx ctx{&conn, &tally, log, false, Clock::now()};
    WireStats stats;
    Clock::time_point answered;
    RPE_RETURN_NOT_OK(Exchange(
        ctx, kStatsSpans, Clock::now(), [] { return EncodeStatsRequest(); },
        [&](std::string_view payload) {
          auto r = DecodeStatsResponse(payload);
          if (!r.ok()) return r.status();
          stats = *r;
          return Status::OK();
        },
        &answered));
    // Each new generation is matched to the oldest quota still waiting.
    while (generation < stats.model_generation) {
      ++generation;
      if (matched < pending.size()) {
        swap_s.push_back(SecondsBetween(pending[matched++], answered));
      }
    }
    return stats;
  }

  /// Offer `n` records (cycling the stream) in one frame.
  Status Offer(size_t n) {
    IngestBatchRequest req;
    for (size_t i = 0; i < n; ++i) {
      req.records.push_back((*stream)[next_record++ % stream->size()]);
    }
    Ctx ctx{&conn, &tally, log, false, Clock::now()};
    IngestResponse resp;
    bool was_busy = false;
    Clock::time_point answered;
    // A busy ingest answer is shed, not retried: the records are
    // accounted and the stream moves on.
    RPE_RETURN_NOT_OK(Exchange(
        ctx, kIngestSpans, Clock::now(),
        [&] { return EncodeIngestBatchRequest(req); },
        [&](std::string_view payload) {
          auto r = DecodeIngestResponse(payload);
          if (!r.ok()) return r.status();
          resp = *r;
          return Status::OK();
        },
        &answered, &was_busy));
    offered += n;
    if (was_busy) {
      shed += n;
      return Status::OK();
    }
    const uint64_t before = accepted / retrain_every;
    accepted += resp.accepted;
    dropped += resp.dropped;
    for (uint64_t q = before; q < accepted / retrain_every; ++q) {
      pending.push_back(answered);
    }
    return Status::OK();
  }

  /// Poll Stats until every pending quota has its generation, or timeout.
  Status AwaitSwaps(double timeout_s) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (matched < pending.size() && Clock::now() < deadline) {
      RPE_RETURN_NOT_OK(Stats().status());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::OK();
  }
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points

int RunServeClient(const ClientOptions& o) {
  Report report;
  ServeCorpus corpus;
  Status st = BuildServeCorpus(ServeConfig(), &corpus);
  auto stack = LoadSelectorStack(o.model);
  auto stream = LoadRecordBatch(o.stream);
  if (!st.ok() || !stack.ok() || !stream.ok()) {
    std::cerr << "client set-up failed: " << st.ToString() << " "
              << stack.status().ToString() << " "
              << stream.status().ToString() << "\n";
    return 1;
  }
  const ProgressMonitor monitor(&stack->static_selector,
                                &stack->dynamic_selector);
  std::vector<std::vector<double>> expected;
  for (const QueryRunResult* run : corpus.ptrs) {
    expected.push_back(monitor.ReplayQueryProgress(*run));
  }

  Ingest ing;
  ing.stream = &*stream;
  ing.retrain_every = kRetrainEvery;
  std::vector<SpanLog> logs;
  for (uint32_t t = 0; t < 5; ++t) logs.emplace_back(t + 1);
  auto log_of = [&](size_t i) { return o.trace ? &logs[i] : nullptr; };
  ing.log = log_of(4);
  if (Status c = ing.conn.Connect(o.port); !c.ok()) {
    std::cerr << c.ToString() << "\n";
    return 1;
  }
  auto before = ing.Stats();
  if (!before.ok()) {
    std::cerr << before.status().ToString() << "\n";
    return 1;
  }
  ing.generation0 = ing.generation = before->model_generation;

  const size_t num_runs = corpus.ptrs.size();
  const std::vector<uint32_t> closed_seq =
      SessionSequence(o.seed, 0, kClosedSessions, num_runs);
  const double window_s = o.seconds / static_cast<double>(kWindows);
  const std::vector<uint32_t> open_seq = SessionSequence(
      o.seed, 1, static_cast<size_t>(kOpenRate * window_s * kMaxWindows),
      num_runs);

  // Warm-up, not timed: one second of the open-loop rate wakes the
  // host's CPUs and fills caches without the burst of a closed loop.
  std::vector<Tally> warm(2);
  {
    const std::vector<uint32_t> warm_seq = SessionSequence(
        o.seed, 2, static_cast<size_t>(kOpenRate), num_runs);
    const auto start = Clock::now();
    std::vector<std::thread> workers;
    for (size_t c = 0; c < 2; ++c) {
      workers.emplace_back(OpenLoopWorker, o.port, std::cref(warm_seq),
                           kMaxSteps, kOpenRate, c, size_t{2}, start, &warm[c],
                           nullptr, nullptr, nullptr);
    }
    for (auto& w : workers) w.join();
  }

  // Open loop: latency at a fixed rate.
  std::vector<Tally> open(2);
  std::vector<WireConn> open_conns(2);
  for (auto& c : open_conns) {
    if (Status cs = c.Connect(o.port); !cs.ok()) {
      std::cerr << cs.ToString() << "\n";
      return 1;
    }
  }
  const auto o0 = Clock::now() + std::chrono::milliseconds(10);
  const auto edge = [&](size_t w) {
    return o0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(window_s * w));
  };
  const size_t cpus = std::thread::hardware_concurrency();
  const double quiet_limit_s = kStealShare * window_s * cpus;
  std::atomic<int64_t> stop_ns{ToNs(edge(kWindows))};
  std::vector<double> steal_s;
  {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < 2; ++c) {
      workers.emplace_back(OpenLoopWorker, o.port, std::cref(open_seq),
                           kMaxSteps, kOpenRate, c, size_t{2}, o0, &open[c],
                           log_of(2 + c), &open_conns[c], &stop_ns);
    }
    // Meanwhile this thread reads the host's steal at each window edge and,
    // while too few windows were quiet, lets the phase run one window more
    // (decided a window ahead, before any session of it is due).
    std::this_thread::sleep_until(o0);
    double stolen = StealSeconds();
    size_t quiet = 0;
    for (size_t w = 1; ToNs(edge(w - 1)) < stop_ns.load(); ++w) {
      std::this_thread::sleep_until(edge(w));
      const double now = StealSeconds();
      steal_s.push_back(now - stolen);
      stolen = now;
      if (steal_s.back() <= quiet_limit_s) ++quiet;
      if (quiet < kQuietNeeded && w + 2 <= kMaxWindows) {
        stop_ns = std::max(stop_ns.load(), ToNs(edge(w + 2)));
      }
    }
    for (auto& w : workers) w.join();
  }
  const double open_s = SecondsBetween(o0, Clock::now());
  const size_t windows = steal_s.size();
  const std::vector<size_t> quiet = QuietWindows(steal_s, quiet_limit_s);
  size_t open_due = 0;
  while (open_due < open_seq.size() &&
         ToNs(DueAt(o0, open_due, kOpenRate)) < stop_ns.load()) {
    ++open_due;
  }

  // Closed loop: capacity, per second of the server's CPU time.
  std::vector<Tally> closed(2);
  std::atomic<size_t> next{0};
  const double cpu0 = ProcessCpuSeconds(o.server_pid);
  const double steal0 = StealSeconds();
  const auto c0 = Clock::now();
  {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < 2; ++c) {
      workers.emplace_back(ClosedLoopWorker, o.port, std::cref(closed_seq),
                           kMaxSteps, &next, c0, &closed[c], log_of(c));
    }
    for (auto& w : workers) w.join();
  }
  const double closed_s = SecondsBetween(c0, Clock::now());
  const double closed_cpu_s = ProcessCpuSeconds(o.server_pid) - cpu0;
  const double closed_steal_s = StealSeconds() - steal0;
  // Hot swaps after the serving phases: one retrain quota per frame.
  Status ingest_status;
  for (size_t i = 0; i < kSwaps && ingest_status.ok(); ++i) {
    ingest_status = ing.Offer(kRetrainEvery);
    if (ingest_status.ok()) ingest_status = ing.AwaitSwaps(20.0);
  }
  auto after = ing.Stats();

  Tally w_all = Merge(warm);
  Tally c_all = Merge(closed);
  Tally o_all = Merge(open);
  const Status fatal = !w_all.fatal.ok()   ? w_all.fatal
                       : !c_all.fatal.ok() ? c_all.fatal
                       : !o_all.fatal.ok() ? o_all.fatal
                       : !ingest_status.ok() ? ingest_status
                                             : after.status();
  if (!fatal.ok()) {
    std::cerr << "serve client: " << fatal.ToString() << "\n";
    return 1;
  }

  // Output checks.
  std::vector<const SessionTrace*> sessions;
  for (const auto& s : w_all.sessions) sessions.push_back(&s);
  for (const auto& s : c_all.sessions) sessions.push_back(&s);
  for (const auto& s : o_all.sessions) sessions.push_back(&s);
  size_t mismatched = 0, incomplete = 0;
  double l1_sum = 0.0;
  for (const SessionTrace* s : sessions) {
    const std::vector<double>& series = expected[s->run_index];
    const QueryRunResult& run = *corpus.ptrs[s->run_index];
    if (!s->done || s->num_observations != series.size() ||
        s->points.empty() || s->points.back().first != series.size()) {
      ++incomplete;
      continue;
    }
    double err = 0.0;
    for (const auto& [steps, progress] : s->points) {
      const double want = steps > 0 ? series[steps - 1] : 0.0;
      if (!SameBits(want, progress)) ++mismatched;
      const size_t oi = steps > 0 ? steps - 1 : 0;
      const double truth = std::clamp(
          run.observations[oi].vtime / run.total_time, 0.0, 1.0);
      err += std::abs(progress - truth);
    }
    l1_sum += err / static_cast<double>(s->points.size());
  }
  const uint64_t expected_sessions = static_cast<size_t>(kOpenRate) +
                                     closed_seq.size() + open_due;
  report.Check("every session completed",
               incomplete == 0 && sessions.size() == expected_sessions,
               std::to_string(sessions.size() - incomplete) + " of " +
                   std::to_string(expected_sessions));
  report.Check("Advance series == in-process ReplayQueryProgress",
               mismatched == 0,
               std::to_string(mismatched) + " mismatched responses");
  const WireStats& a = *after;
  const WireStats& b = *before;
  const uint64_t opens = w_all.opens + c_all.opens + o_all.opens;
  const uint64_t closes = w_all.closes + c_all.closes + o_all.closes;
  const uint64_t steps =
      w_all.advance_steps + c_all.advance_steps + o_all.advance_steps;
  const uint64_t busy = w_all.busy + c_all.busy + o_all.busy;
  auto eq = [&](const char* what, uint64_t client, uint64_t server) {
    report.Check(std::string("reconcile ") + what, client == server,
                 "client " + std::to_string(client) + " server " +
                     std::to_string(server));
  };
  eq("sessions opened", opens, a.sessions_opened - b.sessions_opened);
  eq("wire sessions closed", closes,
     a.wire_sessions_closed - b.wire_sessions_closed);
  eq("advance steps", steps, a.advance_steps - b.advance_steps);
  eq("session requests shed", busy, a.requests_shed - b.requests_shed);
  eq("records ingested", ing.accepted, a.records_ingested - b.records_ingested);
  eq("records dropped", ing.dropped,
     a.records_ingest_dropped - b.records_ingest_dropped);
  eq("records shed", ing.shed, a.records_ingest_shed - b.records_ingest_shed);
  eq("offered == accepted + dropped + shed", ing.offered,
     ing.accepted + ing.dropped + ing.shed);
  eq("generation advance == retrains", a.model_generation - b.model_generation,
     a.retrains - b.retrains);
  eq("swaps timed == retrain quotas", ing.matched, ing.pending.size());
  // The latency figures come from the quiet windows; there the generator
  // must have been on time, or its own delay would count as the server's.
  std::vector<double> quiet_late_ms;
  {
    auto bins = ByWindow(o_all.late_ms, o_all.late_at_s, window_s, windows);
    for (size_t w : quiet) {
      quiet_late_ms.insert(quiet_late_ms.end(), bins[w].begin(), bins[w].end());
    }
  }
  const double late_p99_ms = Percentile(quiet_late_ms, 99);
  report.Check("open-loop generator on time", late_p99_ms <= kLateLimitMs,
               "lateness p99 " + JsonNumber(late_p99_ms) + " ms, limit " +
                   JsonNumber(kLateLimitMs) + " ms");
  report.Check("server CPU time read", closed_cpu_s > 0.0,
               "pid " + std::to_string(o.server_pid) + ": " +
                   JsonNumber(closed_cpu_s) + " s");

  // End-to-end metrics (setup_s and peak_rss_mb come from the launcher).
  const uint64_t session_requests =
      w_all.requests + c_all.requests + o_all.requests;
  report.attempted = session_requests + ing.offered;
  report.failed = busy + w_all.errors + c_all.errors + o_all.errors +
                  ing.dropped + ing.shed;
  // Closed loop: wall_s is the server's CPU time over the phase,
  // sessions_per_s the sessions served per second of it.
  report.Metric("wall_s", closed_cpu_s, "s");
  report.Metric("sessions_per_s",
                closed_cpu_s > 0 ? static_cast<double>(closed_seq.size()) /
                                       closed_cpu_s
                                 : 0.0,
                "1/s", closed_seq.size());
  report.Metric("closed_wall_sessions_per_s",
                static_cast<double>(closed_seq.size()) / closed_s, "1/s",
                closed_seq.size());
  report.Info("closed_loop_s", closed_s);
  report.Info("closed_loop_steal_s", closed_steal_s);
  for (double pct : {50.0, 90.0, 99.0}) {
    report.Metric("req_p" + std::to_string(static_cast<int>(pct)) + "_ms",
                  WindowedPercentile(o_all.req_ms, o_all.req_at_s, window_s,
                                     windows, quiet, pct),
                  "ms", o_all.req_ms.size());
  }
  for (double pct : {50.0, 99.0}) {
    report.Metric("session_p" + std::to_string(static_cast<int>(pct)) + "_ms",
                  WindowedPercentile(o_all.session_ms, o_all.session_at_s,
                                     window_s, windows, quiet, pct),
                  "ms", o_all.session_ms.size());
  }
  report.Metric("swap_s", Median(ing.swap_s), "s", ing.swap_s.size());
  report.Metric("sel_l1",
                sessions.empty() ? 0.0
                                 : l1_sum / static_cast<double>(sessions.size()),
                "fraction", sessions.size());
  report.Info("open_loop_s", open_s);
  report.Info("open_loop_sessions", static_cast<double>(open_due));
  report.Info("late_p99_ms", late_p99_ms);
  std::string steal_ms;
  for (double x : steal_s) {
    steal_ms += (steal_ms.empty() ? "" : " ") + JsonNumber(x * 1e3);
  }
  report.Info("open_loop_steal_ms", steal_ms);
  report.Info("windows", static_cast<double>(windows));
  report.Info("quiet_windows",
              static_cast<double>(std::count_if(
                  steal_s.begin(), steal_s.end(),
                  [&](double x) { return x <= quiet_limit_s; })));
  report.Info("swaps", static_cast<double>(ing.swap_s.size()));
  report.Info("retrains", static_cast<double>(a.retrains - b.retrains));
  report.Info("records_offered", static_cast<double>(ing.offered));
  report.Info("advance_steps_per_request",
              static_cast<double>(steps) /
                  static_cast<double>(std::max<uint64_t>(
                      1, session_requests - opens - closes - busy)));

  if (o.trace) {
    std::vector<Span> spans;
    for (SpanLog& l : logs) {
      for (Span& s : l.Take()) spans.push_back(std::move(s));
    }
    for (const char* type : {"open", "advance", "close", "ingest_batch"}) {
      const std::string name = std::string("net.rtt.") + type;
      const std::vector<double> rtt = Durations(spans, name, 1e6);
      report.Metric(std::string("net.rtt_us.") + type, Percentile(rtt, 50),
                    "us", rtt.size());
    }
    report.Metric("wire.bytes_per_session",
                  static_cast<double>(w_all.bytes + c_all.bytes +
                                      o_all.bytes) /
                      static_cast<double>(sessions.size()),
                  "bytes", sessions.size());
    report.Metric("loadgen.late_p99_ms", late_p99_ms, "ms",
                  o_all.late_ms.size());
    report.Metric("ingest.accepted", static_cast<double>(ing.accepted),
                  "count");
    report.Metric("ingest.dropped", static_cast<double>(ing.dropped), "count");
    report.Metric("ingest.shed", static_cast<double>(ing.shed), "count");
    report.Metric("ingest.retrains",
                  static_cast<double>(a.retrains - b.retrains), "count");
    std::cerr << "client per-layer spans:\n";
    PrintLayerTable(spans, std::cerr);
    if (!o.trace_out.empty()) {
      const Status wrote = WriteChromeTrace(spans, o.trace_out);
      report.Check("trace written", wrote.ok(), wrote.ToString());
    }
  }
  std::cout << report.ToJson() << std::endl;
  return report.all_checks_ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Coordinated-omission self-test

namespace {

/// A fake server on one connection: answers Open/Advance/Close at once,
/// except that it holds response number `stall_at` for `stall`.
void FakeServer(int listen_fd, size_t stall_at, std::chrono::milliseconds stall,
                Status* status) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    *status = Status::IOError("accept failed");
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  FrameDecoder decoder;
  size_t answered = 0;
  uint64_t next_session = 1;
  char chunk[16 * 1024];
  while (true) {
    WireFrame frame;
    auto complete = decoder.Next(&frame);
    if (!complete.ok()) {
      *status = complete.status();
      break;
    }
    if (!*complete) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      decoder.Feed(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string out;
    if (frame.type == MsgType::kOpen) {
      auto req = DecodeOpenRequest(frame.payload);
      out = EncodeOpenResponse(OpenResponse{
          next_session++, req.ok() ? req->run_index : 0, 4});
    } else if (frame.type == MsgType::kAdvance) {
      out = EncodeAdvanceResponse(AdvanceResponse{1.0, 4, 1});
    } else {
      out = EncodeCloseResponse();
    }
    if (++answered == stall_at) std::this_thread::sleep_for(stall);
    if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) break;
  }
  ::close(fd);
}

}  // namespace

int RunStallSelfTest() {
  Report report;
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listen_fd < 0 ||
      ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd, 1) < 0 ||
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    std::cerr << "self-test: cannot listen on loopback\n";
    return 1;
  }
  // 600 sessions of 3 requests at 1000 sessions/s; response 900 (the
  // middle of the run) is held for 50 ms.
  const size_t sessions = 600;
  const double rate = 1000.0;
  const auto stall = std::chrono::milliseconds(50);
  Status server_status;
  std::thread server(FakeServer, listen_fd, size_t{900}, stall,
                     &server_status);
  Tally tally;
  {
    const std::vector<uint32_t> seq(sessions, 0);
    OpenLoopWorker(ntohs(addr.sin_port), seq, 4, rate, 0, 1,
                   Clock::now() + std::chrono::milliseconds(5), &tally,
                   nullptr, nullptr, nullptr);
  }
  server.join();
  ::close(listen_fd);

  const auto count_over = [](const std::vector<double>& v, double ms) {
    return static_cast<size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x >= ms; }));
  };
  const double stall_ms = 50.0;
  const size_t due_slow = count_over(tally.req_ms, 10.0);
  const size_t naive_slow = count_over(tally.req_naive_ms, 10.0);
  const double max_ms =
      tally.req_ms.empty()
          ? 0.0
          : *std::max_element(tally.req_ms.begin(), tally.req_ms.end());
  report.attempted = tally.requests;
  report.failed = tally.busy + tally.errors;
  report.Check("client and fake server ran clean",
               tally.fatal.ok() && server_status.ok() &&
                   tally.closes == sessions,
               tally.fatal.ToString() + " / " + server_status.ToString());
  report.Check("stalled request shows the stall", max_ms >= stall_ms * 0.9,
               "max latency " + JsonNumber(max_ms) + " ms");
  // Sessions are due every 1 ms, so about 40 requests queue behind the
  // stall for more than 10 ms; timing from the send would hide all but
  // the stalled one.
  report.Check("requests queued behind the stall show it", due_slow >= 20,
               std::to_string(due_slow) + " requests >= 10 ms from due");
  report.Check("send-timed latency would hide it", naive_slow <= 3,
               std::to_string(naive_slow) + " requests >= 10 ms from send");
  report.Check("session p99 shows the stall",
               Percentile(tally.session_ms, 99) >= 10.0,
               "session p99 " + JsonNumber(Percentile(tally.session_ms, 99)) +
                   " ms");
  report.Metric("stall_max_ms", max_ms, "ms", tally.req_ms.size());
  report.Metric("queued_behind_stall", static_cast<double>(due_slow), "count");
  std::cout << report.ToJson() << std::endl;
  return report.all_checks_ok() ? 0 : 1;
}

}  // namespace perfbench
