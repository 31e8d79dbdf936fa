// rpe_loadgen: load generator for the TCP serving front-end
// (`rpe_cli serve-tcp`). Speaks the length-prefixed wire protocol
// (src/serving/wire.h) over blocking loopback sockets, one thread per
// connection, and reports a latency histogram plus throughput as JSON.
//
// Two driving modes:
//
//   closed loop (default)    every connection runs sessions back to back
//                            until the shared --sessions budget is spent;
//                            concurrency is fixed (= --connections), the
//                            arrival rate is whatever the server sustains.
//
//   open loop (--rate R)     session arrivals follow a fixed schedule of
//                            R per second, spread round-robin across the
//                            connections; a slow server makes arrivals
//                            queue behind their connection (latency grows,
//                            the schedule does not bend). Stops after
//                            --sessions arrivals.
//
// One session = Open -> Advance(--steps) until done -> Close. Latency is
// sampled per request (RTT of each frame exchange) and per session
// (open-to-close). In the open loop the session and its Open request are
// timed from the scheduled arrival, not from the send, so time spent
// queued behind a busy connection counts. Percentiles are exact: every
// sample is kept and sorted, no binning.
//
// Online ingest (--ingest-rate R): a dedicated connection streams
// synthetic PipelineRecords at R records/sec in --ingest-batch frames,
// driving the server's ingest -> TrainerLoop -> hot-swap loop;
// --ingest-until-swap keeps streaming until the server's model
// generation advances (observed via kStats mid-run). A kStatusBusy
// response is honored with exponential backoff: session workers retry
// the same request, the ingest worker counts the batch as shed and
// moves on — every record offered is accounted as exactly one of
// accepted / dropped / shed.
//
// The final line on stdout is one JSON object (everything else goes to
// stderr) so scripts can `tail -n 1 | python3 -m json.tool`. With
// --check, the client's own counters are reconciled against the server's
// StatsResponse — opens, completions, advance steps, busy responses and
// ingest accept/drop/shed tallies must match the server's deltas exactly
// when this loadgen is the server's only client — and any mismatch
// exits 1. (Deltas: the server's counters are snapshotted before the
// workers start, so --check also passes against a warm server.)
//
// Example:
//   rpe_loadgen --port 41001 --connections 8 --sessions 256 --steps 64
//   rpe_loadgen --port 41001 --rate 500 --sessions 1000 --check
//   rpe_loadgen --port 41001 --ingest-rate 500 --ingest-until-swap --check
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "progress/estimator.h"
#include "selection/features.h"
#include "serving/wire.h"

namespace rpe {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// \brief One blocking connection to the server: framed request/response
/// with incremental reassembly (responses can arrive in any chunking).
class WireClient {
 public:
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Connect(const std::string& host, uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Status::IOError("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad --host address: " + host);
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      return Status::IOError("connect 127.0.0.1:" + std::to_string(port) +
                             ": " + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Status::OK();
  }

  /// Send one encoded frame, block until the matching response frame.
  Result<WireFrame> Call(const std::string& request) {
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n =
          ::send(fd_, request.data() + off, request.size() - off, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("send: " + std::string(std::strerror(errno)));
      }
      off += static_cast<size_t>(n);
    }
    while (true) {
      WireFrame frame;
      RPE_ASSIGN_OR_RETURN(bool complete, decoder_.Next(&frame));
      if (complete) return frame;
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("recv: " + std::string(std::strerror(errno)));
      }
      if (n == 0) {
        return Status::IOError("server closed the connection mid-response");
      }
      decoder_.Feed(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 4;
  size_t sessions = 64;    ///< total session budget (both modes)
  uint32_t steps = 64;     ///< max_steps per AdvanceRequest
  double rate = 0.0;       ///< arrivals/sec; 0 = closed loop
  size_t runs = 0;         ///< distinct run_index values to cycle (0 = any)
  bool check = false;      ///< reconcile against server stats, exit 1 off
  double ingest_rate = 0.0;     ///< records/sec over the ingest connection
  size_t ingest_records = 0;    ///< record budget (0 = no fixed budget)
  size_t ingest_batch = 16;     ///< records per ingest frame
  bool ingest_until_swap = false;  ///< stream until model_generation bumps
  bool dump_metrics = false;  ///< fetch kMetricsDump at the end (stderr)
};

bool IngestEnabled(const Config& config) {
  return config.ingest_rate > 0.0 || config.ingest_records > 0 ||
         config.ingest_until_swap;
}

/// \brief Per-worker tallies and latency samples, merged after the join.
struct WorkerResult {
  uint64_t opens = 0;
  uint64_t completed = 0;
  uint64_t advance_requests = 0;
  uint64_t advance_steps = 0;
  uint64_t errors = 0;
  uint64_t busy = 0;  ///< kStatusBusy responses (each retried after backoff)
  std::vector<double> request_ms;  ///< RTT of every frame exchange
  std::vector<double> session_ms;  ///< open-to-close per session
  Status fatal;  ///< first connection-fatal error, ends the worker
};

/// \brief Tallies of the dedicated ingest connection. Every record offered
/// lands in exactly one of accepted / dropped / shed, so the totals
/// reconcile exactly against the server's wire-edge counters.
struct IngestResult {
  uint64_t offered = 0;   ///< records sent (accepted + dropped + shed)
  uint64_t accepted = 0;  ///< enqueued for the TrainerLoop
  uint64_t dropped = 0;   ///< refused at the queue edge
  uint64_t shed = 0;      ///< answered kStatusBusy (not retried)
  uint64_t frames = 0;    ///< ingest frames sent
  uint64_t initial_generation = 0;
  uint64_t final_generation = 0;
  bool swap_observed = false;
  Status fatal;
};

/// splitmix64: seeded, dependency-free generator for the synthetic record
/// stream — the same stream every run, so failures reproduce.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double UnitUniform(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

/// A well-formed wire record with the process's feature-schema arity —
/// enough variety (distinct query/pipeline labels, jittered values) for
/// the server's retrain to see a non-degenerate corpus.
PipelineRecord SyntheticRecord(uint64_t* state, uint64_t seq) {
  PipelineRecord r;
  r.workload = "loadgen";
  r.query = "q" + std::to_string(seq % 7);
  r.pipeline_id = static_cast<int>(seq % 3);
  r.tag = (seq % 2 == 0) ? "even" : "odd";
  r.total_n = 100.0 + UnitUniform(state) * 1000.0;
  const size_t num_features = FeatureSchema::Get().num_features();
  r.features.resize(num_features);
  for (size_t i = 0; i < num_features; ++i) {
    r.features[i] = UnitUniform(state);
  }
  r.l1.resize(static_cast<size_t>(kNumEstimatorKinds));
  r.l2.resize(static_cast<size_t>(kNumEstimatorKinds));
  for (size_t i = 0; i < r.l1.size(); ++i) {
    r.l1[i] = UnitUniform(state) * 0.3;
    r.l2[i] = UnitUniform(state) * 0.3;
  }
  return r;
}

/// Run one full session on `client`; samples RTTs into `out`.
/// `session_start` is when the session was meant to begin: its due time
/// in the open loop, so a backlogged worker's queueing delay lands in the
/// session time and the open request's latency instead of vanishing
/// (coordinated omission); simply now in the closed loop.
Status RunSession(WireClient* client, const Config& config,
                  uint32_t run_index, Clock::time_point session_start,
                  WorkerResult* out) {
  auto timed = [&](const std::string& request,
                   Clock::time_point t0) -> Result<WireFrame> {
    // kStatusBusy is a retryable admission-control verdict, not an
    // error: retry the same request after exponential backoff so every
    // admitted session still completes (the shed counter still ticks
    // server-side — reconciled by --check).
    auto backoff = std::chrono::milliseconds(1);
    while (true) {
      RPE_ASSIGN_OR_RETURN(WireFrame frame, client->Call(request));
      out->request_ms.push_back(SecondsSince(t0) * 1e3);
      if (frame.status != kStatusBusy) return frame;
      ++out->busy;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(64));
      t0 = Clock::now();
    }
  };

  OpenRequest open;
  open.run_index = run_index;
  RPE_ASSIGN_OR_RETURN(WireFrame frame,
                       timed(EncodeOpenRequest(open), session_start));
  if (!frame.ok()) return frame.ToStatus();
  RPE_ASSIGN_OR_RETURN(OpenResponse opened,
                       DecodeOpenResponse(frame.payload));
  ++out->opens;

  AdvanceRequest advance;
  advance.session_id = opened.session_id;
  advance.max_steps = config.steps;
  while (true) {
    RPE_ASSIGN_OR_RETURN(frame,
                         timed(EncodeAdvanceRequest(advance), Clock::now()));
    if (!frame.ok()) return frame.ToStatus();
    RPE_ASSIGN_OR_RETURN(AdvanceResponse stepped,
                         DecodeAdvanceResponse(frame.payload));
    ++out->advance_requests;
    out->advance_steps += stepped.steps;
    if (stepped.done != 0) break;
  }

  CloseRequest close;
  close.session_id = opened.session_id;
  RPE_ASSIGN_OR_RETURN(frame,
                       timed(EncodeCloseRequest(close), Clock::now()));
  if (!frame.ok()) return frame.ToStatus();
  ++out->completed;
  out->session_ms.push_back(SecondsSince(session_start) * 1e3);
  return Status::OK();
}

/// Closed loop: claim session slots from the shared budget until spent.
void ClosedLoopWorker(const Config& config, std::atomic<uint64_t>* next,
                      WorkerResult* out) {
  WireClient client;
  out->fatal = client.Connect(config.host, config.port);
  if (!out->fatal.ok()) return;
  while (true) {
    const uint64_t slot = next->fetch_add(1);
    if (slot >= config.sessions) break;
    const uint32_t run_index = static_cast<uint32_t>(
        config.runs > 0 ? slot % config.runs : slot);
    const Status st =
        RunSession(&client, config, run_index, Clock::now(), out);
    if (!st.ok()) {
      ++out->errors;
      out->fatal = st;  // blocking protocol: desync is not recoverable
      return;
    }
  }
}

/// Open loop: arrivals k = id, id + connections, ... fire at k / rate
/// seconds after the shared start; a late worker runs its backlog without
/// bending the schedule.
void OpenLoopWorker(const Config& config, size_t id,
                    Clock::time_point start, WorkerResult* out) {
  WireClient client;
  out->fatal = client.Connect(config.host, config.port);
  if (!out->fatal.ok()) return;
  for (uint64_t k = id; k < config.sessions; k += config.connections) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(k) / config.rate));
    std::this_thread::sleep_until(due);
    const uint32_t run_index =
        static_cast<uint32_t>(config.runs > 0 ? k % config.runs : k);
    const Status st = RunSession(&client, config, run_index, due, out);
    if (!st.ok()) {
      ++out->errors;
      out->fatal = st;
      return;
    }
  }
}

/// Fetch the server's current stats over `client` (in-band: responses are
/// FIFO per connection, so this composes with ingest traffic).
Result<WireStats> FetchStats(WireClient* client) {
  RPE_ASSIGN_OR_RETURN(WireFrame frame, client->Call(EncodeStatsRequest()));
  if (!frame.ok()) return frame.ToStatus();
  return DecodeStatsResponse(frame.payload);
}

/// Dedicated ingest connection: stream synthetic records in batched
/// frames at --ingest-rate, honoring busy with backoff (the batch is
/// counted shed, not retried — the stream is synthetic, freshness beats
/// redelivery). Terminates on the record budget, on an observed model
/// swap (--ingest-until-swap, 120 s safety cap), or — with neither —
/// when the session workers finish.
void IngestWorker(const Config& config, Clock::time_point start,
                  const std::atomic<bool>* sessions_done, IngestResult* out) {
  WireClient client;
  out->fatal = client.Connect(config.host, config.port);
  if (!out->fatal.ok()) return;
  {
    auto stats = FetchStats(&client);
    if (!stats.ok()) {
      out->fatal = stats.status();
      return;
    }
    out->initial_generation = stats->model_generation;
    out->final_generation = stats->model_generation;
  }
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  uint64_t rng = 0x243f6a8885a308d3ULL;  // deterministic record stream
  uint64_t seq = 0;
  auto backoff = std::chrono::milliseconds(1);
  while (true) {
    if (config.ingest_records > 0 && out->offered >= config.ingest_records) {
      break;
    }
    if (config.ingest_until_swap) {
      if (out->swap_observed) break;
      if (Clock::now() > deadline) {
        out->fatal = Status::IOError(
            "ingest: no model swap observed within the 120 s cap");
        break;
      }
    } else if (config.ingest_records == 0 && sessions_done->load()) {
      break;
    }
    if (config.ingest_rate > 0.0) {
      // Records offered so far define the schedule; a shed batch still
      // consumed its arrival slots (the server said shed, not "unsent").
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(out->offered) /
                          config.ingest_rate));
      std::this_thread::sleep_until(due);
    }
    size_t n = config.ingest_batch;
    if (config.ingest_records > 0) {
      n = std::min<size_t>(n, config.ingest_records - out->offered);
    }
    std::string request;
    if (n == 1) {
      IngestRecordRequest req;
      req.record = SyntheticRecord(&rng, seq++);
      request = EncodeIngestRecordRequest(req);
    } else {
      IngestBatchRequest req;
      req.records.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        req.records.push_back(SyntheticRecord(&rng, seq++));
      }
      request = EncodeIngestBatchRequest(req);
    }
    auto frame = client.Call(request);
    if (!frame.ok()) {
      out->fatal = frame.status();
      break;
    }
    ++out->frames;
    out->offered += n;
    if (frame->status == kStatusBusy) {
      out->shed += n;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(128));
      continue;
    }
    backoff = std::chrono::milliseconds(1);
    if (!frame->ok()) {
      out->fatal = frame->ToStatus();
      break;
    }
    auto resp = DecodeIngestResponse(frame->payload);
    if (!resp.ok()) {
      out->fatal = resp.status();
      break;
    }
    out->accepted += resp->accepted;
    out->dropped += resp->dropped;
    if (config.ingest_until_swap && out->frames % 4 == 0) {
      auto stats = FetchStats(&client);
      if (!stats.ok()) {
        out->fatal = stats.status();
        break;
      }
      out->final_generation = stats->model_generation;
      if (stats->model_generation > out->initial_generation) {
        out->swap_observed = true;
      }
    }
  }
}

/// Exact percentile over sorted samples (nearest-rank interpolation, the
/// same convention as common/stats.h on the server side).
double PercentileSorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << v;
  return out.str();
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "true";
    }
  }
  return flags;
}

void PrintUsage(std::ostream& out) {
  out << "usage: rpe_loadgen --port P [--host 127.0.0.1]\n"
         "  [--connections 4] [--sessions 64] [--steps 64]\n"
         "  [--rate R]   open loop: R session arrivals/sec (0 = closed)\n"
         "  [--runs N]   cycle run_index over [0, N) (0 = one per session)\n"
         "  [--ingest-rate R]     stream synthetic records at R/sec over a\n"
         "                        dedicated connection (0 = no pacing)\n"
         "  [--ingest-records N]  stop the ingest stream after N records\n"
         "  [--ingest-batch 16]   records per ingest frame (1 sends\n"
         "                        kIngestRecord, >1 sends kIngestBatch)\n"
         "  [--ingest-until-swap] ingest until the server's model\n"
         "                        generation advances (120 s cap)\n"
         "  [--check]    reconcile client counters against server Stats\n"
         "               deltas (incl. busy/shed/ingest); mismatch exits 1\n"
         "  [--dump-metrics] fetch the server's Prometheus text over the\n"
         "               wire (kMetricsDump) after the run, print to stderr\n"
         "--sessions 0 skips session traffic (ingest-only run).\n"
         "Drives `rpe_cli serve-tcp` (see docs/NETWORK.md); emits one\n"
         "JSON result object as the last stdout line.\n";
}

int Main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  if (flags.count("help") > 0 || flags.count("port") == 0) {
    PrintUsage(flags.count("help") > 0 ? std::cout : std::cerr);
    return flags.count("help") > 0 ? 0 : 2;
  }
  Config config;
  try {
    config.host = flags.count("host") ? flags.at("host") : config.host;
    config.port = static_cast<uint16_t>(std::stoul(flags.at("port")));
    if (flags.count("connections"))
      config.connections = std::stoul(flags.at("connections"));
    if (flags.count("sessions"))
      config.sessions = std::stoul(flags.at("sessions"));
    if (flags.count("steps"))
      config.steps = static_cast<uint32_t>(std::stoul(flags.at("steps")));
    if (flags.count("rate")) config.rate = std::stod(flags.at("rate"));
    if (flags.count("runs")) config.runs = std::stoul(flags.at("runs"));
    if (flags.count("ingest-rate"))
      config.ingest_rate = std::stod(flags.at("ingest-rate"));
    if (flags.count("ingest-records"))
      config.ingest_records = std::stoul(flags.at("ingest-records"));
    if (flags.count("ingest-batch"))
      config.ingest_batch = std::stoul(flags.at("ingest-batch"));
    config.ingest_until_swap = flags.count("ingest-until-swap") > 0;
    config.check = flags.count("check") > 0;
    config.dump_metrics = flags.count("dump-metrics") > 0;
  } catch (const std::exception& e) {
    std::cerr << "bad flag value: " << e.what() << "\n";
    return 2;
  }
  if (config.connections == 0 || config.steps == 0 ||
      config.steps > kMaxAdvanceSteps || config.rate < 0.0 ||
      config.ingest_rate < 0.0) {
    std::cerr << "invalid configuration: connections/steps must be "
                 "positive, steps <= "
              << kMaxAdvanceSteps << ", rates >= 0\n";
    return 2;
  }
  if (config.sessions == 0 && !IngestEnabled(config)) {
    std::cerr << "invalid configuration: --sessions 0 needs ingest traffic "
                 "(--ingest-rate / --ingest-records / --ingest-until-swap)\n";
    return 2;
  }
  if (config.ingest_batch == 0 ||
      config.ingest_batch > kMaxIngestBatchRecords) {
    std::cerr << "invalid configuration: --ingest-batch must be in [1, "
              << kMaxIngestBatchRecords << "]\n";
    return 2;
  }

  std::cerr << (config.rate > 0.0 ? "open" : "closed") << "-loop run: "
            << config.sessions << " sessions over " << config.connections
            << " connections to " << config.host << ":" << config.port;
  if (IngestEnabled(config)) {
    std::cerr << " + ingest (batch " << config.ingest_batch << ")";
  }
  std::cerr << "\n";

  // Snapshot the server's counters before any traffic so --check can
  // reconcile against exact deltas (a warm server reconciles the same as
  // a fresh one).
  WireStats initial{};
  bool have_initial_stats = false;
  {
    WireClient snapshot_client;
    if (snapshot_client.Connect(config.host, config.port).ok()) {
      auto stats = FetchStats(&snapshot_client);
      if (stats.ok()) {
        initial = *stats;
        have_initial_stats = true;
      }
    }
  }

  const size_t session_workers =
      config.sessions > 0 ? config.connections : 0;
  std::vector<WorkerResult> results(session_workers);
  std::vector<std::thread> workers;
  std::atomic<uint64_t> next{0};
  std::atomic<bool> sessions_done{session_workers == 0};
  IngestResult ingest;
  const auto start = Clock::now();
  std::thread ingest_thread;
  if (IngestEnabled(config)) {
    ingest_thread = std::thread(IngestWorker, config, start, &sessions_done,
                                &ingest);
  }
  for (size_t c = 0; c < session_workers; ++c) {
    if (config.rate > 0.0) {
      workers.emplace_back(OpenLoopWorker, config, c, start, &results[c]);
    } else {
      workers.emplace_back(ClosedLoopWorker, config, &next, &results[c]);
    }
  }
  for (auto& w : workers) w.join();
  sessions_done.store(true);
  if (ingest_thread.joinable()) ingest_thread.join();
  const double elapsed = SecondsSince(start);

  WorkerResult total;
  for (const WorkerResult& r : results) {
    total.opens += r.opens;
    total.completed += r.completed;
    total.advance_requests += r.advance_requests;
    total.advance_steps += r.advance_steps;
    total.errors += r.errors;
    total.busy += r.busy;
    total.request_ms.insert(total.request_ms.end(), r.request_ms.begin(),
                            r.request_ms.end());
    total.session_ms.insert(total.session_ms.end(), r.session_ms.begin(),
                            r.session_ms.end());
    if (total.fatal.ok() && !r.fatal.ok()) total.fatal = r.fatal;
  }
  if (total.fatal.ok() && !ingest.fatal.ok()) total.fatal = ingest.fatal;
  if (!total.fatal.ok()) {
    std::cerr << "worker failed: " << total.fatal.ToString() << "\n";
  }
  std::sort(total.request_ms.begin(), total.request_ms.end());
  std::sort(total.session_ms.begin(), total.session_ms.end());

  // Server-side view, over a fresh connection after the workers joined so
  // the counters are quiescent.
  WireStats server{};
  bool have_server_stats = false;
  {
    WireClient stats_client;
    if (stats_client.Connect(config.host, config.port).ok()) {
      auto frame = stats_client.Call(EncodeStatsRequest());
      if (frame.ok() && frame->ok()) {
        auto decoded = DecodeStatsResponse(frame->payload);
        if (decoded.ok()) {
          server = *decoded;
          have_server_stats = true;
        }
      }
      if (config.dump_metrics) {
        // The wire-side scrape: the payload is the same Prometheus text
        // the HTTP /metrics endpoint serves. Stderr, so the JSON result
        // stays the last stdout line.
        auto dump = stats_client.Call(EncodeMetricsDumpRequest());
        if (dump.ok() && dump->ok()) {
          std::cerr << dump->payload;
        } else {
          std::cerr << "metrics dump failed: "
                    << (dump.ok() ? dump->ToStatus() : dump.status())
                           .ToString()
                    << "\n";
        }
      }
    }
  }

  std::ostringstream json;
  json << "{"
       << "\"mode\":\"" << (config.rate > 0.0 ? "open" : "closed") << "\","
       << "\"connections\":" << config.connections << ","
       << "\"sessions_requested\":" << config.sessions << ","
       << "\"sessions_opened\":" << total.opens << ","
       << "\"sessions_completed\":" << total.completed << ","
       << "\"advance_requests\":" << total.advance_requests << ","
       << "\"advance_steps\":" << total.advance_steps << ","
       << "\"errors\":" << total.errors << ","
       << "\"busy_responses\":" << total.busy << ","
       << "\"ingest_offered\":" << ingest.offered << ","
       << "\"ingest_accepted\":" << ingest.accepted << ","
       << "\"ingest_dropped\":" << ingest.dropped << ","
       << "\"ingest_shed\":" << ingest.shed << ","
       << "\"swap_observed\":" << (ingest.swap_observed ? "true" : "false")
       << ","
       << "\"elapsed_s\":" << JsonNum(elapsed) << ","
       << "\"sessions_per_sec\":"
       << JsonNum(static_cast<double>(total.completed) / elapsed) << ","
       << "\"steps_per_sec\":"
       << JsonNum(static_cast<double>(total.advance_steps) / elapsed) << ","
       << "\"request_p50_ms\":"
       << JsonNum(PercentileSorted(total.request_ms, 50.0)) << ","
       << "\"request_p99_ms\":"
       << JsonNum(PercentileSorted(total.request_ms, 99.0)) << ","
       << "\"request_p999_ms\":"
       << JsonNum(PercentileSorted(total.request_ms, 99.9)) << ","
       << "\"session_p50_ms\":"
       << JsonNum(PercentileSorted(total.session_ms, 50.0)) << ","
       << "\"session_p99_ms\":"
       << JsonNum(PercentileSorted(total.session_ms, 99.0)) << ","
       << "\"session_p999_ms\":"
       << JsonNum(PercentileSorted(total.session_ms, 99.9));
  if (have_server_stats) {
    json << ",\"server\":{"
         << "\"sessions_opened\":" << server.sessions_opened << ","
         << "\"sessions_completed\":" << server.sessions_completed << ","
         << "\"decisions\":" << server.decisions << ","
         << "\"observations_scored\":" << server.observations_scored << ","
         << "\"advance_steps\":" << server.advance_steps << ","
         << "\"frames_received\":" << server.frames_received << ","
         << "\"frames_sent\":" << server.frames_sent << ","
         << "\"protocol_errors\":" << server.protocol_errors << ","
         << "\"io_errors\":" << server.io_errors << ","
         << "\"model_generation\":" << server.model_generation << ","
         << "\"retrains\":" << server.retrains << ","
         << "\"requests_shed\":" << server.requests_shed << ","
         << "\"records_ingested\":" << server.records_ingested << ","
         << "\"records_ingest_dropped\":" << server.records_ingest_dropped
         << ","
         << "\"records_ingest_shed\":" << server.records_ingest_shed << ","
         << "\"ingest_pushed\":" << server.ingest_pushed << ","
         << "\"ingest_drained\":" << server.ingest_drained << ","
         << "\"ingest_queue_size\":" << server.ingest_queue_size << ","
         << "\"decisions_per_sec\":"
         << JsonNum(static_cast<double>(server.decisions) / elapsed) << ","
         << "\"p50_replay_ms\":" << JsonNum(server.p50_replay_ms) << ","
         << "\"p95_replay_ms\":" << JsonNum(server.p95_replay_ms) << "}";
  }
  json << "}";
  std::cout << json.str() << std::endl;

  int rc = total.fatal.ok() && total.errors == 0 ? 0 : 1;
  if (config.check) {
    if (!have_server_stats || !have_initial_stats) {
      std::cerr << "CHECK FAILED: could not fetch server stats\n";
      return 1;
    }
    // Exact reconciliation (valid when this loadgen is the only client):
    // what the client opened / completed / stepped / had shed must be
    // exactly the delta the service and wire front-end recorded over the
    // run, and every ingested record must land in exactly one of
    // accepted / dropped / shed on both sides of the wire.
    struct Check {
      const char* name;
      uint64_t client;
      uint64_t server;
    };
    const Check checks[] = {
        {"sessions_opened", total.opens,
         server.sessions_opened - initial.sessions_opened},
        {"wire_sessions_opened", total.opens,
         server.wire_sessions_opened - initial.wire_sessions_opened},
        {"sessions_completed", total.completed,
         server.sessions_completed - initial.sessions_completed},
        {"observations_scored", total.advance_steps,
         server.observations_scored - initial.observations_scored},
        {"advance_steps", total.advance_steps,
         server.advance_steps - initial.advance_steps},
        {"requests_shed", total.busy,
         server.requests_shed - initial.requests_shed},
        {"ingest_offered", ingest.offered,
         ingest.accepted + ingest.dropped + ingest.shed},
        {"records_ingested", ingest.accepted,
         server.records_ingested - initial.records_ingested},
        {"ingest_pushed (wire is sole producer)", ingest.accepted,
         server.ingest_pushed - initial.ingest_pushed},
        {"records_ingest_dropped", ingest.dropped,
         server.records_ingest_dropped - initial.records_ingest_dropped},
        {"records_ingest_shed", ingest.shed,
         server.records_ingest_shed - initial.records_ingest_shed},
        // Queue-side conservation at a quiescent cut, independent of this
        // client's view: everything pushed was drained or is still queued.
        {"ingest_pushed == drained + queued", server.ingest_pushed,
         server.ingest_drained + server.ingest_queue_size},
    };
    for (const Check& c : checks) {
      if (c.client != c.server) {
        std::cerr << "CHECK FAILED: " << c.name << " client=" << c.client
                  << " server=" << c.server << "\n";
        rc = 1;
      }
    }
    if (rc == 0) {
      std::cerr << "check: client and server counters reconcile exactly\n";
    }
  }
  return rc;
}

}  // namespace
}  // namespace rpe

int main(int argc, char** argv) { return rpe::Main(argc, argv); }
