// The serving workloads' shared pieces: the replay corpus `rpe_cli
// serve-tcp` builds at start-up (rebuilt here, bit for bit, so sessions
// can be checked against an in-process replay), the seeded session
// sequence, and the blocking wire connection the benchmark's client uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "harness/runner.h"
#include "serving/wire.h"

namespace perfbench {

/// The serve-tcp corpus: `--kind tpch --queries 40 --scale 5 --seed 1`.
/// The corpus is the deployment and stays fixed; the benchmark seed draws
/// the traffic (session sequence and ingest stream). Session lengths follow
/// the corpus, so a seeded corpus would move sessions_per_s with the draw.
rpe::WorkloadConfig ServeConfig();
/// The ingest stream's source: the same workload under a second seed.
rpe::WorkloadConfig StreamConfig(uint64_t seed);

/// \brief Executed corpus: every successful run (in query order, the
/// server's run_index space) and its pipeline records.
struct ServeCorpus {
  std::vector<rpe::OwnedRun> runs;
  std::vector<const rpe::QueryRunResult*> ptrs;
  std::vector<rpe::PipelineRecord> records;
  uint64_t attempted = 0;  ///< queries planned
  uint64_t failed = 0;     ///< queries that failed to plan or execute
  uint64_t pipelines = 0;  ///< pipelines executed
  double getnext = 0.0;    ///< sum of final K_i over executed queries
  double execute_s = 0.0;  ///< time inside ExecutePlan
  uint64_t observations = 0;
};

/// Build + execute the corpus exactly as serve-tcp does; with a span log,
/// each layer call is recorded.
rpe::Status BuildServeCorpus(const rpe::WorkloadConfig& config,
                             ServeCorpus* out, SpanLog* log = nullptr);

/// Deterministic run_index sequence of `n` sessions for `stream`
/// (0 = closed loop, 1 = open loop) of workload seed `seed`.
std::vector<uint32_t> SessionSequence(uint64_t seed, uint64_t stream,
                                      size_t n, size_t num_runs);

/// \brief One blocking loopback connection speaking the wire protocol,
/// counting the bytes it moves.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  rpe::Status Connect(uint16_t port);
  rpe::Status Send(const std::string& frame);
  rpe::Result<rpe::WireFrame> Receive();

  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;

 private:
  int fd_ = -1;
  rpe::FrameDecoder decoder_;
};

/// serve-steady's fixed shape, shared by the server's flags (printed by
/// serve-prep), the TCP client and the in-process layer run.
constexpr size_t kShards = 2;           ///< serve-tcp --shards
constexpr size_t kServerThreads = 2;    ///< serve-tcp --threads
constexpr size_t kRetrainTrees = 50;    ///< serve-tcp --trees
constexpr size_t kRetrainEvery = 100;   ///< serve-tcp --retrain-every
constexpr double kOpenRate = 1000.0;    ///< open-loop sessions per second
constexpr size_t kClosedSessions = 15000;
constexpr uint32_t kMaxSteps = 64;      ///< AdvanceRequest::max_steps
constexpr size_t kSwaps = 5;            ///< hot swaps timed after the phases

/// \brief What varies between serve-steady client runs.
struct ClientOptions {
  uint16_t port = 0;
  int server_pid = 0;         ///< whose CPU time the closed loop reads
  uint64_t seed = 1;
  double seconds = 10.0;      ///< open-loop phase length
  std::string model;          ///< the snapshot the server serves
  std::string stream;         ///< ingest records (.rpsn record batch)
  bool trace = false;
  std::string trace_out;
};

int RunServeClient(const ClientOptions& options);
/// In-process per-layer measurements of serve-steady; `retrains` is the
/// number of hot swaps the client run made.
int RunServeLayers(const ClientOptions& options, size_t retrains);
/// Set-up made before the server starts: the model snapshot and the
/// ingest stream, written into `dir`; prints the serve-tcp flags that
/// serve them.
int RunServePrep(uint64_t seed, const std::string& dir);
int RunStallSelfTest();
int RunRepro(uint64_t seed, bool trace, const std::string& trace_out);

}  // namespace perfbench
