// TcpServer: the epoll TCP front-end of the serving tier. Untrusted
// clients speak the length-prefixed wire protocol (serving/wire.h) —
// Open/Advance/Progress/Close/Stats — against a ShardedMonitorService.
// It is the one way a monitoring session is driven: Open/Advance/Close
// requests arrive on a socket, and serving them adds no lock to the
// scoring path.
//
// Threading / pinning model: N IO threads, each owning one epoll
// instance and a disjoint set of connections. Accepted connections are
// handed out round-robin and never migrate. IO thread t opens its
// connections' sessions on monitor shard (t % num_shards) via
// ShardedMonitorService::OpenSessionOnShard, so with io_threads ==
// num_shards (the default) the event loops align 1:1 with shards and a
// request never crosses a shard lock it didn't need — the only
// contention on a session's shard comes from the one IO thread that owns
// the session, plus the service-level publish machinery.
//
// Batched decode → inline dispatch: an IO thread drains every readable
// connection first, decoding all complete frames, then answers each
// connection's frames in FIFO order — an Advance steps its session up to
// max_steps observations right there — and finally flushes every touched
// connection once. A request's steps are bounded by kMaxAdvanceSteps, so
// one pass over the inboxes is bounded too; the responses of the whole
// pass leave together in the flush.
//
// Backpressure: a connection's pending responses accumulate in a bounded
// write buffer. When it exceeds Options::max_write_buffer the server
// stops reading (and stops dispatching) from that connection until the
// buffer drains below half — a slow reader throttles itself, never the
// event loop or other connections.
//
// Online ingest + admission control: kIngestRecord / kIngestBatch frames
// stream PipelineRecords into the RecordIngestQueue handed to the
// constructor (the TrainerLoop drains it, retrains, and hot-swaps —
// generation bumps are visible in kStats responses mid-connection).
// Saturation is shed, never queued unboundedly and never dropped
// silently: a frame that exceeds the per-connection or global in-flight
// budget, or an ingest frame that would push the queue past its
// watermark, is answered with a kStatusBusy error frame in FIFO order
// and counted exactly (TcpServerStats::requests_shed /
// records_ingest_shed). Shed decisions happen at read time — the frame's
// payload is released immediately, so a flood costs inbox slots, not
// payload bytes — but the busy response still goes out in request order.
//
// Metrics: the server registers its counters and its request-latency
// histogram into the service's registry (ShardedMonitorService::metrics),
// next to the monitor and trainer counters, and serves that registry on
// GET /metrics and kMetricsDump. A kStats answer reads the same cells, so
// it cannot disagree with a scrape.
//
// Shutdown: Stop() closes the listen socket, wakes every IO thread,
// flushes pending write buffers for up to Options::drain_timeout, closes
// every connection (closing its sessions), and joins the threads — a
// SIGTERM'd server exits 0 with reconciled counters. Failure edges are
// failpoint-instrumented (server.accept / server.read / server.write /
// server.frame — see docs/ROBUSTNESS.md) so fault drills can hit the
// wire the same way they hit snapshots and the trainer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serving/ingest.h"
#include "serving/shard_router.h"
#include "serving/wire.h"

namespace rpe {

/// \brief Point-in-time read of the TCP front-end's registry counters,
/// summed over IO threads. (The monitor counters live in the same
/// registry; a StatsResponse over the wire carries both.)
struct TcpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t protocol_errors = 0;  ///< hostile frames / payloads
  uint64_t io_errors = 0;        ///< read/write/accept failures
  uint64_t wire_sessions_opened = 0;
  uint64_t wire_sessions_closed = 0;
  uint64_t advance_steps = 0;  ///< observation steps taken for Advance
  // Admission control / online ingest. Every record offered over the wire
  // is accounted exactly once: ingested + ingest_dropped + ingest_shed ==
  // records offered; every shed frame (session or ingest) was answered
  // with kStatusBusy, never silently discarded.
  uint64_t requests_shed = 0;           ///< session frames answered busy
  uint64_t records_ingested = 0;        ///< records accepted into the queue
  uint64_t records_ingest_dropped = 0;  ///< records refused at the queue edge
  uint64_t records_ingest_shed = 0;     ///< records answered busy
};

/// \brief Epoll event-loop TCP server over a ShardedMonitorService.
/// Start/Stop are not thread-safe against each other; everything the IO
/// threads do internally is.
class TcpServer {
 public:
  struct Options {
    /// TCP port to bind (loopback); 0 picks an ephemeral port — read it
    /// back with port() after Start().
    uint16_t port = 0;
    /// IO threads (event loops); 0 = one per monitor shard (the 1:1
    /// pinning the header comment describes).
    size_t io_threads = 0;
    /// Per-connection write-buffer cap; beyond it the connection's reads
    /// pause until the buffer drains below half (backpressure).
    size_t max_write_buffer = 1 << 20;
    /// How long Stop() keeps flushing pending responses before closing
    /// connections that still have unread bytes.
    std::chrono::milliseconds drain_timeout{2000};
    /// Admission control: max undispatched frames per connection before
    /// new sheddable frames are answered kStatusBusy.
    size_t max_inflight_per_conn = 128;
    /// Global cap on undispatched frames across all connections.
    size_t max_inflight_total = 4096;
    /// Ingest-queue watermark: an ingest frame whose records would push
    /// the queue past this is answered kStatusBusy. 0 = the queue's
    /// capacity (shed exactly when Push would start dropping).
    size_t ingest_shed_watermark = 0;
    /// Port of the HTTP /metrics exposition listener (loopback, GET
    /// only): -1 disables it, 0 picks an ephemeral port — read it back
    /// with metrics_port() after Start().
    int metrics_port = -1;
  };

  /// `service` and the runs behind `runs` must outlive the server. `runs`
  /// is the replay corpus OpenRequest.run_index indexes into (modulo).
  /// Without an ingest queue, ingest frames are answered NotImplemented.
  TcpServer(ShardedMonitorService* service,
            std::vector<const QueryRunResult*> runs, Options options);
  /// `ingest` (may be null) must outlive the server; it is the wire →
  /// TrainerLoop edge for kIngestRecord / kIngestBatch frames.
  TcpServer(ShardedMonitorService* service,
            std::vector<const QueryRunResult*> runs,
            RecordIngestQueue* ingest, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + spawn the acceptor and IO threads. Fails with a
  /// Status (nothing spawned) if the socket setup fails.
  Status Start();

  /// Drain and stop everything; idempotent, called by the destructor.
  void Stop();

  /// Bound port (after a successful Start()).
  uint16_t port() const { return port_; }

  /// Bound /metrics port (after Start(), when Options::metrics_port >= 0;
  /// 0 otherwise).
  uint16_t metrics_port() const { return metrics_port_; }

  TcpServerStats GetStats() const;

  /// The WireStats a StatsRequest returns right now (service + front-end
  /// counters merged) — shared with the stats handler so tests and the
  /// CLI summary read exactly what clients see.
  WireStats BuildWireStats() const;

 private:
  struct Connection;
  struct InboxEntry;
  struct IoThread;

  void AcceptLoop();
  void IoLoop(IoThread* io);
  /// Read until EAGAIN, decode frames into the connection inbox. False =
  /// the connection died (already cleaned up).
  bool ReadInto(IoThread* io, Connection* conn);
  /// Dispatch queued frames in FIFO order until the write buffer fills.
  void DispatchInbox(IoThread* io, Connection* conn);
  /// Flush the write buffer; arms EPOLLOUT on partial writes, resumes
  /// paused reads once drained. False = the connection died.
  bool FlushWrites(IoThread* io, Connection* conn);
  void SendFrame(IoThread* io, Connection* conn, std::string frame);
  void CloseConnection(IoThread* io, Connection* conn);
  /// Answer one frame; returns the root span's arg (the observation
  /// steps an Advance took, 0 otherwise).
  uint64_t HandleFrame(IoThread* io, Connection* conn,
                       const InboxEntry& entry);
  /// Close out one answered request: record its end-to-end latency in
  /// the request histogram, emit the root trace span (carrying `arg`,
  /// e.g. an Advance's step count), and write the slow-request log line
  /// when the latency crosses the --slow-ms threshold.
  void FinishRequest(const char* name, uint64_t trace_id, uint64_t recv_ns,
                     uint64_t arg);
  /// Serve one accepted /metrics HTTP connection inline (blocking with
  /// short timeouts; runs on the acceptor thread).
  void HandleMetricsConn(int fd);
  /// Answer a frame shed at read time with kStatusBusy (FIFO order) and
  /// bump the exact shed counter (records for ingest, frames otherwise).
  void AnswerShed(IoThread* io, Connection* conn, const InboxEntry& entry);
  /// Push decoded records into the ingest queue (watermark shed, per-record
  /// `server.ingest` failpoint) and answer with an IngestResponse.
  void IngestRecords(IoThread* io, Connection* conn, MsgType type,
                     std::vector<PipelineRecord> records);
  bool UpdateEpoll(IoThread* io, Connection* conn);

  ShardedMonitorService* const service_;
  const std::vector<const QueryRunResult*> runs_;
  RecordIngestQueue* const ingest_;  ///< may be null (replay-only server)
  const Options options_;

  /// The server's counters are obs::Counters in the service's registry
  /// (one relaxed sharded fetch_add per accrual, summed only on scrape) —
  /// the same objects back GetStats, the exit table, kMetricsDump, and
  /// /metrics. Two servers over one service share them.
  struct Counters {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Counter* frames_received = nullptr;
    obs::Counter* frames_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* io_errors = nullptr;
    obs::Counter* wire_sessions_opened = nullptr;
    obs::Counter* wire_sessions_closed = nullptr;
    obs::Counter* advance_steps = nullptr;
    obs::Counter* requests_shed = nullptr;
    obs::Counter* records_ingested = nullptr;
    obs::Counter* records_ingest_dropped = nullptr;
    obs::Counter* records_ingest_shed = nullptr;
  };

  obs::MetricsRegistry& registry_;  ///< service_->metrics()
  Counters c_;
  obs::Histogram* request_latency_ = nullptr;  ///< end-to-end, ns
  /// Cells a StatsResponse reads besides the server's own: the monitor
  /// counters and the TrainerLoop's retrain counter.
  const ServiceMetrics service_metrics_;
  obs::Counter* retrains_ = nullptr;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int metrics_fd_ = -1;  ///< /metrics HTTP listener (-1 = disabled)
  uint16_t metrics_port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool joined_ = false;

  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::thread acceptor_;
  int acceptor_wake_fd_ = -1;  ///< eventfd that interrupts the acceptor
  std::atomic<uint64_t> next_io_thread_{0};
  /// Undispatched (non-shed) frames across all connections — the global
  /// in-flight budget admission control checks at read time.
  std::atomic<uint64_t> inflight_total_{0};
};

}  // namespace rpe
