// Wire protocol + TCP front-end tests. Codec side: every message type
// round-trips bit-exactly through encode -> frame reassembly -> decode,
// partial reads reassemble at any chunking, and hostile headers and
// payloads (oversized length, zero/trailing bytes, unknown types, nonzero
// reserved bits) are rejected with Status. Server side: a real loopback
// TcpServer must answer Advance with progress values bit-identical to the
// in-process MonitorService walking the same run, reconcile its counters
// exactly, reject garbage streams and clients that hang up mid-flush
// without dying, and drain cleanly. The
// Wire* suites run in the CI TSan job (the server fans out across IO
// threads and shards).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>

#include "exec/executor.h"
#include "serving/server.h"
#include "serving/shard_router.h"
#include "serving/wire.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;

// ---------------------------------------------------------------------------
// Codec

/// Encode -> FrameDecoder -> one complete frame, asserting exactly one
/// frame comes out and nothing is left over.
WireFrame MustDecodeOne(const std::string& encoded) {
  FrameDecoder decoder;
  decoder.Feed(encoded);
  WireFrame frame;
  auto first = decoder.Next(&frame);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.ok() && *first);
  WireFrame extra;
  auto second = decoder.Next(&extra);
  EXPECT_TRUE(second.ok() && !*second) << "trailing frame";
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

TEST(WireCodecTest, OpenMessagesRoundTripBitExactly) {
  OpenRequest req;
  req.run_index = 0xDEADBEEFu;
  WireFrame frame = MustDecodeOne(EncodeOpenRequest(req));
  EXPECT_EQ(frame.type, MsgType::kOpen);
  EXPECT_TRUE(frame.ok());
  auto decoded = DecodeOpenRequest(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->run_index, req.run_index);

  OpenResponse resp;
  resp.session_id = 0x0123456789ABCDEFull;
  resp.run_index = 7;
  resp.num_observations = 4096;
  frame = MustDecodeOne(EncodeOpenResponse(resp));
  auto out = DecodeOpenResponse(frame.payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->session_id, resp.session_id);
  EXPECT_EQ(out->run_index, resp.run_index);
  EXPECT_EQ(out->num_observations, resp.num_observations);
}

TEST(WireCodecTest, AdvanceMessagesRoundTripBitExactly) {
  AdvanceRequest req;
  req.session_id = 42;
  req.max_steps = kMaxAdvanceSteps;
  WireFrame frame = MustDecodeOne(EncodeAdvanceRequest(req));
  EXPECT_EQ(frame.type, MsgType::kAdvance);
  auto decoded = DecodeAdvanceRequest(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->session_id, req.session_id);
  EXPECT_EQ(decoded->max_steps, req.max_steps);

  AdvanceResponse resp;
  resp.progress = 0.1234567890123456789;  // keeps all 53 mantissa bits
  resp.steps = 31;
  resp.done = 1;
  frame = MustDecodeOne(EncodeAdvanceResponse(resp));
  auto out = DecodeAdvanceResponse(frame.payload);
  ASSERT_TRUE(out.ok());
  // Bit-exact double transport: memcmp, not approximate equality.
  EXPECT_EQ(std::memcmp(&out->progress, &resp.progress, sizeof(double)), 0);
  EXPECT_EQ(out->steps, resp.steps);
  EXPECT_EQ(out->done, resp.done);
}

TEST(WireCodecTest, ProgressAndCloseMessagesRoundTripBitExactly) {
  ProgressRequest preq;
  preq.session_id = ~0ull;
  auto pr = DecodeProgressRequest(
      MustDecodeOne(EncodeProgressRequest(preq)).payload);
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr->session_id, preq.session_id);

  ProgressResponse presp;
  presp.progress = 87.65;
  presp.done = 0;
  auto po = DecodeProgressResponse(
      MustDecodeOne(EncodeProgressResponse(presp)).payload);
  ASSERT_TRUE(po.ok());
  EXPECT_EQ(std::memcmp(&po->progress, &presp.progress, sizeof(double)), 0);
  EXPECT_EQ(po->done, presp.done);

  CloseRequest creq;
  creq.session_id = 9;
  auto cr =
      DecodeCloseRequest(MustDecodeOne(EncodeCloseRequest(creq)).payload);
  ASSERT_TRUE(cr.ok());
  EXPECT_EQ(cr->session_id, creq.session_id);

  WireFrame closed = MustDecodeOne(EncodeCloseResponse());
  EXPECT_EQ(closed.type, MsgType::kClose);
  EXPECT_TRUE(closed.payload.empty());
}

TEST(WireCodecTest, StatsMessagesRoundTripEveryField) {
  WireFrame req = MustDecodeOne(EncodeStatsRequest());
  EXPECT_EQ(req.type, MsgType::kStats);
  EXPECT_TRUE(req.payload.empty());

  WireStats stats;
  // Distinct values per field so a swapped encode/decode order cannot
  // cancel out.
  uint64_t v = 1000;
  for (uint64_t* field :
       {&stats.sessions_opened, &stats.sessions_completed, &stats.decisions,
        &stats.observations_scored, &stats.model_generation,
        &stats.connections_accepted, &stats.connections_closed,
        &stats.frames_received, &stats.frames_sent, &stats.bytes_received,
        &stats.bytes_sent, &stats.protocol_errors, &stats.io_errors,
        &stats.wire_sessions_opened, &stats.wire_sessions_closed,
        &stats.advance_steps, &stats.records_ingested,
        &stats.records_ingest_dropped, &stats.records_ingest_shed,
        &stats.requests_shed, &stats.ingest_pushed, &stats.ingest_dropped,
        &stats.ingest_drained, &stats.ingest_queue_size, &stats.retrains}) {
    *field = v++;
  }
  stats.p50_replay_ms = 1.5;
  stats.p95_replay_ms = 9.75;
  auto out =
      DecodeStatsResponse(MustDecodeOne(EncodeStatsResponse(stats)).payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::memcmp(&*out, &stats, sizeof(WireStats)), 0);
}

TEST(WireCodecTest, ErrorFramesCarryTheStatusAcrossTheWire) {
  const Status error = Status::NotFound("no open session 17");
  WireFrame frame = MustDecodeOne(EncodeErrorFrame(MsgType::kAdvance, error));
  EXPECT_EQ(frame.type, MsgType::kAdvance);
  EXPECT_FALSE(frame.ok());
  const Status back = frame.ToStatus();
  EXPECT_EQ(back.code(), error.code());
  EXPECT_EQ(back.message(), error.message());
  // Unknown status bytes must still come back as an error, never OK.
  frame.status = 0xEE;
  EXPECT_FALSE(frame.ToStatus().ok());
}

TEST(WireCodecTest, OneByteAtATimeReassemblesEveryFrame) {
  AdvanceRequest req;
  req.session_id = 77;
  req.max_steps = 5;
  std::string stream = EncodeOpenRequest({3}) + EncodeAdvanceRequest(req) +
                       EncodeStatsRequest() + EncodeCloseRequest({77});
  FrameDecoder decoder;
  std::vector<WireFrame> frames;
  for (char byte : stream) {
    decoder.Feed(&byte, 1);
    while (true) {
      WireFrame frame;
      auto next = decoder.Next(&frame);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!*next) break;
      frames.push_back(std::move(frame));
    }
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, MsgType::kOpen);
  EXPECT_EQ(frames[1].type, MsgType::kAdvance);
  EXPECT_EQ(frames[2].type, MsgType::kStats);
  EXPECT_EQ(frames[3].type, MsgType::kClose);
  auto adv = DecodeAdvanceRequest(frames[1].payload);
  ASSERT_TRUE(adv.ok());
  EXPECT_EQ(adv->session_id, 77u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireCodecTest, HostileHeadersAreRejectedWithStatus) {
  // Oversized length prefix: rejected at the header, before any payload
  // allocation.
  {
    FrameDecoder decoder;
    std::string hostile(kFrameHeaderBytes, '\0');
    const uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(hostile.data(), &huge, 4);
    hostile[4] = 1;  // valid type
    decoder.Feed(hostile);
    WireFrame frame;
    auto next = decoder.Next(&frame);
    EXPECT_FALSE(next.ok());
  }
  // Unknown message type.
  {
    FrameDecoder decoder;
    std::string hostile(kFrameHeaderBytes, '\0');
    hostile[4] = 9;
    decoder.Feed(hostile);
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  // Nonzero reserved bits.
  {
    FrameDecoder decoder;
    std::string hostile(kFrameHeaderBytes, '\0');
    hostile[4] = 2;
    hostile[6] = 1;
    decoder.Feed(hostile);
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  // A length exactly at the cap is structurally fine (payload validation
  // is the typed decoder's job) — header-level rejection must not
  // off-by-one it away.
  {
    FrameDecoder decoder;
    std::string frame_bytes =
        EncodeFrame(MsgType::kStats, 0, std::string(kMaxPayloadBytes, 'x'));
    decoder.Feed(frame_bytes);
    WireFrame frame;
    auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_TRUE(*next);
    EXPECT_EQ(frame.payload.size(), kMaxPayloadBytes);
  }
}

TEST(WireCodecTest, TypedDecodersRejectWrongSizes) {
  // Truncated payload.
  EXPECT_FALSE(DecodeOpenRequest("ab").ok());
  EXPECT_FALSE(DecodeAdvanceRequest("1234567").ok());
  EXPECT_FALSE(DecodeStatsResponse(std::string(10, '\0')).ok());
  // Trailing bytes are a protocol violation, not slack.
  EXPECT_FALSE(DecodeOpenRequest(std::string(5, '\0')).ok());
  EXPECT_FALSE(DecodeProgressRequest(std::string(9, '\0')).ok());
  // Zero-length where fields are required.
  EXPECT_FALSE(DecodeOpenRequest("").ok());
  EXPECT_FALSE(DecodeCloseRequest("").ok());
  // Advance step bounds: 0 and cap+1 rejected, cap accepted.
  AdvanceRequest req;
  req.max_steps = 0;
  {
    WireFrame f = MustDecodeOne(EncodeAdvanceRequest(req));
    EXPECT_FALSE(DecodeAdvanceRequest(f.payload).ok());
  }
  req.max_steps = kMaxAdvanceSteps + 1;
  {
    WireFrame f = MustDecodeOne(EncodeAdvanceRequest(req));
    EXPECT_FALSE(DecodeAdvanceRequest(f.payload).ok());
  }
  req.max_steps = kMaxAdvanceSteps;
  {
    WireFrame f = MustDecodeOne(EncodeAdvanceRequest(req));
    EXPECT_TRUE(DecodeAdvanceRequest(f.payload).ok());
  }
}

/// Field-by-field bit-exact comparison (memcmp on the doubles) — the
/// online loop replays ingested records, so any lossy transport would
/// silently skew training.
void ExpectRecordsBitIdentical(const PipelineRecord& got,
                               const PipelineRecord& want) {
  EXPECT_EQ(got.workload, want.workload);
  EXPECT_EQ(got.query, want.query);
  EXPECT_EQ(got.pipeline_id, want.pipeline_id);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(std::memcmp(&got.total_n, &want.total_n, sizeof(double)), 0);
  ASSERT_EQ(got.features.size(), want.features.size());
  ASSERT_EQ(got.l1.size(), want.l1.size());
  ASSERT_EQ(got.l2.size(), want.l2.size());
  EXPECT_EQ(std::memcmp(got.features.data(), want.features.data(),
                        want.features.size() * sizeof(double)),
            0);
  EXPECT_EQ(
      std::memcmp(got.l1.data(), want.l1.data(), want.l1.size() * sizeof(double)),
      0);
  EXPECT_EQ(
      std::memcmp(got.l2.data(), want.l2.data(), want.l2.size() * sizeof(double)),
      0);
}

TEST(WireCodecTest, IngestMessagesRoundTripBitExactly) {
  const std::vector<PipelineRecord> records = RandomRecords(3, 21);

  IngestRecordRequest single;
  single.record = records[0];
  single.record.workload = "loopback";
  single.record.query = "q-ingest";
  single.record.tag = "odd";
  WireFrame frame = MustDecodeOne(EncodeIngestRecordRequest(single));
  EXPECT_EQ(frame.type, MsgType::kIngestRecord);
  EXPECT_TRUE(frame.ok());
  auto decoded = DecodeIngestRecordRequest(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectRecordsBitIdentical(decoded->record, single.record);

  IngestBatchRequest batch;
  batch.records = records;
  frame = MustDecodeOne(EncodeIngestBatchRequest(batch));
  EXPECT_EQ(frame.type, MsgType::kIngestBatch);
  auto out = DecodeIngestBatchRequest(frame.payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->records.size(), batch.records.size());
  for (size_t i = 0; i < batch.records.size(); ++i) {
    ExpectRecordsBitIdentical(out->records[i], batch.records[i]);
  }

  IngestResponse resp;
  resp.accepted = 0xAABBCCDDu;
  resp.dropped = 0x11223344u;
  frame = MustDecodeOne(EncodeIngestResponse(MsgType::kIngestBatch, resp));
  EXPECT_EQ(frame.type, MsgType::kIngestBatch);
  auto ir = DecodeIngestResponse(frame.payload);
  ASSERT_TRUE(ir.ok());
  EXPECT_EQ(ir->accepted, resp.accepted);
  EXPECT_EQ(ir->dropped, resp.dropped);
}

TEST(WireCodecTest, IngestDecodersRejectHostileRecords) {
  const PipelineRecord valid = RandomRecords(1, 33)[0];
  IngestRecordRequest req;
  req.record = valid;
  const std::string good =
      MustDecodeOne(EncodeIngestRecordRequest(req)).payload;
  ASSERT_TRUE(DecodeIngestRecordRequest(good).ok());

  // Truncation anywhere in the record rejects — never a partial record.
  for (size_t cut : {size_t{0}, size_t{1}, good.size() / 2, good.size() - 1}) {
    EXPECT_FALSE(DecodeIngestRecordRequest(good.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  // Trailing bytes are a protocol violation, not slack.
  EXPECT_FALSE(DecodeIngestRecordRequest(good + '\0').ok());

  // A string field over the per-string cap.
  req.record = valid;
  req.record.workload.assign(kMaxIngestStringBytes + 1, 'w');
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());

  // Feature arity must match the schema exactly.
  req.record = valid;
  req.record.features.push_back(0.5);
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());

  // Level-vector arity must match the estimator table exactly.
  req.record = valid;
  req.record.l1.pop_back();
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());

  // Non-finite doubles never cross the wire into the trainer.
  req.record = valid;
  req.record.total_n = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());
  req.record = valid;
  req.record.features[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());
}

TEST(WireCodecTest, IngestBatchCountBoundsAreEnforced) {
  // count == 0: an empty batch is hostile, not a no-op.
  EXPECT_FALSE(DecodeIngestBatchRequest(std::string(4, '\0')).ok());

  // count over the batch cap rejects before any record is parsed.
  {
    std::string payload(4, '\0');
    const uint32_t over = kMaxIngestBatchRecords + 1;
    std::memcpy(payload.data(), &over, 4);
    EXPECT_FALSE(DecodeIngestBatchRequest(payload).ok());
  }

  // A count that lies about the record list in either direction rejects:
  // claiming more hits truncation, claiming fewer leaves trailing bytes.
  IngestBatchRequest batch;
  batch.records = RandomRecords(2, 5);
  std::string payload =
      MustDecodeOne(EncodeIngestBatchRequest(batch)).payload;
  ASSERT_TRUE(DecodeIngestBatchRequest(payload).ok());
  for (uint32_t lie : {3u, 1u}) {
    std::memcpy(payload.data(), &lie, 4);
    EXPECT_FALSE(DecodeIngestBatchRequest(payload).ok()) << "count " << lie;
  }
}

TEST(WireCodecTest, BusyErrorFramesMapToUnavailable) {
  WireFrame frame = MustDecodeOne(EncodeErrorFrame(
      MsgType::kIngestBatch, Status::Unavailable("server overloaded")));
  EXPECT_EQ(frame.type, MsgType::kIngestBatch);
  EXPECT_EQ(frame.status, kStatusBusy);
  EXPECT_FALSE(frame.ok());
  const Status back = frame.ToStatus();
  EXPECT_EQ(back.code(), StatusCode::kUnavailable);
  EXPECT_EQ(back.message(), "server overloaded");
}

TEST(WireCodecTest, DecoderCompactsItsBufferUnderSustainedTraffic) {
  // Push far more than the compaction threshold through one decoder; the
  // buffered tail must stay bounded by one frame, not grow with history.
  FrameDecoder decoder;
  const std::string frame_bytes = EncodeProgressRequest({123});
  for (int i = 0; i < 10000; ++i) {
    decoder.Feed(frame_bytes);
    WireFrame frame;
    auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok() && *next);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Loopback server

/// Minimal blocking client for the loopback tests (the production client
/// lives in tools/rpe_loadgen.cc; this one is deliberately tiny).
class TestClient {
 public:
  ~TestClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  bool SendRaw(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  Result<WireFrame> Receive() {
    while (true) {
      WireFrame frame;
      RPE_ASSIGN_OR_RETURN(bool complete, decoder_.Next(&frame));
      if (complete) return frame;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("recv failed");
      }
      if (n == 0) return Status::IOError("server closed the connection");
      decoder_.Feed(chunk, static_cast<size_t>(n));
    }
  }

  Result<WireFrame> Call(const std::string& request) {
    if (!SendRaw(request)) return Status::IOError("send failed");
    return Receive();
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

SelectorStack TrainSmallStack(const std::vector<PipelineRecord>& records,
                              uint64_t seed) {
  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  params.seed = seed;
  return SelectorStack::Train(records, PoolOriginalThree(), params);
}

class WireLoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeSmallCatalog().release();
    runs_ = new std::vector<QueryRunResult>();
    plans_ = new std::vector<std::unique_ptr<PhysicalPlan>>();
    AddRun(MakeTableScan("t_fact"));
    AddRun(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1));
    AddRun(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
    stack_ = std::make_shared<const SelectorStack>(
        TrainSmallStack(RandomRecords(80, 11), 7));
  }
  static void TearDownTestSuite() {
    delete runs_;
    delete plans_;
    delete catalog_;
    stack_.reset();
    runs_ = nullptr;
    plans_ = nullptr;
    catalog_ = nullptr;
  }

  static void AnnotateEstimates(PlanNode* node, double est) {
    node->est_rows = est;
    for (auto& c : node->children) AnnotateEstimates(c.get(), est * 0.8);
  }

  static void AddRun(std::unique_ptr<PlanNode> root) {
    AnnotateEstimates(root.get(), 1000.0);
    auto plan = FinalizePlan(std::move(root), *catalog_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans_->push_back(std::move(plan).ValueOrDie());
    auto result = ExecutePlan(*plans_->back(), *catalog_);
    ASSERT_TRUE(result.ok());
    runs_->push_back(std::move(result).ValueOrDie());
  }

  static std::vector<const QueryRunResult*> RunPtrs() {
    std::vector<const QueryRunResult*> out;
    for (const QueryRunResult& run : *runs_) out.push_back(&run);
    return out;
  }

  static Catalog* catalog_;
  static std::vector<QueryRunResult>* runs_;
  static std::vector<std::unique_ptr<PhysicalPlan>>* plans_;
  static std::shared_ptr<const SelectorStack> stack_;
};

Catalog* WireLoopbackTest::catalog_ = nullptr;
std::vector<QueryRunResult>* WireLoopbackTest::runs_ = nullptr;
std::vector<std::unique_ptr<PhysicalPlan>>* WireLoopbackTest::plans_ =
    nullptr;
std::shared_ptr<const SelectorStack> WireLoopbackTest::stack_;

TEST_F(WireLoopbackTest, AdvanceOverTheWireIsBitIdenticalToInProcess) {
  ShardedMonitorService::Options options;
  options.num_shards = 4;
  ShardedMonitorService service(stack_, options);
  TcpServer::Options server_options;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // In-process reference: one MonitorService over the same stack, stepped
  // one observation at a time.
  MonitorService reference(stack_);

  for (size_t r = 0; r < runs_->size(); ++r) {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));

    auto opened_frame = client.Call(EncodeOpenRequest(
        {static_cast<uint32_t>(r)}));
    ASSERT_TRUE(opened_frame.ok()) << opened_frame.status().ToString();
    ASSERT_TRUE(opened_frame->ok()) << opened_frame->ToStatus().ToString();
    auto opened = DecodeOpenResponse(opened_frame->payload);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened->run_index, r);
    EXPECT_EQ(opened->num_observations, (*runs_)[r].observations.size());

    auto ref_id = reference.OpenSession(&(*runs_)[r]);
    ASSERT_TRUE(ref_id.ok());

    // Step both walks one observation at a time; every progress value
    // must match bit for bit.
    AdvanceRequest step;
    step.session_id = opened->session_id;
    step.max_steps = 1;
    for (size_t obs = 0; obs < (*runs_)[r].observations.size(); ++obs) {
      auto frame = client.Call(EncodeAdvanceRequest(step));
      ASSERT_TRUE(frame.ok() && frame->ok());
      auto advanced = DecodeAdvanceResponse(frame->payload);
      ASSERT_TRUE(advanced.ok());
      ASSERT_EQ(advanced->steps, 1u);
      auto expected = reference.Advance(*ref_id);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(std::memcmp(&advanced->progress, &*expected,
                            sizeof(double)),
                0)
          << "run " << r << " observation " << obs
          << " diverges over the wire";
    }

    // Both sides are now exhausted: the wire advance reports done with 0
    // steps, the in-process advance returns OutOfRange.
    auto tail = client.Call(EncodeAdvanceRequest(step));
    ASSERT_TRUE(tail.ok() && tail->ok());
    auto done = DecodeAdvanceResponse(tail->payload);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->steps, 0u);
    EXPECT_EQ(done->done, 1);
    EXPECT_EQ(reference.Advance(*ref_id).status().code(),
              StatusCode::kOutOfRange);

    auto closed = client.Call(EncodeCloseRequest({opened->session_id}));
    ASSERT_TRUE(closed.ok() && closed->ok());
    ASSERT_TRUE(reference.CloseSession(*ref_id).ok());
  }
  server.Stop();
}

TEST_F(WireLoopbackTest, BatchedAdvanceMatchesSingleStepsAndReconciles) {
  ShardedMonitorService::Options options;
  options.num_shards = 4;
  ShardedMonitorService service(stack_, options);
  TcpServer::Options server_options;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  const auto expected = sequential.ReplayQueryProgress((*runs_)[0]);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto opened_frame = client.Call(EncodeOpenRequest({0}));
  ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
  auto opened = DecodeOpenResponse(opened_frame->payload);
  ASSERT_TRUE(opened.ok());

  // One big batched advance must land exactly at the end of the replay
  // with the final progress value of the sequential walk.
  AdvanceRequest big;
  big.session_id = opened->session_id;
  big.max_steps = kMaxAdvanceSteps;
  auto frame = client.Call(EncodeAdvanceRequest(big));
  ASSERT_TRUE(frame.ok() && frame->ok());
  auto advanced = DecodeAdvanceResponse(frame->payload);
  ASSERT_TRUE(advanced.ok());
  EXPECT_EQ(advanced->steps, expected.size());
  EXPECT_EQ(advanced->done, 1);
  EXPECT_EQ(std::memcmp(&advanced->progress, &expected.back(),
                        sizeof(double)),
            0);

  // Progress re-reads the resting value without stepping.
  auto progress_frame =
      client.Call(EncodeProgressRequest({opened->session_id}));
  ASSERT_TRUE(progress_frame.ok() && progress_frame->ok());
  auto progress = DecodeProgressResponse(progress_frame->payload);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->done, 1);

  auto closed = client.Call(EncodeCloseRequest({opened->session_id}));
  ASSERT_TRUE(closed.ok() && closed->ok());

  // Stats over the wire reconcile exactly with what this client did.
  auto stats_frame = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(stats_frame.ok() && stats_frame->ok());
  auto stats = DecodeStatsResponse(stats_frame->payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions_opened, 1u);
  EXPECT_EQ(stats->sessions_completed, 1u);
  EXPECT_EQ(stats->wire_sessions_opened, 1u);
  EXPECT_EQ(stats->wire_sessions_closed, 1u);
  EXPECT_EQ(stats->observations_scored, expected.size());
  EXPECT_EQ(stats->advance_steps, expected.size());
  server.Stop();
}

TEST_F(WireLoopbackTest, PipelinedFramesAnswerInFifoOrderPerConnection) {
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(stack_, options);
  TcpServer::Options server_options;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  constexpr size_t kConns = 2;
  constexpr uint32_t kFirstSteps = 3;
  TestClient clients[kConns];
  std::vector<double> reference[kConns];
  uint64_t sessions[kConns] = {};
  uint64_t total_steps = 0;
  for (size_t c = 0; c < kConns; ++c) {
    ASSERT_TRUE(clients[c].Connect(server.port()));
    reference[c] = sequential.ReplayQueryProgress((*runs_)[c]);
    ASSERT_GT(reference[c].size(), kFirstSteps);
    total_steps += reference[c].size();
    auto opened_frame =
        clients[c].Call(EncodeOpenRequest({static_cast<uint32_t>(c)}));
    ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
    auto opened = DecodeOpenResponse(opened_frame->payload);
    ASSERT_TRUE(opened.ok());
    sessions[c] = opened->session_id;
  }

  // Each connection pipelines its whole conversation in one send, and
  // both sends land before either reply is read, so the server decodes
  // several Advance frames from one read.
  for (size_t c = 0; c < kConns; ++c) {
    std::string burst = EncodeAdvanceRequest({sessions[c], kFirstSteps});
    burst += EncodeProgressRequest({sessions[c]});
    burst += EncodeAdvanceRequest({sessions[c], kMaxAdvanceSteps});
    burst += EncodeProgressRequest({sessions[c]});
    burst += EncodeCloseRequest({sessions[c]});
    ASSERT_TRUE(clients[c].SendRaw(burst));
  }

  auto bits_equal = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (size_t c = 0; c < kConns; ++c) {
    const std::vector<double>& ref = reference[c];
    std::vector<WireFrame> answers;
    for (int i = 0; i < 5; ++i) {
      auto frame = clients[c].Receive();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_TRUE(frame->ok()) << frame->ToStatus().ToString();
      answers.push_back(std::move(*frame));
    }
    // FIFO: the answers come back in request order.
    ASSERT_EQ(answers[0].type, MsgType::kAdvance);
    ASSERT_EQ(answers[1].type, MsgType::kProgress);
    ASSERT_EQ(answers[2].type, MsgType::kAdvance);
    ASSERT_EQ(answers[3].type, MsgType::kProgress);
    ASSERT_EQ(answers[4].type, MsgType::kClose);

    auto first = DecodeAdvanceResponse(answers[0].payload);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->steps, kFirstSteps);
    EXPECT_EQ(first->done, 0);
    EXPECT_TRUE(bits_equal(first->progress, ref[kFirstSteps - 1]));
    auto mid = DecodeProgressResponse(answers[1].payload);
    ASSERT_TRUE(mid.ok());
    EXPECT_EQ(mid->done, 0);
    EXPECT_TRUE(bits_equal(mid->progress, ref[kFirstSteps - 1]));

    auto rest = DecodeAdvanceResponse(answers[2].payload);
    ASSERT_TRUE(rest.ok());
    EXPECT_EQ(rest->steps, ref.size() - kFirstSteps);
    EXPECT_EQ(rest->done, 1);
    EXPECT_TRUE(bits_equal(rest->progress, ref.back()));
    auto last = DecodeProgressResponse(answers[3].payload);
    ASSERT_TRUE(last.ok());
    EXPECT_EQ(last->done, 1);
    EXPECT_TRUE(bits_equal(last->progress, ref.back()));
  }

  // Stats reconcile with exactly what the two conversations did.
  auto stats_frame = clients[0].Call(EncodeStatsRequest());
  ASSERT_TRUE(stats_frame.ok() && stats_frame->ok());
  auto stats = DecodeStatsResponse(stats_frame->payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions_opened, kConns);
  EXPECT_EQ(stats->sessions_completed, kConns);
  EXPECT_EQ(stats->wire_sessions_opened, kConns);
  EXPECT_EQ(stats->wire_sessions_closed, kConns);
  EXPECT_EQ(stats->observations_scored, total_steps);
  EXPECT_EQ(stats->advance_steps, total_steps);
  // Per connection: 1 open + 5 pipelined frames; plus this Stats request
  // (counted when decoded, before its own answer is sent).
  EXPECT_EQ(stats->frames_received, kConns * 6 + 1);
  EXPECT_EQ(stats->frames_sent, kConns * 6);
  EXPECT_EQ(stats->protocol_errors, 0u);
  EXPECT_EQ(stats->requests_shed, 0u);
  server.Stop();
}

TEST_F(WireLoopbackTest, ConcurrentClientsAcrossShardsStayIsolated) {
  ShardedMonitorService::Options options;
  options.num_shards = 4;
  ShardedMonitorService service(stack_, options);
  TcpServer::Options server_options;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // Per-run reference series, computed once.
  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  std::vector<std::vector<double>> reference;
  for (const QueryRunResult& run : *runs_) {
    reference.push_back(sequential.ReplayQueryProgress(run));
  }

  constexpr size_t kClients = 8;
  constexpr size_t kSessionsPerClient = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client;
      if (!client.Connect(server.port())) {
        ++failures;
        return;
      }
      for (size_t s = 0; s < kSessionsPerClient; ++s) {
        const size_t r = (c + s) % runs_->size();
        auto opened_frame =
            client.Call(EncodeOpenRequest({static_cast<uint32_t>(r)}));
        if (!opened_frame.ok() || !opened_frame->ok()) {
          ++failures;
          return;
        }
        auto opened = DecodeOpenResponse(opened_frame->payload);
        AdvanceRequest step;
        step.session_id = opened->session_id;
        step.max_steps = 7;  // uneven batches interleave across clients
        size_t taken = 0;
        while (true) {
          auto frame = client.Call(EncodeAdvanceRequest(step));
          if (!frame.ok() || !frame->ok()) {
            ++failures;
            return;
          }
          auto advanced = DecodeAdvanceResponse(frame->payload);
          taken += advanced->steps;
          if (advanced->done != 0) {
            // The final progress of every interleaved session must match
            // its sequential reference bit for bit.
            if (taken != reference[r].size() ||
                std::memcmp(&advanced->progress, &reference[r].back(),
                            sizeof(double)) != 0) {
              ++failures;
            }
            break;
          }
        }
        auto closed =
            client.Call(EncodeCloseRequest({opened->session_id}));
        if (!closed.ok() || !closed->ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const TcpServerStats stats = server.GetStats();
  EXPECT_EQ(stats.wire_sessions_opened, kClients * kSessionsPerClient);
  EXPECT_EQ(stats.wire_sessions_closed, kClients * kSessionsPerClient);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.Stop();
}

TEST_F(WireLoopbackTest, GarbageStreamsAreRejectedWithoutKillingTheServer) {
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(stack_, options);
  TcpServer::Options server_options;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // A stream of garbage bytes: the server answers with an error frame
  // and/or drops the connection — either way it keeps serving.
  {
    TestClient hostile;
    ASSERT_TRUE(hostile.Connect(server.port()));
    std::string garbage(256, '\xFF');
    ASSERT_TRUE(hostile.SendRaw(garbage));
    auto frame = hostile.Receive();
    // Either an error frame arrived before the drop, or the drop itself.
    if (frame.ok()) {
      EXPECT_FALSE(frame->ok());
    }
  }
  // Unknown session ids come back as clean error frames on a live
  // connection.
  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    auto frame = client.Call(EncodeAdvanceRequest({999999, 4}));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_FALSE(frame->ok());
    EXPECT_EQ(frame->ToStatus().code(), StatusCode::kNotFound);
    // The same connection still works for a real session afterwards.
    auto opened_frame = client.Call(EncodeOpenRequest({0}));
    ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
    auto opened = DecodeOpenResponse(opened_frame->payload);
    auto closed = client.Call(EncodeCloseRequest({opened->session_id}));
    ASSERT_TRUE(closed.ok() && closed->ok());
  }
  const TcpServerStats stats = server.GetStats();
  EXPECT_GE(stats.protocol_errors, 1u);
  server.Stop();
}

TEST_F(WireLoopbackTest, AbruptDisconnectClosesTheSessionsServerSide) {
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(stack_, options);
  TcpServer::Options server_options;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    auto opened_frame = client.Call(EncodeOpenRequest({0}));
    ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
    // Drop the connection with the session still open.
  }
  // The server notices the hangup and closes the orphaned session; poll
  // briefly (hangup delivery is asynchronous).
  for (int i = 0; i < 200 && service.num_open_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service.num_open_sessions(), 0u);
  const TcpServerStats stats = server.GetStats();
  EXPECT_EQ(stats.wire_sessions_opened, 1u);
  EXPECT_EQ(stats.wire_sessions_closed, 1u);
  server.Stop();
}

TEST_F(WireLoopbackTest, StopDrainsAndStartStopIsIdempotent) {
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(stack_, options);
  TcpServer::Options server_options;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.port(), 0);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto frame = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(frame.ok() && frame->ok());
  server.Stop();
  server.Stop();  // idempotent
  // After Stop, the port no longer accepts connections.
  TestClient late;
  EXPECT_FALSE(late.Connect(server.port()));
}

TEST_F(WireLoopbackTest, ClientClosingMidFlushDoesNotKillTheServer) {
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(stack_, options);
  TcpServer server(&service, RunPtrs(), TcpServer::Options{});
  ASSERT_TRUE(server.Start().ok());

  // Each client pipelines far more kMetricsDump responses than the socket
  // buffers hold, then closes without reading: the reset lands while the
  // server is still flushing, and its next send hits a dead socket. That
  // send must fail with EPIPE/ECONNRESET on the one connection, not raise
  // SIGPIPE and take the whole process down.
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += EncodeMetricsDumpRequest();
  for (int c = 0; c < 8; ++c) {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(client.SendRaw(burst));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    client.Close();
  }

  TestClient fresh;
  ASSERT_TRUE(fresh.Connect(server.port()));
  auto frame = fresh.Call(EncodeStatsRequest());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->ok());
  EXPECT_TRUE(DecodeStatsResponse(frame->payload).ok());
  server.Stop();
}

}  // namespace
}  // namespace rpe
