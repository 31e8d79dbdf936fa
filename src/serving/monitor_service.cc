#include "serving/monitor_service.h"

#include <chrono>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t CountDecisions(
    const std::vector<ProgressMonitor::PipelineDecision>& decisions) {
  uint64_t n = 0;
  for (const auto& d : decisions) {
    n += 1 + (d.revised_choice.has_value() ? 1 : 0);
  }
  return n;
}

}  // namespace

MonitorService::Session::Session(std::shared_ptr<const SelectorStack> stack,
                                 const QueryRunResult* r, double marker_pct)
    : pinned(std::move(stack)),
      monitor(&pinned->static_selector, &pinned->dynamic_selector, marker_pct),
      run(r) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models)
    : MonitorService(std::move(models), Options()) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models,
                               Options options)
    : options_(options), models_(std::move(models)) {
  RPE_CHECK(models_ != nullptr);
}

uint64_t MonitorService::SwapModels(
    std::shared_ptr<const SelectorStack> models) {
  RPE_CHECK(models != nullptr);
  std::lock_guard<std::mutex> lock(models_mu_);
  models_ = std::move(models);
  return ++model_generation_;
}

std::shared_ptr<const SelectorStack> MonitorService::models() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return models_;
}

uint64_t MonitorService::model_generation() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return model_generation_;
}

void MonitorService::SetIngestStatsProvider(
    std::function<IngestStats()> provider) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  ingest_provider_ = std::move(provider);
}

Result<MonitorService::SessionId> MonitorService::OpenSession(
    const QueryRunResult* run) {
  if (run == nullptr) {
    return Status::InvalidArgument("OpenSession: null run");
  }
  const auto start = Clock::now();
  auto session = std::make_shared<Session>(models(), run,
                                           options_.revision_marker_pct);
  // The estimator decisions — the selector scoring — happen at open, once,
  // exactly as a live monitor decides when the query is admitted.
  session->decisions = session->monitor.DecideForRun(*run);
  session->elapsed_sec = SecondsSince(start);
  const double session_elapsed = session->elapsed_sec;
  const uint64_t decisions = CountDecisions(session->decisions);
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    id = next_id_++;
    sessions_.emplace(id, std::move(session));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++sessions_opened_;
    decisions_ += decisions;
    scoring_time_sec_ += session_elapsed;
  }
  return id;
}

Result<std::shared_ptr<MonitorService::Session>> MonitorService::Find(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no open session " + std::to_string(id));
  }
  return it->second;
}

Result<double> MonitorService::Advance(SessionId id) {
  // Parents to the wire request being advanced when the TCP front-end
  // set a TraceContext; one relaxed load when tracing is off.
  obs::TraceSpan span("advance.step", /*arg=*/id);
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  double progress = 0.0;
  double dt = 0.0;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->next_obs >= s->run->observations.size()) {
      return Status::OutOfRange("session " + std::to_string(id) +
                                " replay complete");
    }
    const auto start = Clock::now();
    progress = s->monitor.QueryProgressAt(*s->run, s->decisions, s->next_obs);
    dt = SecondsSince(start);
    ++s->next_obs;
    s->last_progress = progress;
    s->elapsed_sec += dt;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++observations_scored_;
  scoring_time_sec_ += dt;
  return progress;
}

Result<double> MonitorService::Progress(SessionId id) const {
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  std::lock_guard<std::mutex> lock(s->mu);
  return s->last_progress;
}

Result<bool> MonitorService::Done(SessionId id) const {
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  std::lock_guard<std::mutex> lock(s->mu);
  return s->next_obs >= s->run->observations.size();
}

void MonitorService::PushLatencyLocked(double latency_ms) {
  if (replay_latency_ms_.size() < kLatencyWindow) {
    replay_latency_ms_.push_back(latency_ms);
  } else {
    replay_latency_ms_[latency_next_] = latency_ms;  // overwrite the oldest
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  }
}

void MonitorService::RecordCompletion(const Session& s) {
  // Scoring time already accrued live (at open and per step); only the
  // completion latency sample and count are recorded here.
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++sessions_completed_;
  PushLatencyLocked(s.elapsed_sec * 1e3);
}

Status MonitorService::CloseSession(SessionId id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no open session " + std::to_string(id));
    }
    s = std::move(it->second);
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->next_obs >= s->run->observations.size()) RecordCompletion(*s);
  return Status::OK();
}

size_t MonitorService::num_open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

MonitorService::Stats MonitorService::GetStats(
    std::vector<double>* latency_samples) const {
  // The ingest provider is fetched and called outside the service locks:
  // it reaches into the TrainerLoop, which itself calls back into the
  // service (SwapModels), so holding stats_mu_ across it could deadlock.
  std::function<IngestStats()> provider;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    provider = ingest_provider_;
  }
  Stats stats;
  if (provider) stats.ingest = provider();
  stats.model_generation = model_generation();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats.sessions_opened = sessions_opened_;
  stats.sessions_completed = sessions_completed_;
  stats.decisions = decisions_;
  stats.observations_scored = observations_scored_;
  stats.p50_replay_ms = Percentile(replay_latency_ms_, 50.0);
  stats.p95_replay_ms = Percentile(replay_latency_ms_, 95.0);
  stats.scoring_time_sec = scoring_time_sec_;
  if (latency_samples != nullptr) *latency_samples = replay_latency_ms_;
  if (scoring_time_sec_ > 0.0) {
    // Throughput over cumulative scoring time (accrued live at every
    // decision and observation step, so open or early-closed sessions
    // are counted): per-core rates comparable across thread counts.
    stats.decisions_per_sec =
        static_cast<double>(decisions_) / scoring_time_sec_;
    stats.observations_per_sec =
        static_cast<double>(observations_scored_) / scoring_time_sec_;
  }
  return stats;
}

}  // namespace rpe
