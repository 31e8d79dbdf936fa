#include "serving/monitor_service.h"

#include <chrono>

#include "common/logging.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
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

ServiceMetrics::ServiceMetrics(obs::MetricsRegistry* registry)
    : sessions_opened(registry->GetCounter("rpe_sessions_opened_total",
                                           "sessions opened")),
      sessions_completed(registry->GetCounter(
          "rpe_sessions_completed_total", "sessions completed")),
      decisions(registry->GetCounter("rpe_decisions_total", "decisions")),
      observations_scored(registry->GetCounter(
          "rpe_observations_scored_total", "observations scored")),
      scoring_ns(registry->GetCounter("rpe_scoring_time_nanoseconds_total")),
      replay_latency(registry->GetHistogram("rpe_replay_latency_seconds")) {}

double ServiceMetrics::ReplayLatencyMs(double q) const {
  return replay_latency->Snap().Quantile(q) / 1e6;
}

void ServiceMetrics::AppendDerived(uint64_t model_generation,
                                   std::vector<obs::Sample>* out) const {
  using obs::Sample;
  // Table-label ordering note: table_value() in the smoke/exit scripts
  // matches row labels by regex and takes the FIRST hit; "decisions" is an
  // owned counter, so it always precedes the "decisions/sec" row here.
  const double scoring_sec = static_cast<double>(scoring_ns->Value()) / 1e9;
  // Throughput over cumulative scoring time (accrued live at every
  // decision and observation step, so open or early-closed sessions are
  // counted): per-core rates comparable across thread counts.
  const auto per_sec = [scoring_sec](const obs::Counter* c) {
    return scoring_sec > 0.0 ? static_cast<double>(c->Value()) / scoring_sec
                             : 0.0;
  };
  out->push_back(Sample::GaugeSample("rpe_model_generation",
                                     static_cast<double>(model_generation),
                                     "model generation"));
  out->push_back(Sample::GaugeSample("rpe_replay_latency_p50_ms",
                                     ReplayLatencyMs(0.50),
                                     "p50 replay latency (ms)"));
  out->push_back(Sample::GaugeSample("rpe_replay_latency_p95_ms",
                                     ReplayLatencyMs(0.95),
                                     "p95 replay latency (ms)"));
  out->push_back(Sample::GaugeSample("rpe_decisions_per_sec",
                                     per_sec(decisions), "decisions/sec"));
  out->push_back(Sample::GaugeSample("rpe_observations_per_sec",
                                     per_sec(observations_scored),
                                     "observations/sec"));
  out->push_back(Sample::GaugeSample("rpe_scoring_time_seconds", scoring_sec));
}

MonitorService::Session::Session(std::shared_ptr<const SelectorStack> stack,
                                 const QueryRunResult* r, double marker_pct)
    : pinned(std::move(stack)),
      monitor(&pinned->static_selector, &pinned->dynamic_selector, marker_pct),
      run(r) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models)
    : MonitorService(std::move(models), Options()) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models,
                               Options options)
    : MonitorService(std::move(models), options, nullptr) {
  registry_->AddCollector([this](std::vector<obs::Sample>* out) {
    metrics_.AppendDerived(model_generation(), out);
  });
}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models,
                               Options options,
                               obs::MetricsRegistry* registry)
    : options_(options),
      own_registry_(registry == nullptr
                        ? std::make_unique<obs::MetricsRegistry>()
                        : nullptr),
      registry_(registry == nullptr ? own_registry_.get() : registry),
      metrics_(registry_),
      models_(std::move(models)) {
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
  session->elapsed_ns = NanosSince(start);
  metrics_.sessions_opened->Inc();
  metrics_.decisions->Inc(CountDecisions(session->decisions));
  metrics_.scoring_ns->Inc(session->elapsed_ns);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const SessionId id = next_id_++;
  sessions_.emplace(id, std::move(session));
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
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->next_obs >= s->run->observations.size()) {
    return Status::OutOfRange("session " + std::to_string(id) +
                              " replay complete");
  }
  const auto start = Clock::now();
  const double progress =
      s->monitor.QueryProgressAt(*s->run, s->decisions, s->next_obs);
  const uint64_t dt = NanosSince(start);
  ++s->next_obs;
  s->last_progress = progress;
  s->elapsed_ns += dt;
  metrics_.observations_scored->Inc();
  metrics_.scoring_ns->Inc(dt);
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
  if (s->next_obs >= s->run->observations.size()) {
    // Scoring time already accrued live (at open and per step); only the
    // completion and its latency sample are recorded here.
    metrics_.sessions_completed->Inc();
    metrics_.replay_latency->Record(s->elapsed_ns);
  }
  return Status::OK();
}

size_t MonitorService::num_open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

}  // namespace rpe
