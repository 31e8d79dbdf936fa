#include "serving/shard_router.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace rpe {
namespace {

/// splitmix64 finalizer: uniform shard spread from a monotone ticket
/// without any cross-session coordination.
uint64_t HashTicket(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedMonitorService::ShardedMonitorService(
    std::shared_ptr<const SelectorStack> models, Options options) {
  RPE_CHECK_GE(options.num_shards, 1u);
  RPE_CHECK(models != nullptr);
  MonitorService::Options shard_options;
  shard_options.revision_marker_pct = options.revision_marker_pct;
  shards_.reserve(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    // The shard constructor is private (ShardedMonitorService is a
    // friend), so no make_unique.
    shards_.push_back(std::unique_ptr<MonitorService>(
        new MonitorService(models, shard_options, &registry_)));
  }
  registry_.GetGauge("rpe_shards", "shards")
      ->Set(static_cast<double>(shards_.size()));
  registry_.AddCollector([this](std::vector<obs::Sample>* out) {
    metrics_.AppendDerived(model_generation(), out);
    for (size_t i = 0; i < shards_.size(); ++i) {
      out->push_back(obs::Sample::GaugeSample(
          "rpe_shard_sessions_open",
          static_cast<double>(shards_[i]->num_open_sessions()), "",
          "shard=\"" + std::to_string(i) + "\""));
    }
  });
}

uint64_t ShardedMonitorService::SwapModels(
    std::shared_ptr<const SelectorStack> models) {
  RPE_CHECK(models != nullptr);
  // One router lock serializes publishes: every shard steps to the same
  // new generation before any other publish can interleave.
  std::lock_guard<std::mutex> lock(swap_mu_);
  uint64_t generation = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t g = shards_[s]->SwapModels(models);
    if (s == 0) {
      generation = g;
    } else {
      // All shards are constructed together and only swapped here, so
      // their generation counters move in lockstep.
      RPE_CHECK_EQ(g, generation);
    }
  }
  return generation;
}

uint64_t ShardedMonitorService::model_generation() const {
  uint64_t min_gen = shards_[0]->model_generation();
  for (size_t s = 1; s < shards_.size(); ++s) {
    min_gen = std::min(min_gen, shards_[s]->model_generation());
  }
  return min_gen;
}

Result<ShardedMonitorService::SessionId> ShardedMonitorService::OpenSession(
    const QueryRunResult* run) {
  return OpenSessionOnShard(
      run, HashTicket(open_ticket_.fetch_add(1)) % shards_.size());
}

Result<ShardedMonitorService::SessionId>
ShardedMonitorService::OpenSessionOnShard(const QueryRunResult* run,
                                          size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument(
        "OpenSessionOnShard: shard " + std::to_string(shard) +
        " out of range (have " + std::to_string(shards_.size()) + ")");
  }
  RPE_ASSIGN_OR_RETURN(SessionId local, shards_[shard]->OpenSession(run));
  // local >= 1, so global ids never collide across shards and id 0 stays
  // invalid. ShardOf/LocalId invert this encoding.
  return local * shards_.size() + shard;
}

Result<double> ShardedMonitorService::Advance(SessionId id) {
  return shards_[ShardOf(id)]->Advance(LocalId(id));
}

Result<double> ShardedMonitorService::Progress(SessionId id) const {
  return shards_[ShardOf(id)]->Progress(LocalId(id));
}

Result<bool> ShardedMonitorService::Done(SessionId id) const {
  return shards_[ShardOf(id)]->Done(LocalId(id));
}

Status ShardedMonitorService::CloseSession(SessionId id) {
  return shards_[ShardOf(id)]->CloseSession(LocalId(id));
}

size_t ShardedMonitorService::num_open_sessions() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->num_open_sessions();
  return n;
}

}  // namespace rpe
