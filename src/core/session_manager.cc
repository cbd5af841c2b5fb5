#include "core/session_manager.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <thread>

#include "core/shard_exec.h"

namespace prague {

SessionManager::SessionManager(SnapshotPtr initial,
                               PragueConfig default_config)
    : default_config_(default_config), current_(std::move(initial)) {
  if (default_config_.shards > 1) {
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    shard_pool_ =
        std::make_shared<ThreadPool>(std::min(default_config_.shards, hw));
  }
}

PragueConfig SessionManager::DefaultConfig() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_config_;
}

std::shared_ptr<ManagedSession> SessionManager::OpenWithDeadline(
    int64_t run_deadline_ms) {
  PragueConfig config = DefaultConfig();
  config.run_deadline_ms = run_deadline_ms;
  return Open(config);
}

void SessionManager::SetDefaultRunDeadlineMillis(int64_t ms) {
  std::lock_guard<std::mutex> lock(mu_);
  default_config_.run_deadline_ms = ms;
}

int64_t SessionManager::DefaultRunDeadlineMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_config_.run_deadline_ms;
}

std::shared_ptr<ManagedSession> SessionManager::Open(
    const PragueConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  PragueConfig wired = config;
  if (wired.shard_pool == nullptr) wired.shard_pool = shard_pool_;
  auto session = std::shared_ptr<ManagedSession>(new ManagedSession(
      next_session_id_++, current_, run_tally_, trace_ring_, wired));
  ++sessions_opened_;
  sessions_[session->id()] = session;
  // Lazy prune: drop registry entries whose sessions have closed.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    it = it->second.expired() ? sessions_.erase(it) : std::next(it);
  }
  return session;
}

SnapshotPtr SessionManager::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Status SessionManager::Publish(SnapshotPtr next) {
  if (next == nullptr) {
    return Status::InvalidArgument("cannot publish a null snapshot");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (next->version() <= current_->version()) {
    return Status::FailedPrecondition(
        "stale publish: version " + std::to_string(next->version()) +
        " does not exceed current version " +
        std::to_string(current_->version()));
  }
  current_ = std::move(next);
  ++snapshots_published_;
  obs::EngineMetrics::Get().snapshots_published_total->Increment();
  return Status::OK();
}

Result<MaintenanceReport> SessionManager::Append(
    std::vector<Graph> graphs, const MaintenanceOptions& options,
    const LabelDictionary* graph_labels) {
  // One writer at a time: without this, two concurrent appends would both
  // build successors of the same base and the second publish would lose
  // the first one's graphs.
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  SnapshotPtr base = current();

  // Durable mode captures the batch for the WAL before the graphs are
  // consumed. Node labels travel as names so replay re-interns them
  // deterministically whatever dictionary it starts from.
  storage::AppendPayload payload;
  if (storage_ != nullptr) {
    payload.options = options;
    payload.label_names =
        (graph_labels != nullptr ? *graph_labels : base->labels()).names();
    payload.graphs = graphs;
  }

  Result<SnapshotAppendResult> appended =
      AppendGraphs(*base, std::move(graphs), options, graph_labels);
  if (!appended.ok()) return appended.status();

  if (storage_ != nullptr) {
    // Log-then-publish: the record must be durable before any session can
    // observe the successor. A failure here leaves the published state
    // unchanged — the caller sees the error, nothing was acknowledged.
    payload.to_version = appended.value().report.to_version;
    PRAGUE_RETURN_NOT_OK(storage_->LogAppend(payload));
    last_append_alpha_ = options.alpha;
  }

  PRAGUE_RETURN_NOT_OK(Publish(appended.value().snapshot));
  return appended.value().report;
}

Result<MaintenanceReport> SessionManager::Append(
    std::vector<Graph> graphs, double alpha,
    const LabelDictionary* graph_labels) {
  MaintenanceOptions options;
  options.alpha = alpha;
  return Append(std::move(graphs), options, graph_labels);
}

void SessionManager::AttachStorage(
    std::shared_ptr<storage::StorageEngine> engine) {
  // Lock order everywhere is writer_mu_ → mu_ (Append takes writer_mu_
  // then reads current() under mu_). storage_ is read under either lock,
  // so the write holds both.
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  storage_ = std::move(engine);
  if (storage_ != nullptr) {
    // Until the first append, checkpoints re-record the α the persisted
    // index was built with.
    last_append_alpha_ = storage_->recovered().manifest.alpha;
  }
}

Status SessionManager::Checkpoint() {
  // writer_mu_ keeps a concurrent Append from publishing a version newer
  // than the one we checkpoint while the rotation is mid-flight.
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  if (storage_ == nullptr) {
    return Status::InvalidArgument("no storage engine attached");
  }
  return storage_->Checkpoint(*current(), last_append_alpha_);
}

SessionManagerStats SessionManager::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionManagerStats stats;
  stats.current_version = current_->version();
  stats.shards = ShardCount(default_config_.shards, current_->db().size());
  stats.sessions_opened = sessions_opened_;
  stats.snapshots_published = snapshots_published_;
  stats.runs_served = run_tally_->runs.Value();
  stats.runs_truncated = run_tally_->truncated.Value();
  const AdmissionStats admission = admission_.Stats();
  stats.runs_shed = admission.runs_shed;
  stats.tenants = admission.tenants;
  if (storage_ != nullptr) {
    const storage::StorageStats durability = storage_->Stats();
    stats.durable = true;
    stats.wal_bytes = durability.wal_bytes;
    stats.last_checkpoint_version = durability.last_checkpoint_version;
  }
  for (const auto& [id, weak] : sessions_) {
    if (std::shared_ptr<ManagedSession> session = weak.lock()) {
      ++stats.open_sessions;
      ++stats.sessions_by_version[session->version()];
      stats.open_session_infos.push_back({id, session->version()});
    }
  }
  std::sort(stats.open_session_infos.begin(), stats.open_session_infos.end(),
            [](const OpenSessionInfo& a, const OpenSessionInfo& b) {
              return a.id < b.id;
            });
  return stats;
}

}  // namespace prague
