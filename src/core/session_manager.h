// SessionManager — the concurrency layer PRAGUE's premise implies: many
// users formulating queries simultaneously against one shared indexed
// database.
//
// The manager holds the *current* DatabaseSnapshot. Open() pins whatever
// snapshot is current at that moment into a new ManagedSession; the
// session keeps querying that version for its whole life, no matter how
// many successors are published meanwhile. Append() builds a successor
// copy-on-write (index_maintenance.h) and Publish()es it with an atomic
// swap of the current pointer, so readers are never paused and writers
// never wait for readers. A retired snapshot frees itself when the last
// session pinning it drops — plain shared_ptr reference counting.
//
// Locking model:
//  - mu_ guards the current pointer and the session registry (short
//    critical sections only — pointer swaps and map updates).
//  - writer_mu_ serializes Append() calls so concurrent appends cannot
//    both build successors of the same base and lose one.
//  - Each ManagedSession carries its own mutex; With() is the only way to
//    reach the PragueSession inside, so one session is never driven from
//    two threads at once while distinct sessions proceed in parallel.

#ifndef PRAGUE_CORE_SESSION_MANAGER_H_
#define PRAGUE_CORE_SESSION_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/admission.h"
#include "core/prague_session.h"
#include "index/database_snapshot.h"
#include "index/index_maintenance.h"
#include "storage/storage_engine.h"
#include "util/result.h"

namespace prague {

/// \brief A PragueSession plus the mutex that makes it safe to drive from
/// the manager's multi-threaded callers. Created by SessionManager::Open.
class ManagedSession {
 public:
  /// \brief Runs \p fn with exclusive access to the underlying session.
  /// All interaction with the session goes through here.
  template <typename Fn>
  auto With(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::forward<Fn>(fn)(session_);
  }

  /// \brief Requests cancellation of whatever the session is doing.
  /// Deliberately does NOT take mu_: the whole point is to stop a Run()
  /// already executing inside another thread's With(). The token is
  /// checked cooperatively, so the running call returns promptly with a
  /// truncated result (or Status::DeadlineExceeded for formulation
  /// steps) rather than being interrupted mid-write.
  void Cancel() { token_.RequestStop(); }
  /// \brief Re-arms the session after a Cancel() so later calls run
  /// normally. Call between With() uses, not concurrently with one.
  void ResetCancellation() { token_.Reset(); }
  /// \brief Whether Cancel() has been requested since the last reset.
  bool cancelled() const { return token_.StopRequested(); }

  ~ManagedSession() { obs::EngineMetrics::Get().sessions_open->Add(-1); }

  /// \brief Manager-assigned session id (monotone per manager).
  uint64_t id() const { return id_; }
  /// \brief Version of the snapshot this session pinned at Open() time.
  uint64_t version() const { return snap_->version(); }
  /// \brief The pinned snapshot.
  const SnapshotPtr& snapshot() const { return snap_; }

 private:
  friend class SessionManager;
  ManagedSession(uint64_t id, SnapshotPtr snap,
                 std::shared_ptr<obs::RunTally> tally,
                 std::shared_ptr<obs::TraceRing> traces,
                 const PragueConfig& config)
      : id_(id), snap_(std::move(snap)), tally_(std::move(tally)),
        traces_(std::move(traces)),
        session_(snap_, WireConfig(config, &token_, id_, tally_.get(),
                                   traces_.get())) {
    obs::EngineMetrics& em = obs::EngineMetrics::Get();
    em.sessions_opened_total->Increment();
    em.sessions_open->Add(1);
  }

  // The session keeps pointers to token_/tally_/traces_, so those must be
  // declared before session_ (construction order) and the config must be
  // rewired to point at this instance's members rather than whatever the
  // caller had. Shared ownership of the tally and trace ring lets a
  // session outlive its manager safely.
  static PragueConfig WireConfig(PragueConfig config,
                                 const CancellationToken* token, uint64_t id,
                                 obs::RunTally* tally,
                                 obs::TraceRing* traces) {
    config.cancellation = token;
    config.session_tag = id;
    config.run_tally = tally;
    config.trace_ring = traces;
    return config;
  }

  uint64_t id_;
  SnapshotPtr snap_;
  std::shared_ptr<obs::RunTally> tally_;
  std::shared_ptr<obs::TraceRing> traces_;
  std::mutex mu_;
  CancellationToken token_;
  PragueSession session_;
};

/// \brief One live session as reported by Stats(): the manager-assigned
/// id and the snapshot version it pinned at Open() time.
struct OpenSessionInfo {
  uint64_t id = 0;
  uint64_t version = 0;

  bool operator==(const OpenSessionInfo&) const = default;
};

/// \brief Point-in-time view of the manager (Stats()).
struct SessionManagerStats {
  uint64_t current_version = 0;
  /// Shards a default-config run over the current snapshot splits into
  /// (1 = every run inline). Served over the wire by STATS.
  size_t shards = 1;
  size_t open_sessions = 0;
  uint64_t sessions_opened = 0;
  uint64_t snapshots_published = 0;
  /// Run() calls completed across all sessions this manager ever opened
  /// (closed sessions included — the shared RunTally outlives them).
  uint64_t runs_served = 0;
  /// Of those, runs cut short by a deadline or cancellation.
  uint64_t runs_truncated = 0;
  /// Runs shed by admission control (BUSY on the wire) instead of queued.
  uint64_t runs_shed = 0;
  /// Tenants (connection groups) the admission controller is tracking.
  size_t tenants = 0;
  /// True when a StorageEngine is attached (durable mode).
  bool durable = false;
  /// WAL bytes accumulated since the last checkpoint (0 when not durable).
  uint64_t wal_bytes = 0;
  /// Snapshot version of the live segment (0 when not durable).
  uint64_t last_checkpoint_version = 0;
  /// Live sessions grouped by the version they pinned — shows how many
  /// readers each retained snapshot is still serving.
  std::map<uint64_t, size_t> sessions_by_version;
  /// Every live session individually (ascending id) — what an operator
  /// needs to see which session is holding an old snapshot alive. Also
  /// served over the wire by the STATS command (src/server/wire.h).
  std::vector<OpenSessionInfo> open_session_infos;
};

/// \brief Opens concurrent sessions over a shared, versioned database.
class SessionManager {
 public:
  /// \brief Starts with \p initial as the current snapshot. \p
  /// default_config is used by the zero-argument Open(). A default config
  /// with shards > 1 turns on shared sharded execution: the manager keeps
  /// one shard pool and wires it into every session it opens that has no
  /// pool of its own, so N sessions don't build N pools.
  explicit SessionManager(SnapshotPtr initial,
                          PragueConfig default_config = PragueConfig());

  /// \brief Opens a session pinned to the snapshot current right now.
  std::shared_ptr<ManagedSession> Open() { return Open(DefaultConfig()); }
  /// \brief Opens a session with an explicit config.
  std::shared_ptr<ManagedSession> Open(const PragueConfig& config);
  /// \brief Opens a session with the default config but an explicit Run()
  /// budget (overrides the manager-wide default for this session only).
  std::shared_ptr<ManagedSession> OpenWithDeadline(int64_t run_deadline_ms);

  /// \brief Sets the default Run() budget (milliseconds, 0 = unbounded)
  /// applied to sessions opened after this call via Open() /
  /// OpenWithDeadline(). Already-open sessions are unaffected.
  void SetDefaultRunDeadlineMillis(int64_t ms);
  /// \brief The current manager-wide default Run() budget.
  int64_t DefaultRunDeadlineMillis() const;

  /// \brief The snapshot new sessions would pin right now.
  SnapshotPtr current() const;

  /// \brief Atomically swaps the current snapshot to \p next. Rejects
  /// stale publishes (next->version() must exceed the current version).
  /// In-flight sessions are unaffected.
  Status Publish(SnapshotPtr next);

  /// \brief Copy-on-write append: builds a successor of the current
  /// snapshot with \p graphs added and publishes it. Serialized against
  /// concurrent Append() calls; never blocks Open() or running sessions
  /// for the duration of the index update. See index_maintenance.h for
  /// \p graph_labels.
  ///
  /// With a StorageEngine attached the append is log-then-publish: the
  /// WAL record is fsync-durable before the successor becomes visible, so
  /// a crash never loses an acknowledged append (a record written but not
  /// yet published simply replays on recovery).
  Result<MaintenanceReport> Append(std::vector<Graph> graphs,
                                   const MaintenanceOptions& options,
                                   const LabelDictionary* graph_labels =
                                       nullptr);

  /// \brief Detection-only convenience overload (no reclassification).
  Result<MaintenanceReport> Append(std::vector<Graph> graphs, double alpha,
                                   const LabelDictionary* graph_labels =
                                       nullptr);

  /// \brief Makes this manager durable: appends log to \p engine's WAL
  /// before publishing. Call once, before serving (typically with the
  /// snapshot recovered from the same engine as \p initial).
  void AttachStorage(std::shared_ptr<storage::StorageEngine> engine);
  /// \brief The attached engine, or null when running in-memory.
  const std::shared_ptr<storage::StorageEngine>& storage() const {
    return storage_;
  }

  /// \brief Checkpoints the current snapshot into the attached engine
  /// (new segment, truncated WAL). InvalidArgument when no engine is
  /// attached. Serialized against Append().
  Status Checkpoint();

  /// \brief Counters plus live sessions grouped by pinned version.
  SessionManagerStats Stats() const;

  /// \brief Sets the per-tenant admission limits (see core/admission.h).
  /// Default-constructed options admit everything. Safe to call while
  /// serving; new limits apply from the next decision.
  void ConfigureAdmission(const AdmissionOptions& options) {
    admission_.Configure(options);
  }
  /// \brief The admission controller the serving path consults before a
  /// run body reaches any pool. Always present; unlimited unless
  /// ConfigureAdmission was called.
  AdmissionController& admission() { return admission_; }

  /// \brief Recent RunTraces across all of this manager's sessions
  /// (bounded ring; see obs/trace.h).
  const obs::TraceRing& traces() const { return *trace_ring_; }
  /// \brief Mutable ring, for embedders that add synthetic traces (the
  /// stall watchdog's incident records land here).
  obs::TraceRing& mutable_traces() { return *trace_ring_; }

 private:
  // Snapshot of default_config_ under mu_ (it is mutable via
  // SetDefaultRunDeadlineMillis).
  PragueConfig DefaultConfig() const;

  PragueConfig default_config_;

  // Guards current_, sessions_, and default_config_.
  mutable std::mutex mu_;
  SnapshotPtr current_;
  // One pool shared by every session's shard tasks (each run waits only on
  // its own TaskGroup); null when sharding is off. shared_ptr: sessions
  // may outlive the manager.
  std::shared_ptr<ThreadPool> shard_pool_;
  // Registry of open sessions for Stats(); weak so a dropped session
  // releases its snapshot pin immediately. Dead entries are pruned lazily.
  std::unordered_map<uint64_t, std::weak_ptr<ManagedSession>> sessions_;
  uint64_t next_session_id_ = 1;
  uint64_t sessions_opened_ = 0;
  uint64_t snapshots_published_ = 0;
  // Shared with every ManagedSession (shared_ptr) so per-run accounting
  // and traces survive both session teardown and manager teardown.
  std::shared_ptr<obs::RunTally> run_tally_ =
      std::make_shared<obs::RunTally>();
  std::shared_ptr<obs::TraceRing> trace_ring_ =
      std::make_shared<obs::TraceRing>();
  // Per-tenant quotas and rate limits; internally synchronized, so it sits
  // outside mu_ and a shed decision never contends with Open()/Publish().
  AdmissionController admission_;

  // Durable mode. Set once by AttachStorage before serving; the engine is
  // internally synchronized, and writer_mu_ already serializes the
  // log-then-publish sequence. last_append_alpha_ (guarded by writer_mu_)
  // is the α recorded in the manifest at the next Checkpoint().
  std::shared_ptr<storage::StorageEngine> storage_;
  double last_append_alpha_ = 0.1;

  std::mutex writer_mu_;  // serializes Append() and Checkpoint()
};

}  // namespace prague

#endif  // PRAGUE_CORE_SESSION_MANAGER_H_
