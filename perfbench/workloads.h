// The four workloads, the deployment they run against, and their frozen
// constants.
//
// Every workload builds the same kind of deployment praguedb serve does:
// a SessionManager over the mined, indexed AIDS-like database (optionally
// durable), a stall watchdog, and a PragueServer with default options. Load
// comes from this process over loopback: at most four client threads, each
// owning one connection at a time.

#ifndef PRAGUE_PERFBENCH_WORKLOADS_H_
#define PRAGUE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session_manager.h"
#include "graph/graph_database.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "perfbench.h"
#include "server/prague_server.h"
#include "storage/storage_engine.h"
#include "wire_conn.h"

namespace prague::perfbench {

// ---- Constants shared by all workloads (frozen: changing one changes what
// every earlier result means).
inline constexpr uint64_t kDatabaseSeed = 2012;
inline constexpr uint64_t kPoolSeed = 73;
inline constexpr double kAlpha = 0.1;            // mining ratio α
inline constexpr size_t kBeta = 4;               // A2F size threshold β
inline constexpr size_t kMaxFragmentEdges = 8;   // mining growth cap
inline constexpr int kSigma = 3;                 // server default σ
inline constexpr size_t kSetupRepeats = 3;       // setup_s = median of these
inline constexpr size_t kCheckThreads = 4;
/// append_mix: APPENDs of four graphs per run (smoke: a handful).
inline constexpr size_t kAppendBatches = 256;
inline constexpr size_t kSmokeAppendBatches = 8;
/// Sessions (or arrivals) of a traced run replayed through the layer APIs.
inline constexpr size_t kReplayCap = 2500;

// ---- Open-loop (oneshot) constants.
/// The latency limit a rate step must meet, from due time. Below ~20 ms
/// the p90 of a one-second step is set by head-of-line blocking behind a
/// few heavy similarity queries and the crossing rate does not repeat run
/// to run; at 20 ms it tracks the rate where the backlog starts to grow.
inline constexpr double kOneshotLimitPercentile = 0.90;
inline constexpr double kOneshotLimitMs = 20.0;
inline constexpr double kOneshotStepGrowth = 1.122462048309373;  // 2^(1/6)
inline constexpr double kOneshotFirstStepSeconds = 3.0;
inline constexpr double kOneshotStepSeconds = 1.0;
inline constexpr size_t kOneshotConnections = 4;

enum class Kind { kFormulate, kSimilar, kAppendMix, kOneshot };

/// \brief One workload's frozen shape.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  size_t graphs;               ///< |D| at set-up
  size_t containment_queries;  ///< pool: 4-8 edges, sampled from D
  size_t similarity_queries;   ///< pool: 6-8 edges, 1-3 label mutations
  size_t clients;              ///< closed-loop clients (readers for append)
  uint32_t runs_per_session;
  bool modify;                 ///< one session in four deletes + re-adds
  bool durable;                ///< data dir, fsync on
  double r0;                   ///< oneshot: first offered rate (1/s)
};

/// \brief All workloads, in the order `--workload=all` runs them.
const std::vector<WorkloadSpec>& Workloads();

/// \brief Smoke-test variant of \p spec: |D| = 200, small pools.
WorkloadSpec SmokeSpec(const WorkloadSpec& spec);

/// \brief Builds the query pool of \p spec. The pool is frozen (kPoolSeed);
/// --seed drives which pool queries the clients draw and in what order
/// they formulate them.
Result<std::vector<Query>> MakePool(const GraphDatabase& db,
                                    const WorkloadSpec& spec);

/// \brief Set-up phases of one deployment, in seconds.
struct SetupTimes {
  double mine_s = 0;
  double build_s = 0;      ///< index build + snapshot
  double bootstrap_s = 0;  ///< durable only
  double start_s = 0;      ///< manager + server start
  double total_s = 0;
};

/// \brief A running server deployment. Destruction stops the server, then
/// the watchdog, then drops the manager and the storage engine.
class Deployment {
 public:
  /// \brief Mines \p db, builds indexes and a snapshot, bootstraps
  /// \p data_dir when non-empty (it must not exist yet), and starts the
  /// server. Fills \p times.
  static Result<std::unique_ptr<Deployment>> Start(
      const GraphDatabase& db, const std::string& data_dir, SetupTimes* times);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  uint16_t port() const { return server_->port(); }
  storage::StorageEngine* engine() { return engine_.get(); }
  /// The snapshot the server started with.
  const SnapshotPtr& initial() const { return initial_; }

 private:
  Deployment() = default;

  SnapshotPtr initial_;
  std::shared_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<PragueServer> server_;
};

/// \brief What one offered-rate step of the open loop measured.
struct RateStep {
  double rate = 0;
  double seconds = 0;
  std::vector<double> due_ms;   ///< reply time minus due time
  std::vector<double> send_ms;  ///< reply time minus send time
  uint64_t errors = 0;
  double limit_ms = 0;  ///< due_ms at kOneshotLimitPercentile
  bool pass = false;
};

/// \brief Everything one timed phase produced.
struct PassResult {
  Tally tally;
  double wall_s = 0;           ///< timed phase (closed loops)
  double appender_wall_s = 0;  ///< append_mix: first send to last ack
  std::vector<SessionRecord> sessions;  ///< grouped by client, in order
  std::vector<ArrivalRecord> arrivals;  ///< oneshot, in schedule order
  /// append_mix: acknowledged batches (pattern texts) and their versions.
  std::vector<std::vector<std::string>> append_batches;
  std::vector<uint64_t> append_versions;
  std::vector<RateStep> steps;  ///< oneshot sweep
  std::vector<double> late_ms;  ///< oneshot: send delay with an idle conn
  double max_qps = 0;
  obs::RegistrySnapshot registry_before;
  obs::RegistrySnapshot registry_after;
  storage::StorageStats storage_before;
  storage::StorageStats storage_after;
};

/// \brief Inputs of one timed phase.
struct PassInput {
  const WorkloadSpec* spec = nullptr;
  const GraphDatabase* db = nullptr;
  const std::vector<Query>* pool = nullptr;
  /// append_mix: the batches of data-graph pattern texts to APPEND.
  const std::vector<std::vector<std::string>>* append_plan = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  /// One log per client thread; empty = untraced.
  std::vector<std::unique_ptr<SpanLog>>* spans = nullptr;
};

/// \brief Drives \p input's workload against \p deployment.
PassResult RunPass(Deployment& deployment, const PassInput& input);

/// \brief append_mix: \p count batches of four seeded connected subgraphs
/// of molecules in \p db, rendered as pattern text.
std::vector<std::vector<std::string>> MakeAppendPlan(const GraphDatabase& db,
                                                     uint64_t seed,
                                                     size_t count);

}  // namespace prague::perfbench

#endif  // PRAGUE_PERFBENCH_WORKLOADS_H_
