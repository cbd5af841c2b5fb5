// Types shared by the benchmark's workload drivers, answer checker and
// in-process replay.
//
// A workload's timed phase drives an in-process PragueServer over loopback
// and records, per wire session, which query ran, the snapshot version its
// OPEN pinned, and a digest of every answer. The records feed two later
// consumers: the index-free answer check (reference.h) and, in a traced
// run, the replay of the same operations through the layer APIs
// (replay.h).

#ifndef PRAGUE_PERFBENCH_PERFBENCH_H_
#define PRAGUE_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/results.h"
#include "graph/graph.h"

namespace prague::perfbench {

/// \brief Nanoseconds on the steady clock since the first call.
int64_t NowNs();

/// \brief One query of a workload's pool.
struct Query {
  Graph graph;
  /// Drawn as a similarity query (label-mutated, no exact match in the
  /// initial database).
  bool similarity = false;
  /// Pattern text for BATCH_RUN members (query/pattern_parser.h syntax).
  std::string pattern;
};

/// \brief Order-independent digest of one answer: the mode plus the sorted
/// graph ids (exact) or sorted (graph id, distance) pairs (similar).
uint64_t AnswerDigest(bool similarity, std::vector<GraphId> exact,
                      std::vector<SimilarMatch> similar);

/// \brief One wire session as driven, for checks and replay.
struct SessionRecord {
  uint32_t client = 0;
  /// Process-unique connection number; with the wire `#id` it names a
  /// request in the span file.
  uint32_t conn = 0;
  uint32_t query = 0;
  /// Formulation order of the query's edge ids (prefix-connected).
  std::vector<EdgeId> order;
  /// The paper's Modify action: delete the last edge, then re-add it.
  bool modify = false;
  uint32_t runs = 0;
  /// Snapshot version the OPEN reply pinned.
  uint64_t version = 0;
  /// One digest per RUN reply received (truncated replies are failures
  /// and carry no digest).
  std::vector<uint64_t> digests;
};

/// \brief One BATCH_RUN arrival of the open-loop workload.
struct ArrivalRecord {
  uint32_t conn = 0;
  uint64_t wire_id = 0;
  uint32_t query = 0;
  bool answered = false;
  uint64_t digest = 0;
};

/// \brief Latency samples and counts gathered by one client thread.
struct Tally {
  std::vector<double> step_ms;     ///< ADD_EDGE / DELETE_EDGE round trips
  std::vector<double> run_ms;      ///< RUN round trips
  std::vector<double> append_ms;   ///< APPEND round trips
  /// Round trip minus the reply's srt_ms, per RUN (or BATCH_RUN).
  std::vector<double> outside_engine_us;
  uint64_t attempted = 0;  ///< wire requests sent (or due, open loop)
  uint64_t failed = 0;     ///< ERR, BUSY, transport failure, truncated
  uint64_t sessions = 0;   ///< sessions that reached CLOSE
  uint64_t runs = 0;       ///< RUN replies received
  uint64_t appends = 0;    ///< APPENDs acknowledged

  void Merge(const Tally& other);
};

/// \brief Metric name → value, in print order per map ordering.
using MetricMap = std::map<std::string, double>;

}  // namespace prague::perfbench

#endif  // PRAGUE_PERFBENCH_PERFBENCH_H_
