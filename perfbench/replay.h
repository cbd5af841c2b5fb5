// In-process replay of a traced pass, for the per-layer metrics.
//
// The operations a traced pass sent over the wire are replayed straight
// through the public layer calls, one span per call: the wire codec
// (FormatCommand / ParseCommand, FormatRunReply / ParseRunReply), the
// engine (PragueSession::AddEdge / DeleteEdge / Run, with the StepReport
// and RunStats phases as child spans), the pattern parser, index
// maintenance (AppendGraphs) and storage (StorageEngine::LogAppend /
// Checkpoint / Open). Replay is single-threaded, so the counts it reports
// repeat exactly for a given seed, and every replayed answer is compared
// with the one the server sent.

#ifndef PRAGUE_PERFBENCH_REPLAY_H_
#define PRAGUE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/database_snapshot.h"
#include "perfbench.h"
#include "wire_conn.h"
#include "workloads.h"

namespace prague::perfbench {

struct ReplayInput {
  const WorkloadSpec* spec = nullptr;
  const std::vector<Query>* pool = nullptr;
  /// The snapshot the traced pass's server started with.
  SnapshotPtr initial;
  const PassResult* pass = nullptr;
  /// append_mix: a fresh directory for the storage replay.
  std::string storage_dir;
};

struct ReplayOutput {
  /// Per-layer metrics; NaN where a percentile lacks the samples.
  MetricMap metrics;
  uint64_t mismatches = 0;  ///< replayed answers differing from the wire
};

ReplayOutput Replay(const ReplayInput& input, SpanLog* spans);

}  // namespace prague::perfbench

#endif  // PRAGUE_PERFBENCH_REPLAY_H_
