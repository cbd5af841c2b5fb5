// Per-run tracing: RAII spans over the phases of a Run(), collected into a
// RunTrace, kept in a bounded ring of recent runs.
//
// A RunTrace is the paper's latency story for one query: how the SRT
// decomposes into SPIG build (Algorithm 2, paid at formulation time),
// candidate derivation (Algorithm 4), exact verification, and similarity
// generation (Algorithm 5), plus the search-effort counters and the
// deadline outcome. Metrics (obs/metrics.h) aggregate the same quantities
// across runs; a trace keeps them per run so a slow-query log entry or an
// operator can see *which* phase ate the budget.
//
// Tracing is not a hot path: a trace is built once per Run() (which does
// milliseconds of work) and may allocate; the zero-allocation constraint
// applies to metric recording only.

#ifndef PRAGUE_OBS_TRACE_H_
#define PRAGUE_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/stopwatch.h"

namespace prague::obs {

/// \brief One timed phase inside a run. The name must be a string literal
/// (spans never own storage).
struct SpanRecord {
  const char* name = "";
  double seconds = 0;
  /// Shard ordinal for per-shard phase spans of a sharded run; -1 for the
  /// ordinary whole-run spans. Kept as a field (not baked into the name)
  /// because names must stay literals.
  int shard = -1;

  bool operator==(const SpanRecord&) const = default;
};

/// \brief The phase breakdown and outcome of one Run().
struct RunTrace {
  uint64_t session_tag = 0;      ///< owner-stamped id (0 = unmanaged)
  uint64_t snapshot_version = 0; ///< pinned snapshot version
  uint64_t run_ordinal = 0;      ///< 1-based Run() count within the session
  size_t query_edges = 0;        ///< |q| at Run() time
  bool similarity = false;       ///< similarity-mode results
  bool truncated = false;        ///< a deadline/cancel cut the run
  const char* deadline_phase = "none";  ///< RunPhaseName of the cut
  double srt_seconds = 0;        ///< total Run() wall time
  size_t result_count = 0;       ///< matches returned
  uint64_t vf2_calls = 0;        ///< SimVerify VF2 searches (signature passed)
  uint64_t nodes_expanded = 0;   ///< search expansion steps, all phases
  uint64_t candidates_pruned = 0;  ///< candidates verification rejected
  /// Phase spans in execution order. Formulation-time work (SPIG builds,
  /// candidate refreshes) appears as cumulative "formulation-*" spans so a
  /// trace shows the full PRAGUE split: work hidden in GUI latency vs SRT.
  std::vector<SpanRecord> spans;

  /// \brief Single greppable line for the slow-query log.
  std::string ToString() const;

  /// \brief One JSON object (no trailing newline) for the HTTP `/tracez`
  /// endpoint: the same fields as ToString() plus the span array.
  std::string ToJson() const;
};

/// \brief RAII phase timer: times its scope and appends a SpanRecord to
/// the trace on Stop() or destruction.
class TraceSpan {
 public:
  /// \p trace may be null (span becomes a plain stopwatch); \p name must
  /// be a string literal.
  TraceSpan(RunTrace* trace, const char* name)
      : trace_(trace), name_(name) {}
  ~TraceSpan() {
    if (!stopped_) Stop();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// \brief Ends the span now, appends its record, and returns the elapsed
  /// seconds. Idempotent.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      seconds_ = timer_.ElapsedSeconds();
      if (trace_ != nullptr) trace_->spans.push_back({name_, seconds_});
    }
    return seconds_;
  }

 private:
  RunTrace* trace_;
  const char* name_;
  Stopwatch timer_;
  bool stopped_ = false;
  double seconds_ = 0;
};

/// \brief Bounded ring of the most recent RunTraces. Mutex-protected —
/// Add() happens once per Run(), never inside a search loop. Shared by all
/// sessions of one SessionManager.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// \brief Appends \p trace, evicting the oldest once full.
  void Add(RunTrace trace);

  /// \brief The retained traces, oldest first.
  std::vector<RunTrace> Recent() const;

  size_t capacity() const { return capacity_; }
  /// \brief Traces ever added (≥ the retained count).
  uint64_t total_added() const;

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  size_t next_ = 0;       // ring slot the next Add() overwrites
  uint64_t added_ = 0;
  std::vector<RunTrace> ring_;
};

}  // namespace prague::obs

#endif  // PRAGUE_OBS_TRACE_H_
