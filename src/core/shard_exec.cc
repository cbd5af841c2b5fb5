#include "core/shard_exec.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace prague {

namespace {

uint64_t ToMicros(double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<uint64_t>(seconds * 1e6 + 0.5);
}

// One scatter's worth of observability: per-shard spans on the trace, the
// task count, balance of the per-shard task times, and the gather/merge
// cost. A single-shard run is not a scatter and records none of it.
void RecordScatter(obs::RunTrace* trace, const char* span_name,
                   const std::vector<double>& shard_seconds,
                   double merge_seconds) {
  if (shard_seconds.size() <= 1) return;
  if (trace != nullptr) {
    for (size_t s = 0; s < shard_seconds.size(); ++s) {
      trace->spans.push_back(
          {span_name, shard_seconds[s], static_cast<int>(s)});
    }
  }
  obs::EngineMetrics& em = obs::EngineMetrics::Get();
  em.shard_runs_total->Increment();
  em.shard_tasks_total->Increment(shard_seconds.size());
  double max_s = 0;
  double sum_s = 0;
  for (double s : shard_seconds) {
    max_s = std::max(max_s, s);
    sum_s += s;
  }
  double mean_s = sum_s / static_cast<double>(shard_seconds.size());
  double ratio = mean_s > 0 ? max_s / mean_s : 1.0;
  em.shard_imbalance_x100->Record(static_cast<uint64_t>(ratio * 100 + 0.5));
  em.shard_merge_us->Record(ToMicros(merge_seconds));
}

}  // namespace

size_t ShardCount(size_t requested, size_t db_size) {
  return std::clamp<size_t>(requested, 1, std::max<size_t>(1, db_size));
}

ShardPlan ShardPlan::Make(size_t db_size, size_t shards, ThreadPool* pool) {
  ShardPlan plan;
  // Without a pool there is nothing to scatter to: run as one shard.
  const size_t count = pool == nullptr ? 1 : ShardCount(shards, db_size);
  plan.ranges.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Even split: shard i owns [i*n/count, (i+1)*n/count).
    plan.ranges.push_back({static_cast<GraphId>(i * db_size / count),
                           static_cast<GraphId>((i + 1) * db_size / count)});
  }
  plan.pool = count > 1 ? pool : nullptr;
  return plan;
}

std::vector<GraphId> ShardedExactVerification(
    const Graph& q, const IdSet& rq, const GraphDatabase& db,
    const ShardPlan& plan, const Deadline& deadline,
    VerificationOutcome* outcome, obs::RunTrace* trace, Status* error) {
  const size_t count = plan.shard_count();
  std::vector<std::vector<GraphId>> matches(count);
  std::vector<VerificationOutcome> outcomes(count);
  std::vector<double> seconds(count);
  {
    TaskGroup group(plan.pool);
    for (size_t s = 0; s < count; ++s) {
      group.Submit([&, s] {
        Stopwatch timer;
        // Sequential scan per shard (the scatter is the parallelism);
        // candidates are visited in ascending id order within the range.
        matches[s] = ExactVerification(q, plan.ranges[s].Restrict(rq), db,
                                       deadline, &outcomes[s]);
        seconds[s] = timer.ElapsedSeconds();
      });
    }
    Status st = group.WaitAll();
    if (!st.ok() && error != nullptr) *error = st;
  }
  Stopwatch merge_timer;
  VerificationOutcome merged;
  std::vector<GraphId> out;
  // Shard ranges are contiguous and ascending, so concatenation in shard
  // order is ascending graph-id order — what the sequential scan emits.
  // Truncation: everything after the first truncated shard would come
  // after that shard's undecided candidate in the sequential order, so it
  // is dropped (prefix consistency). Counters stop there too, keeping
  // rejected = checked − |matches| well-defined for the caller.
  for (size_t s = 0; s < count; ++s) {
    out.insert(out.end(), matches[s].begin(), matches[s].end());
    merged.checked += outcomes[s].checked;
    merged.nodes_expanded += outcomes[s].nodes_expanded;
    if (outcomes[s].truncated) {
      merged.truncated = true;
      break;
    }
  }
  if (outcome != nullptr) *outcome = merged;
  RecordScatter(trace, "shard-exact-verification", seconds,
                merge_timer.ElapsedSeconds());
  return out;
}

std::vector<SimilarMatch> MergeShardSimilar(
    const std::vector<ShardSimilarPartial>& partials, size_t top_k,
    SimilarGenStats* stats, bool* truncated) {
  const size_t count = partials.size();
  // Earliest cut in bucket order; ties broken by shard ordinal (within
  // one bucket, contributions are ordered by shard).
  bool have_cut = false;
  SimilarGenCut min_cut;
  size_t cut_shard = 0;
  for (size_t s = 0; s < count; ++s) {
    if (!partials[s].truncated) continue;
    if (!have_cut || partials[s].cut < min_cut) {
      have_cut = true;
      min_cut = partials[s].cut;
      cut_shard = s;
    }
  }
  if (stats != nullptr) {
    // All shards' work is real work even when the merge drops matches past
    // the stop point — verification that ran, ran.
    for (const ShardSimilarPartial& p : partials) {
      stats->verification_free += p.stats.verification_free;
      stats->verified += p.stats.verified;
      stats->rejected += p.stats.rejected;
      stats->vf2_calls += p.stats.vf2_calls;
      stats->nodes_expanded += p.stats.nodes_expanded;
    }
  }
  auto mark_cut = [&]() {
    if (truncated != nullptr) *truncated = true;
  };
  std::vector<SimilarMatch> out;
  std::vector<size_t> pos(count, 0);
  auto bucket_of = [](const SimilarMatch& m) {
    return SimilarGenCut{m.distance, m.verified};
  };
  auto full = [&]() { return top_k != 0 && out.size() >= top_k; };
  for (;;) {
    if (full()) return out;  // reached k before any cut — not truncated
    // Smallest bucket among the remaining shard heads.
    bool any = false;
    SimilarGenCut bucket;
    for (size_t s = 0; s < count; ++s) {
      if (pos[s] >= partials[s].matches.size()) continue;
      SimilarGenCut b = bucket_of(partials[s].matches[pos[s]]);
      if (!any || b < bucket) {
        bucket = b;
        any = true;
      }
    }
    if (!any) break;
    if (have_cut && min_cut < bucket) {
      // The cut bucket itself is exhausted; everything from here on would
      // follow the undecided candidate in sequential order.
      mark_cut();
      return out;
    }
    for (size_t s = 0; s < count; ++s) {
      if (have_cut && bucket == min_cut && s > cut_shard) {
        // In the cut bucket, shards after the cut shard come after its
        // missing (undecided) candidates — drop them and stop.
        mark_cut();
        return out;
      }
      size_t& p = pos[s];
      const std::vector<SimilarMatch>& m = partials[s].matches;
      while (p < m.size() && bucket_of(m[p]) == bucket) {
        if (full()) return out;
        out.push_back(m[p]);
        ++p;
      }
    }
  }
  if (have_cut) mark_cut();
  return out;
}

std::vector<SimilarMatch> ShardedSimilarRun(
    const Graph& q, const SpigSet& spigs, const SimilarCandidates& cands,
    int sigma, const GraphDatabase& db, const IdSet* exact_rq,
    SimilarGenStats* stats, size_t top_k, const Deadline& deadline,
    const ShardPlan& plan, bool* truncated, obs::RunTrace* trace,
    Status* error) {
  const size_t count = plan.shard_count();
  std::vector<ShardSimilarPartial> partials(count);
  std::vector<double> seconds(count);
  {
    TaskGroup group(plan.pool);
    for (size_t s = 0; s < count; ++s) {
      group.Submit([&, s] {
        Stopwatch timer;
        ShardSimilarPartial& p = partials[s];
        const ShardRange& range = plan.ranges[s];
        IdSet exact_slice;
        if (exact_rq != nullptr) exact_slice = range.Restrict(*exact_rq);
        p.matches = SimilarResultsGen(
            q, spigs, cands.Restrict(range.begin, range.end), sigma, db,
            exact_rq != nullptr ? &exact_slice : nullptr, &p.stats, top_k,
            deadline, &p.truncated, &p.cut);
        seconds[s] = timer.ElapsedSeconds();
      });
    }
    Status st = group.WaitAll();
    if (!st.ok() && error != nullptr) *error = st;
  }
  Stopwatch merge_timer;
  std::vector<SimilarMatch> out =
      MergeShardSimilar(partials, top_k, stats, truncated);
  RecordScatter(trace, "shard-similar", seconds, merge_timer.ElapsedSeconds());
  return out;
}

}  // namespace prague
