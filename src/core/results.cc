#include "core/results.h"

#include <algorithm>
#include <unordered_set>

#include "graph/edge_signature.h"

namespace prague {

const char* RunPhaseName(RunPhase phase) {
  switch (phase) {
    case RunPhase::kNone:
      return "none";
    case RunPhase::kExactVerification:
      return "exact-verification";
    case RunPhase::kSimilarCandidates:
      return "similar-candidates";
    case RunPhase::kSimilarGeneration:
      return "similar-generation";
  }
  return "unknown";
}

std::vector<GraphId> ExactVerification(const Graph& q, const IdSet& rq,
                                       const GraphDatabase& db,
                                       const Deadline& deadline,
                                       VerificationOutcome* outcome) {
  const bool bounded = deadline.CanExpire();
  VerificationOutcome local;
  std::vector<GraphId> out;
  const EdgeSignature q_sig(q);
  ContainmentCounters counters;
  for (GraphId gid : rq) {
    if (bounded && deadline.Expired()) {
      local.truncated = true;
      break;
    }
    bool cut = false;
    bool found = Contains(q, q_sig, db.graph(gid), db.signature(gid),
                          deadline, &cut, &counters);
    if (cut) {
      local.truncated = true;  // verdict unknown: stop before recording it
      break;
    }
    ++local.checked;
    if (found) out.push_back(gid);
  }
  local.nodes_expanded = counters.nodes_expanded;
  if (outcome != nullptr) *outcome = local;
  return out;
}

namespace {

// One distinct level-i query subgraph and its edge-label signature.
struct LevelFragment {
  const Graph* graph = nullptr;
  EdgeSignature signature;
};

// Distinct (by canonical code) level-i query subgraphs, pulled from the
// SPIG set — the union of level-i vertices across SPIGs is exactly the set
// of connected i-edge subgraphs of q — each with its signature, taken once
// per level.
std::vector<LevelFragment> DistinctLevelFragments(const SpigSet& spigs,
                                                  int level) {
  std::vector<LevelFragment> out;
  std::unordered_set<CanonicalCode> seen;
  spigs.ForEachVertexAtLevel(level, [&](const Spig&, const SpigVertex& v) {
    if (seen.insert(v.code).second) {
      out.push_back({&v.fragment, EdgeSignature(v.fragment)});
    }
  });
  return out;
}

// SimVerify for one data graph at one level: mccs(g, q) ≥ level? Each
// fragment is tried behind the signature test. When the deadline cuts a
// search the verdict is unknown; we stop trying further fragments (the
// caller detects the cut via the deadline and treats the candidate as
// undecided, not rejected).
bool SimVerify(const std::vector<LevelFragment>& level_fragments,
               const Graph& g, const EdgeSignature& g_sig,
               const Deadline& deadline, ContainmentCounters* counters) {
  for (const LevelFragment& fragment : level_fragments) {
    bool cut = false;
    if (Contains(*fragment.graph, fragment.signature, g, g_sig, deadline,
                 &cut, counters)) {
      return true;
    }
    if (cut) return false;
  }
  return false;
}

}  // namespace

std::vector<SimilarMatch> SimilarResultsGen(
    const Graph& q, const SpigSet& spigs, const SimilarCandidates& cands,
    int sigma, const GraphDatabase& db, const IdSet* exact_rq,
    SimilarGenStats* stats, size_t top_k, const Deadline& deadline,
    bool* truncated, SimilarGenCut* cut_pos) {
  const bool bounded = deadline.CanExpire();
  std::vector<SimilarMatch> results;
  IdSet seen;
  int qsize = static_cast<int>(q.EdgeCount());
  auto full = [&]() { return top_k != 0 && results.size() >= top_k; };
  auto cut = [&](int at_distance, bool in_ver) {
    if (truncated != nullptr) *truncated = true;
    if (cut_pos != nullptr) *cut_pos = SimilarGenCut{at_distance, in_ver};
    return results;
  };

  if (exact_rq != nullptr && !exact_rq->empty()) {
    VerificationOutcome exact_outcome;
    std::vector<GraphId> exact_hits =
        ExactVerification(q, *exact_rq, db, deadline, &exact_outcome);
    if (stats != nullptr) {
      stats->nodes_expanded += exact_outcome.nodes_expanded;
    }
    for (GraphId gid : exact_hits) {
      if (full()) return results;
      results.push_back(SimilarMatch{gid, 0, true});
      seen.Insert(gid);
      if (stats != nullptr) ++stats->verified;
    }
    if (exact_outcome.truncated) return cut(0, true);
  }

  int lowest = std::max(1, qsize - sigma);
  for (int level = qsize - 1; level >= lowest && !full(); --level) {
    int distance = qsize - level;
    if (bounded && deadline.Expired()) return cut(distance, false);
    auto free_it = cands.free.find(level);
    if (free_it != cands.free.end()) {
      for (GraphId gid : free_it->second.Subtract(seen)) {
        if (full()) return results;
        results.push_back(SimilarMatch{gid, distance, false});
        seen.Insert(gid);
        if (stats != nullptr) ++stats->verification_free;
      }
    }
    auto ver_it = cands.ver.find(level);
    if (ver_it != cands.ver.end()) {
      IdSet pending = ver_it->second.Subtract(seen);
      if (!pending.empty()) {
        std::vector<LevelFragment> fragments =
            DistinctLevelFragments(spigs, level);
        for (GraphId gid : pending) {
          if (full()) return results;
          if (bounded && deadline.Expired()) return cut(distance, true);
          ContainmentCounters counters;
          bool hit = SimVerify(fragments, db.graph(gid), db.signature(gid),
                               deadline, &counters);
          if (stats != nullptr) {
            stats->vf2_calls += counters.vf2_calls;
            stats->nodes_expanded += counters.nodes_expanded;
          }
          if (hit) {
            results.push_back(SimilarMatch{gid, distance, true});
            seen.Insert(gid);
            if (stats != nullptr) ++stats->verified;
          } else if (bounded && deadline.Expired()) {
            // Verdict unknown — the deadline cut the search mid-check.
            return cut(distance, true);
          } else if (stats != nullptr) {
            ++stats->rejected;
          }
        }
      }
    }
  }
  return results;
}

}  // namespace prague
