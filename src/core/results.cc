#include "core/results.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "graph/verifier.h"
#include "graph/vf2.h"

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
  for (GraphId gid : rq) {
    if (bounded && deadline.Expired()) {
      local.truncated = true;
      break;
    }
    bool cut = false;
    bool found = IsSubgraphIsomorphic(q, db.graph(gid), deadline, &cut,
                                      &local.nodes_expanded);
    if (cut) {
      local.truncated = true;  // verdict unknown: stop before recording it
      break;
    }
    ++local.checked;
    if (found) out.push_back(gid);
  }
  if (outcome != nullptr) *outcome = local;
  return out;
}

namespace {

// Distinct (by canonical code) level-i query subgraphs, pulled from the
// SPIG set — the union of level-i vertices across SPIGs is exactly the set
// of connected i-edge subgraphs of q.
std::vector<const Graph*> DistinctLevelFragments(const SpigSet& spigs,
                                                 int level) {
  std::vector<const Graph*> out;
  std::unordered_set<CanonicalCode> seen;
  spigs.ForEachVertexAtLevel(level, [&](const Spig&, const SpigVertex& v) {
    if (seen.insert(v.code).second) out.push_back(&v.fragment);
  });
  return out;
}

// SimVerify for one data graph at one level: mccs(g, q) ≥ level?
// When the verifier's deadline cuts a search the verdict is unknown;
// we stop trying further fragments (the caller detects the cut via the
// deadline and treats the candidate as undecided, not rejected).
bool SimVerify(const std::vector<const Graph*>& level_fragments,
               const Graph& g, SimilarGenStats* stats,
               Verifier* verifier) {
  for (const Graph* fragment : level_fragments) {
    size_t before_calls = verifier->stats().vf2_calls;
    size_t before_nodes = verifier->stats().nodes_expanded;
    size_t before_cuts = verifier->stats().deadline_hits;
    bool hit = verifier->Matches(*fragment, g);
    if (stats != nullptr) {
      stats->vf2_calls += verifier->stats().vf2_calls - before_calls;
      stats->nodes_expanded +=
          verifier->stats().nodes_expanded - before_nodes;
    }
    if (hit) return true;
    if (verifier->stats().deadline_hits != before_cuts) return false;
  }
  return false;
}

}  // namespace

std::vector<SimilarMatch> SimilarResultsGen(
    const Graph& q, const SpigSet& spigs, const SimilarCandidates& cands,
    int sigma, const GraphDatabase& db, const IdSet* exact_rq,
    SimilarGenStats* stats, size_t top_k, bool filtering_verifier,
    const Deadline& deadline, bool* truncated, SimilarGenCut* cut_pos) {
  std::unique_ptr<Verifier> verifier =
      MakeVerifier(filtering_verifier ? "filtering" : "plain");
  verifier->SetDeadline(deadline);
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
        std::vector<const Graph*> fragments =
            DistinctLevelFragments(spigs, level);
        for (GraphId gid : pending) {
          if (full()) return results;
          if (bounded && deadline.Expired()) return cut(distance, true);
          if (SimVerify(fragments, db.graph(gid), stats,
                        verifier.get())) {
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
