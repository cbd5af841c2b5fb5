#include "core/candidates.h"

#include <algorithm>
#include <vector>

namespace prague {

IdSet ExactSubCandidates(const SpigVertex& v,
                         const ActionAwareIndexes& indexes) {
  if (v.frag.freq_id) return indexes.a2f.FsgIds(*v.frag.freq_id);
  if (v.frag.dif_id) return indexes.a2i.FsgIds(*v.frag.dif_id);
  // NIF: intersect the FSG ids of every recorded frequent (|g|−1)-subgraph
  // and every recorded DIF subgraph — smallest set first, stopping as
  // soon as the running intersection empties.
  if (v.frag.phi.empty() && v.frag.upsilon.empty()) {
    return IdSet();  // zero-support subgraph (see header)
  }
  std::vector<const IdSet*> sets;
  sets.reserve(v.frag.phi.size() + v.frag.upsilon.size());
  for (A2fId fid : v.frag.phi) sets.push_back(&indexes.a2f.FsgIds(fid));
  for (A2iId did : v.frag.upsilon) sets.push_back(&indexes.a2i.FsgIds(did));
  return IdSet::IntersectMany(std::move(sets));
}

const IdSet& CachedSubCandidates(const SpigVertex& v,
                                 const ActionAwareIndexes& indexes) {
  if (!v.cand_cached) {
    v.cand_cache = ExactSubCandidates(v, indexes);
    v.cand_cached = true;
  }
  return v.cand_cache;
}

size_t SimilarCandidates::TotalCandidates() const {
  // One k-way sweep over all per-level sets, counting distinct ids.
  std::vector<std::pair<IdSet::const_iterator, IdSet::const_iterator>> fronts;
  fronts.reserve(free.size() + ver.size());
  for (const auto& [level, ids] : free) {
    if (!ids.empty()) fronts.emplace_back(ids.begin(), ids.end());
  }
  for (const auto& [level, ids] : ver) {
    if (!ids.empty()) fronts.emplace_back(ids.begin(), ids.end());
  }
  size_t count = 0;
  for (;;) {
    bool have_min = false;
    GraphId min_id = 0;
    for (const auto& [it, end] : fronts) {
      if (it == end) continue;
      if (!have_min || *it < min_id) {
        min_id = *it;
        have_min = true;
      }
    }
    if (!have_min) break;
    ++count;
    for (auto& [it, end] : fronts) {
      while (it != end && *it == min_id) ++it;
    }
  }
  return count;
}

IdSet SimilarCandidates::AllFree() const {
  IdSet out;
  for (const auto& [level, ids] : free) out.UnionWith(ids);
  return out;
}

IdSet SimilarCandidates::AllVer() const {
  IdSet out;
  for (const auto& [level, ids] : ver) out.UnionWith(ids);
  return out;
}

SimilarCandidates SimilarCandidates::Restrict(GraphId begin,
                                              GraphId end) const {
  SimilarCandidates out;
  for (const auto& [level, ids] : free) {
    out.free.emplace(level, ids.Slice(begin, end));
  }
  for (const auto& [level, ids] : ver) {
    out.ver.emplace(level, ids.Slice(begin, end));
  }
  return out;
}

SimilarCandidates SimilarSubCandidates(const SpigSet& spigs,
                                       size_t query_size, int sigma,
                                       const ActionAwareIndexes& indexes,
                                       bool use_cache,
                                       const Deadline& deadline,
                                       bool* truncated) {
  SimilarCandidates out;
  const bool bounded = deadline.CanExpire();
  int q = static_cast<int>(query_size);
  int lowest = std::max(1, q - sigma);
  for (int level = q - 1; level >= lowest; --level) {
    if (bounded && deadline.Expired()) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    IdSet free_ids;
    IdSet ver_ids;
    spigs.ForEachVertexAtLevel(
        level, [&](const Spig&, const SpigVertex& v) {
          IdSet& target =
              v.frag.IsFrequent() || v.frag.IsDif() ? free_ids : ver_ids;
          target.UnionWith(use_cache ? CachedSubCandidates(v, indexes)
                                     : ExactSubCandidates(v, indexes));
        });
    ver_ids.SubtractWith(free_ids);  // Algorithm 4 line 7
    out.free.emplace(level, std::move(free_ids));
    out.ver.emplace(level, std::move(ver_ids));
  }
  return out;
}

}  // namespace prague
