#include "reference.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "graph/mccs.h"
#include "graph/vf2.h"

namespace prague::perfbench {

namespace {

uint64_t EdgeKey(const Graph& g, const Edge& e) {
  const uint64_t a = g.NodeLabel(e.u);
  const uint64_t b = g.NodeLabel(e.v);
  return (std::min(a, b) << 42) | (std::max(a, b) << 21) |
         static_cast<uint64_t>(e.label);
}

std::vector<uint64_t> EdgeKeys(const Graph& g) {
  std::vector<uint64_t> keys;
  keys.reserve(g.EdgeCount());
  for (const Edge& e : g.edges()) keys.push_back(EdgeKey(g, e));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Runs fn(i) for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelIndex(size_t n, size_t threads, Fn&& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  const size_t count = std::max<size_t>(1, std::min(threads, n));
  workers.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace

uint64_t AnswerDigest(bool similarity, std::vector<GraphId> exact,
                      std::vector<SimilarMatch> similar) {
  uint64_t h = similarity ? 0x9E3779B97F4A7C15ULL : 0xC2B2AE3D27D4EB4FULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDULL;
  };
  if (similarity) {
    std::sort(similar.begin(), similar.end(),
              [](const SimilarMatch& a, const SimilarMatch& b) {
                return a.gid < b.gid;
              });
    for (const SimilarMatch& m : similar) {
      mix((uint64_t{m.gid} << 8) | static_cast<uint64_t>(m.distance));
    }
    mix(similar.size());
  } else {
    std::sort(exact.begin(), exact.end());
    for (GraphId gid : exact) mix(gid);
    mix(exact.size());
  }
  return h;
}

Reference::Reference(const GraphDatabase* base, std::vector<Graph> appended,
                     const std::vector<Query>* pool, int sigma)
    : base_(base), appended_(std::move(appended)), pool_(pool),
      sigma_(sigma) {}

const Graph& Reference::GraphAt(size_t gid) const {
  return gid < base_->size() ? base_->graph(static_cast<GraphId>(gid))
                             : appended_[gid - base_->size()];
}

void Reference::Prepare(const std::set<std::pair<uint32_t, size_t>>& needed,
                        size_t threads) {
  std::map<uint32_t, std::vector<size_t>> by_query;
  size_t max_count = 0;
  for (const auto& [query, count] : needed) {
    if (digests_.count({query, count}) != 0) continue;
    by_query[query].push_back(count);  // std::set order: ascending counts
    max_count = std::max(max_count, count);
  }
  if (edge_keys_.size() < max_count) {
    const size_t from = edge_keys_.size();
    edge_keys_.resize(max_count);
    ParallelIndex(max_count - from, threads, [&](size_t i) {
      edge_keys_[from + i] = EdgeKeys(GraphAt(from + i));
    });
  }
  std::vector<std::pair<uint32_t, std::vector<size_t>>> work(
      by_query.begin(), by_query.end());
  std::vector<std::vector<uint64_t>> solved(work.size());
  ParallelIndex(work.size(), threads, [&](size_t i) {
    solved[i] = Solve((*pool_)[work[i].first], work[i].second);
  });
  for (size_t i = 0; i < work.size(); ++i) {
    for (size_t k = 0; k < work[i].second.size(); ++k) {
      digests_[{work[i].first, work[i].second[k]}] = solved[i][k];
    }
  }
}

std::vector<uint64_t> Reference::Solve(
    const Query& query, const std::vector<size_t>& counts) const {
  const Graph& q = query.graph;
  const size_t max_count = counts.back();
  std::vector<GraphId> hits;
  for (size_t gid = 0; gid < max_count; ++gid) {
    if (IsSubgraphIsomorphic(q, GraphAt(gid))) {
      hits.push_back(static_cast<GraphId>(gid));
    }
  }
  std::vector<uint64_t> q_keys;
  for (const Edge& e : q.edges()) q_keys.push_back(EdgeKey(q, e));
  const auto min_shared = static_cast<int64_t>(q.EdgeCount()) - sigma_;

  // Distances are computed once, lazily, and only up to the largest count
  // whose exact answer is empty.
  std::vector<SimilarMatch> near;  // ascending gid, distance <= sigma
  size_t near_upto = 0;
  std::vector<uint64_t> out;
  out.reserve(counts.size());
  for (size_t count : counts) {
    std::vector<GraphId> exact;
    for (GraphId gid : hits) {
      if (gid < count) exact.push_back(gid);
    }
    if (!exact.empty()) {
      out.push_back(AnswerDigest(false, std::move(exact), {}));
      continue;
    }
    for (; near_upto < count; ++near_upto) {
      const std::vector<uint64_t>& g_keys = edge_keys_[near_upto];
      int64_t shared = 0;
      for (uint64_t k : q_keys) {
        if (std::binary_search(g_keys.begin(), g_keys.end(), k)) ++shared;
      }
      if (shared < min_shared) continue;  // no common subgraph that large
      const MccsResult mccs = ComputeMccs(q, GraphAt(near_upto));
      if (mccs.distance <= sigma_) {
        near.push_back({static_cast<GraphId>(near_upto), mccs.distance});
      }
    }
    std::vector<SimilarMatch> similar;
    for (const SimilarMatch& m : near) {
      if (m.gid < count) similar.push_back(m);
    }
    out.push_back(AnswerDigest(true, {}, std::move(similar)));
  }
  return out;
}

uint64_t Reference::Digest(uint32_t query, size_t graph_count) const {
  auto it = digests_.find({query, graph_count});
  return it == digests_.end() ? 0 : it->second;
}

void Reference::Perturb() {
  if (!digests_.empty()) digests_.begin()->second ^= 1;
}

}  // namespace prague::perfbench
