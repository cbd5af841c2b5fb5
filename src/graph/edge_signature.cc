#include "graph/edge_signature.h"

#include <algorithm>
#include <utility>

#include "graph/vf2.h"

namespace prague {

namespace {

constexpr unsigned kNodeBits = 21;
constexpr unsigned kEdgeBits = 22;

// splitmix64 finalizer.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t TripleKey(Label a, Label edge, Label b) {
  if (a > b) std::swap(a, b);
  if (b < (1u << kNodeBits) && edge < (1u << kEdgeBits)) {
    return (static_cast<uint64_t>(a) << (kEdgeBits + kNodeBits)) |
           (static_cast<uint64_t>(edge) << kNodeBits) | b;
  }
  return Mix(((static_cast<uint64_t>(a) << 32) | b) ^ Mix(edge));
}

}  // namespace

EdgeSignature::EdgeSignature(const Graph& g) {
  std::vector<uint64_t> keys;
  keys.reserve(g.EdgeCount());
  for (const Edge& e : g.edges()) {
    keys.push_back(TripleKey(g.NodeLabel(e.u), e.label, g.NodeLabel(e.v)));
  }
  std::sort(keys.begin(), keys.end());
  size_t distinct = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) ++distinct;
  }
  entries_.reserve(distinct);
  for (uint64_t key : keys) {
    if (!entries_.empty() && entries_.back().key == key) {
      ++entries_.back().count;
    } else {
      entries_.push_back({key, 1});
    }
  }
}

bool EdgeSignature::IsSubsetOf(const EdgeSignature& other) const {
  auto it = other.entries_.begin();
  const auto end = other.entries_.end();
  for (const Entry& need : entries_) {
    while (it != end && it->key < need.key) ++it;
    if (it == end || it->key != need.key || it->count < need.count) {
      return false;
    }
    ++it;
  }
  return true;
}

bool Contains(const Graph& pattern, const EdgeSignature& pattern_sig,
              const Graph& target, const EdgeSignature& target_sig,
              const Deadline& deadline, bool* deadline_hit,
              ContainmentCounters* counters) {
  if (deadline_hit != nullptr) *deadline_hit = false;
  if (!pattern_sig.IsSubsetOf(target_sig)) return false;
  size_t* nodes = nullptr;
  if (counters != nullptr) {
    ++counters->vf2_calls;
    nodes = &counters->nodes_expanded;
  }
  return IsSubgraphIsomorphic(pattern, target, deadline, deadline_hit, nodes);
}

}  // namespace prague
