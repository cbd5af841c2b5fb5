#include "graph/vf2.h"

#include <algorithm>
#include <cassert>

namespace prague {

void Vf2Search::Prepare(const Graph& pattern, const Graph& target) {
  pattern_ = &pattern;
  target_ = &target;
  // BFS order over the (connected) pattern so every non-root search node is
  // anchored to an already-mapped neighbor — this keeps the candidate set
  // for each step at "neighbors of one mapped image" instead of "all
  // target nodes".
  const size_t n = pattern.NodeCount();
  order_.clear();
  anchor_.assign(n, kInvalidNode);
  map_.assign(n, kInvalidNode);
  if (n == 0) return;
  // Start from the highest-degree node: it is the most constrained.
  NodeId root = 0;
  for (NodeId i = 1; i < n; ++i) {
    if (pattern.Degree(i) > pattern.Degree(root)) root = i;
  }
  // map_ doubles as the BFS "queued" mark here; Search() resets it.
  order_.push_back(root);
  map_[root] = root;
  for (size_t head = 0; head < order_.size(); ++head) {
    NodeId u = order_[head];
    for (const Adjacency& a : pattern.Neighbors(u)) {
      if (map_[a.neighbor] == kInvalidNode) {
        map_[a.neighbor] = a.neighbor;
        anchor_[a.neighbor] = u;
        order_.push_back(a.neighbor);
      }
    }
  }
  assert(order_.size() == n && "pattern must be connected");
}

bool Vf2Search::Feasible(NodeId pattern_node, NodeId target_node) const {
  if (pattern_->NodeLabel(pattern_node) != target_->NodeLabel(target_node)) {
    return false;
  }
  if (target_->Degree(target_node) < pattern_->Degree(pattern_node)) {
    return false;
  }
  // Every already-mapped pattern neighbor must be adjacent in the target
  // with a matching edge label.
  for (const Adjacency& a : pattern_->Neighbors(pattern_node)) {
    NodeId image = map_[a.neighbor];
    if (image == kInvalidNode) continue;
    EdgeId te = target_->FindEdge(target_node, image);
    if (te == kInvalidEdge) return false;
    if (target_->GetEdge(te).label != pattern_->GetEdge(a.edge).label) {
      return false;
    }
  }
  return true;
}

bool Vf2Search::Extend(size_t depth, NodeId p, NodeId t) {
  ++nodes_expanded_;
  if (checker_.Check()) {
    deadline_hit_ = true;
    return false;
  }
  if (target_used_[t] || !Feasible(p, t)) return true;
  map_[p] = t;
  target_used_[t] = 1;
  bool exhausted = Recurse(depth + 1);
  target_used_[t] = 0;
  map_[p] = kInvalidNode;
  return exhausted;
}

bool Vf2Search::Recurse(size_t depth) {
  if (depth == order_.size()) {
    if (visit_ == nullptr) {
      found_ = true;
      return false;  // stop at the first match
    }
    return (*visit_)(map_);
  }
  const NodeId p = order_[depth];
  if (anchor_[p] == kInvalidNode) {
    // Root: try every target node.
    for (NodeId t = 0; t < target_->NodeCount(); ++t) {
      if (!Extend(depth, p, t)) return false;
    }
  } else {
    // Candidates: neighbors of the anchor's image.
    for (const Adjacency& a : target_->Neighbors(map_[anchor_[p]])) {
      if (!Extend(depth, p, a.neighbor)) return false;
    }
  }
  return true;
}

bool Vf2Search::Search(const Deadline& deadline,
                       const std::function<bool(const NodeMapping&)>* visit) {
  found_ = false;
  deadline_hit_ = false;
  nodes_expanded_ = 0;
  if (pattern_->NodeCount() == 0 ||
      pattern_->NodeCount() > target_->NodeCount() ||
      pattern_->EdgeCount() > target_->EdgeCount()) {
    return true;  // empty search space, trivially exhausted
  }
  visit_ = visit;
  std::fill(map_.begin(), map_.end(), kInvalidNode);
  if (target_used_.size() < target_->NodeCount()) {
    target_used_.resize(target_->NodeCount(), 0);
  }
  checker_ = DeadlineChecker(deadline);
  return Recurse(0);
}

Vf2Matcher::Vf2Matcher(const Graph& pattern, const Graph& target) {
  search_.Prepare(pattern, target);
}

bool Vf2Matcher::Run(const std::function<bool(const NodeMapping&)>* visit) {
  bool exhausted = search_.Search(deadline_, visit);
  nodes_expanded_ += search_.nodes_expanded();
  return exhausted;
}

bool Vf2Matcher::Exists() {
  Run(nullptr);
  return search_.found();
}

size_t Vf2Matcher::Count(size_t limit) {
  size_t count = 0;
  ForEach([&count, limit](const NodeMapping&) {
    ++count;
    return count < limit;
  });
  return count;
}

bool Vf2Matcher::ForEach(const std::function<bool(const NodeMapping&)>& fn) {
  return Run(&fn);
}

bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target) {
  return IsSubgraphIsomorphic(pattern, target, Deadline());
}

bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target,
                          const Deadline& deadline, bool* deadline_hit,
                          size_t* nodes_expanded) {
  thread_local Vf2Search search;
  search.Prepare(pattern, target);
  search.Search(deadline, nullptr);
  if (deadline_hit != nullptr) *deadline_hit = search.deadline_hit();
  if (nodes_expanded != nullptr) *nodes_expanded += search.nodes_expanded();
  return search.found();
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.NodeCount() != b.NodeCount() || a.EdgeCount() != b.EdgeCount()) {
    return false;
  }
  // Equal sizes + injective monomorphism ⇒ isomorphism.
  return IsSubgraphIsomorphic(a, b);
}

}  // namespace prague
