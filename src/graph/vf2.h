// VF2-style subgraph isomorphism (Cordella, Foggia et al. [3] — the
// verification algorithm the paper adopts and extends for MCCS checks).
//
// "Subgraph isomorphism" here follows the graph-database literature: an
// injective mapping from pattern nodes to target nodes that preserves node
// labels, and maps every pattern edge onto a target edge with the same
// edge label (non-induced / monomorphism semantics). This is what
// "q ⊆ g" means throughout the paper.

#ifndef PRAGUE_GRAPH_VF2_H_
#define PRAGUE_GRAPH_VF2_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "util/deadline.h"

namespace prague {

/// \brief One complete pattern→target node mapping.
using NodeMapping = std::vector<NodeId>;  // index = pattern node

/// \brief The backtracking search and its reusable scratch.
///
/// Prepare() binds one (pattern, target) pair; Search() runs it. Buffers
/// only grow, so once a Vf2Search has seen a pair at least as large, a
/// search allocates nothing — IsSubgraphIsomorphic keeps one per thread.
/// The pattern must be connected.
class Vf2Search {
 public:
  /// \p pattern and \p target must outlive the searches that follow.
  void Prepare(const Graph& pattern, const Graph& target);

  /// \brief Searches the prepared pair under \p deadline. With a null
  /// \p visit the search stops at the first complete mapping (found()
  /// reports it); otherwise \p visit sees every mapping and stops the
  /// search by returning false. Returns true iff the search space was
  /// exhausted.
  bool Search(const Deadline& deadline,
              const std::function<bool(const NodeMapping&)>* visit);

  /// \brief True iff the last null-visitor Search() found a mapping.
  bool found() const { return found_; }
  /// \brief True iff the last Search() was cut by the deadline.
  bool deadline_hit() const { return deadline_hit_; }
  /// \brief Expansion steps of the last Search().
  size_t nodes_expanded() const { return nodes_expanded_; }

 private:
  bool Feasible(NodeId pattern_node, NodeId target_node) const;
  // Returns true iff the subtree below `depth` was exhausted; false
  // propagates an early stop (first match, visitor, or deadline) up.
  bool Recurse(size_t depth);
  // Tries target node t for pattern node p = order_[depth] and searches
  // below it; false propagates an early stop.
  bool Extend(size_t depth, NodeId p, NodeId t);

  const Graph* pattern_ = nullptr;
  const Graph* target_ = nullptr;
  const std::function<bool(const NodeMapping&)>* visit_ = nullptr;
  // Pattern nodes in a connectivity-preserving search order: order_[i]
  // (i > 0) has at least one neighbor among order_[0..i-1].
  std::vector<NodeId> order_;
  // anchor_[p]: a neighbor of pattern node p earlier in order_, whose
  // image's adjacency seeds p's candidate list (kInvalidNode for the
  // root).
  std::vector<NodeId> anchor_;
  NodeMapping map_;  // pattern node -> target node
  // 1 while the target node is mapped. All zero between searches: every
  // mapping step is undone on the way back up, early stops included.
  std::vector<uint8_t> target_used_;
  DeadlineChecker checker_;
  bool found_ = false;
  bool deadline_hit_ = false;
  size_t nodes_expanded_ = 0;
};

/// \brief Enumerating subgraph-isomorphism matcher for one (pattern,
/// target) pair: Exists() / Count() / ForEach() drive the search.
class Vf2Matcher {
 public:
  /// \p pattern and \p target must outlive the matcher.
  Vf2Matcher(const Graph& pattern, const Graph& target);

  /// \brief Bounds every subsequent search. An expired deadline makes
  /// Exists()/Count()/ForEach() stop early with deadline_hit() set; a
  /// deadline-cut Exists() returns false ("no match proven").
  void SetDeadline(const Deadline& deadline) { deadline_ = deadline; }

  /// \brief True iff at least one subgraph isomorphism exists.
  bool Exists();

  /// \brief Number of distinct mappings, stopping early at \p limit.
  size_t Count(size_t limit = SIZE_MAX);

  /// \brief Invokes \p fn for each mapping; stop early by returning false.
  /// \return true iff the search space was exhausted — false means the
  /// enumeration was cut short, by the callback or by the deadline
  /// (deadline_hit() distinguishes the two).
  bool ForEach(const std::function<bool(const NodeMapping&)>& fn);

  /// \brief True iff the most recent search was cut by the deadline.
  bool deadline_hit() const { return search_.deadline_hit(); }

  /// \brief Candidate expansion steps tried across all searches on this
  /// matcher (the unit DeadlineChecker strides over).
  size_t nodes_expanded() const { return nodes_expanded_; }

 private:
  bool Run(const std::function<bool(const NodeMapping&)>* visit);

  Deadline deadline_;
  Vf2Search search_;
  size_t nodes_expanded_ = 0;
};

/// \brief Convenience: does \p pattern match somewhere inside \p target?
bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target);

/// \brief Deadline-bounded containment check. Returns false when the search
/// is cut before finding a match; \p deadline_hit (optional) reports the
/// cut and \p nodes_expanded (optional) accumulates expansion steps. Runs
/// on the calling thread's Vf2Search, so repeated checks allocate nothing
/// once it has grown to the pair's size.
bool IsSubgraphIsomorphic(const Graph& pattern, const Graph& target,
                          const Deadline& deadline,
                          bool* deadline_hit = nullptr,
                          size_t* nodes_expanded = nullptr);

/// \brief Convenience: are the two graphs isomorphic (same sizes + mutual
/// containment check via size equality and one VF2 run)?
bool AreIsomorphic(const Graph& a, const Graph& b);

}  // namespace prague

#endif  // PRAGUE_GRAPH_VF2_H_
