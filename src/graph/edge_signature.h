// Edge-label signatures: the prefilter in front of every containment check
// of a RUN.
//
// Section VI-C: "we can easily replace the implementation of SimVerify
// with a more efficient technique." A graph's edge-label signature is the
// multiset of its edge triples (min endpoint label, edge label, max
// endpoint label). A monomorphism maps pattern edges injectively onto
// target edges carrying the same three labels, so
//
//   pattern ⊆ target  ⇒  signature(pattern) ⊆ signature(target)
//
// and a failed multiset test is a proof of non-containment that costs a
// merge walk over two short sorted lists instead of a VF2 search. Data
// graphs get their signature once, when they enter a GraphDatabase; query
// patterns and SPIG fragments get theirs once per run.

#ifndef PRAGUE_GRAPH_EDGE_SIGNATURE_H_
#define PRAGUE_GRAPH_EDGE_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/deadline.h"

namespace prague {

/// \brief Sorted multiset of a graph's (min node label, edge label, max
/// node label) triples.
///
/// Each triple is reduced to a 64-bit key: an exact bit-packing when the
/// node labels fit 21 bits and the edge label 22 bits, a hash of the triple
/// otherwise. Any function of the triple preserves multiset inclusion, so
/// a hash collision can only make the test pass more often, never reject
/// a true match.
class EdgeSignature {
 public:
  EdgeSignature() = default;
  explicit EdgeSignature(const Graph& g);

  /// \brief True iff every triple of this signature occurs in \p other at
  /// least as often. Allocation-free.
  bool IsSubsetOf(const EdgeSignature& other) const;

  /// \brief Approximate heap footprint in bytes.
  size_t ByteSize() const { return entries_.capacity() * sizeof(Entry); }

  bool operator==(const EdgeSignature&) const = default;

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t count = 0;

    bool operator==(const Entry&) const = default;
  };

  std::vector<Entry> entries_;  // ascending by key, keys distinct
};

/// \brief Work a sequence of Contains() calls did.
struct ContainmentCounters {
  size_t vf2_calls = 0;       ///< VF2 searches run (signature test passed)
  size_t nodes_expanded = 0;  ///< VF2 expansion steps across them
};

/// \brief The containment check of a RUN: "\p pattern_sig ⊆ \p target_sig",
/// then a VF2 search only when that passes. The signatures must be those
/// of \p pattern and \p target. A deadline-cut search returns false with
/// \p deadline_hit (optional) set: the verdict is unknown, not a
/// rejection. \p counters (optional) accumulates. Once the calling
/// thread's VF2 scratch has grown to the pair's size, allocation-free.
bool Contains(const Graph& pattern, const EdgeSignature& pattern_sig,
              const Graph& target, const EdgeSignature& target_sig,
              const Deadline& deadline, bool* deadline_hit = nullptr,
              ContainmentCounters* counters = nullptr);

}  // namespace prague

#endif  // PRAGUE_GRAPH_EDGE_SIGNATURE_H_
