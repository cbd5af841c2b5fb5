// IdSet: a sorted, duplicate-free set of 32-bit graph identifiers with the
// set algebra the candidate machinery needs (intersection, union,
// difference). Backed by a flat sorted vector: candidate sets are built
// once and scanned many times, so cache-friendly storage beats node-based
// sets by a wide margin.
//
// Intersections switch from the linear merge to a galloping (exponential-
// search) scan of the larger side when the size ratio crosses
// kGallopRatio, and the in-place operations build their result in a
// per-thread scratch buffer that is swapped into place, so steady-state
// candidate algebra performs no allocation.
//
// Copies are copy-on-write: the sorted vector lives behind a shared_ptr,
// so copying an IdSet shares the buffer and the first mutation through
// any copy detaches it. This is what makes versioned database snapshots
// cheap — a successor index copies every FSG id set structurally and only
// the sets the appended graphs actually touch get new storage. Mutating
// one IdSet object from two threads is a data race exactly as it was with
// the plain vector; concurrent reads of copies sharing a buffer are safe.
//
// A second, borrowed representation backs the persistent index segments
// (src/storage/segment.h): Borrow() wraps a sorted id array owned by
// someone else — in production an mmap'ed posting-list region — plus a
// keepalive handle pinning that owner. A borrowed set is read-only until
// the first mutation, which detaches it onto the heap exactly like a COW
// copy, so index maintenance works identically on loaded and built
// indexes while an unmodified restart never copies a posting list.

#ifndef PRAGUE_UTIL_ID_SET_H_
#define PRAGUE_UTIL_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace prague {

/// Identifier of a data graph within a GraphDatabase.
using GraphId = uint32_t;

/// \brief Sorted, duplicate-free set of GraphIds.
class IdSet {
 public:
  using const_iterator = const GraphId*;

  IdSet() = default;
  /// \brief Builds from arbitrary ids; sorts and de-duplicates.
  explicit IdSet(std::vector<GraphId> ids);
  IdSet(std::initializer_list<GraphId> ids);

  /// \brief The universe {0, 1, ..., n-1}.
  static IdSet Universe(GraphId n);

  /// \brief Wraps \p count sorted, duplicate-free ids owned by someone
  /// else (an mmap'ed segment, an arena) without copying. \p owner is held
  /// for the set's lifetime — and the lifetime of every copy — so the
  /// storage cannot be unmapped while a reader holds a view. The first
  /// mutation detaches onto the heap.
  static IdSet Borrow(const GraphId* data, size_t count,
                      std::shared_ptr<const void> owner);

  /// Size ratio (larger/smaller) above which intersections gallop through
  /// the larger side instead of merging linearly. Galloping is
  /// O(|small| · log(|large|/|small|)), which wins once the sides are
  /// lopsided — the common case when a tiny NIF Φ set filters a huge
  /// frequent-fragment FSG set.
  static constexpr size_t kGallopRatio = 16;

  /// \brief Intersection of all \p sets, visiting them smallest-first and
  /// stopping as soon as the running result empties. Null entries are
  /// skipped; no sets (or only null entries) yields the empty set.
  static IdSet IntersectMany(std::vector<const IdSet*> sets);

  /// \brief Number of ids in the set.
  size_t size() const { return data_ ? data_->size() : ext_size_; }
  /// \brief True iff the set is empty.
  bool empty() const { return size() == 0; }
  /// \brief Membership test (binary search).
  bool Contains(GraphId id) const;

  /// \brief Inserts one id, keeping order (O(n) worst case).
  void Insert(GraphId id);
  /// \brief Removes one id if present.
  void Erase(GraphId id);
  /// \brief Removes all ids.
  void Clear() {
    data_.reset();
    ext_ = nullptr;
    ext_size_ = 0;
    ext_owner_.reset();
  }

  /// \brief Set intersection.
  IdSet Intersect(const IdSet& other) const;
  /// \brief Set union.
  IdSet Union(const IdSet& other) const;
  /// \brief Set difference (this \ other).
  IdSet Subtract(const IdSet& other) const;

  /// \brief In-place intersection (this ∩= other).
  void IntersectWith(const IdSet& other);
  /// \brief In-place union (this ∪= other).
  void UnionWith(const IdSet& other);
  /// \brief In-place difference (this \= other).
  void SubtractWith(const IdSet& other);

  /// \brief True iff this ⊆ other.
  bool IsSubsetOf(const IdSet& other) const;

  /// \brief The subset of ids in the half-open range [\p begin, \p end).
  /// When every id already lies in the range the result shares this set's
  /// buffer (no copy), which is what keeps restricting a run's candidate
  /// sets to its shard ranges cheap: a typical set is concentrated in few
  /// shards, so most slices either alias the original or come out empty.
  /// Slicing a borrowed set yields a borrowed sub-span sharing the same
  /// owner — also no copy.
  IdSet Slice(GraphId begin, GraphId end) const;

  /// \brief Pointer to the first id (null only when empty).
  const GraphId* data() const { return data_ ? data_->data() : ext_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }
  /// \brief Element access (no bounds check). Requires i < size().
  GraphId operator[](size_t i) const { return data()[i]; }

  /// \brief Read-only view of the sorted ids. Copies of an unmodified
  /// IdSet view the *same* storage (structural sharing).
  std::span<const GraphId> span() const { return {data(), size()}; }

  /// \brief Materialized copy of the ids (tests and diagnostics).
  std::vector<GraphId> ToVector() const { return {begin(), end()}; }

  /// \brief True iff the ids live in externally owned storage (an mmap'ed
  /// segment) rather than on this set's heap.
  bool borrowed() const { return ext_ != nullptr; }

  /// \brief True iff this and \p other view one underlying buffer (both
  /// empty counts as shared). Exposed so snapshot and segment tests can
  /// prove copy-on-write / zero-copy sharing.
  bool SharesStorageWith(const IdSet& other) const {
    return data() == other.data() && size() == other.size();
  }

  /// \brief Approximate storage footprint in bytes (for index sizing).
  /// Borrowed sets report their mapped extent — the bytes are real, they
  /// just live in the page cache instead of the heap.
  size_t ByteSize() const {
    return data_ ? data_->capacity() * sizeof(GraphId)
                 : ext_size_ * sizeof(GraphId);
  }

  /// \brief Renders "{1, 2, 5}" for diagnostics.
  std::string ToString() const;

  bool operator==(const IdSet& other) const;
  bool operator!=(const IdSet& other) const { return !(*this == other); }

 private:
  // Wraps an already sorted, duplicate-free vector without re-sorting.
  static IdSet FromSorted(std::vector<GraphId> ids);
  // Sole-owner heap buffer for mutation: allocates when empty, clones when
  // shared, detaches (copies) when borrowed.
  std::vector<GraphId>& Mutable();
  // Replaces the contents with `scratch` (swapping capacity back into the
  // per-thread scratch buffer when this is the sole owner).
  void AdoptScratch(std::vector<GraphId>* scratch);

  // Exactly one representation is active: data_ (heap, COW) or ext_
  // (borrowed). Both null/empty = the empty set.
  std::shared_ptr<std::vector<GraphId>> data_;  // null = not heap-backed
  const GraphId* ext_ = nullptr;                // borrowed storage
  size_t ext_size_ = 0;
  std::shared_ptr<const void> ext_owner_;  // pins the borrowed storage
};

}  // namespace prague

#endif  // PRAGUE_UTIL_ID_SET_H_
