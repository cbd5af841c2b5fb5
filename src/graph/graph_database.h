// GraphDatabase: the set D of data graphs plus the label dictionary that
// maps human-readable label strings (e.g. atom symbols "C", "N", "O") to
// dense Label ids. Panel 2 of the paper's GUI lists exactly these labels.
//
// Data graphs are held through shared pointers: copying a GraphDatabase
// copies only the pointer vector and the dictionary, sharing every graph's
// storage with the original. Versioned snapshots
// (index/database_snapshot.h) rely on this — a successor database built by
// AppendGraphs shares all pre-existing graphs structurally. Each graph's
// edge-label signature (graph/edge_signature.h) is computed once, in Add(),
// and shared the same way; it is derived state and never persisted.

#ifndef PRAGUE_GRAPH_GRAPH_DATABASE_H_
#define PRAGUE_GRAPH_GRAPH_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/edge_signature.h"
#include "graph/graph.h"
#include "util/id_set.h"
#include "util/result.h"

namespace prague {

/// \brief Bidirectional map between label strings and dense Label ids.
class LabelDictionary {
 public:
  /// \brief Returns the id for \p name, interning it if new.
  Label Intern(const std::string& name);
  /// \brief Returns the id for \p name, or NotFound if never interned.
  Result<Label> Lookup(const std::string& name) const;
  /// \brief Returns the string for \p label. Requires a valid label.
  const std::string& Name(Label label) const { return names_[label]; }
  /// \brief Bounds-checked Name: the string for \p label, or NotFound for
  /// ids outside the dictionary. Use this on user-facing paths where the
  /// label came from external input (query files, index files).
  Result<std::string> NameOf(Label label) const;
  /// \brief Number of distinct labels.
  size_t size() const { return names_.size(); }
  /// \brief All label names in id order (Panel 2 shows them sorted;
  /// use SortedNames() for that).
  const std::vector<std::string>& names() const { return names_; }
  /// \brief Label names in lexicographic order, as the GUI presents them.
  std::vector<std::string> SortedNames() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, Label> ids_;
};

/// \brief The graph database D: data graphs with dense GraphIds.
class GraphDatabase {
 public:
  GraphDatabase() = default;

  /// \brief Adds a data graph, computing its edge-label signature; returns
  /// its id.
  GraphId Add(Graph g);

  /// \brief Number of data graphs — the paper's |D|.
  size_t size() const { return graphs_.size(); }
  /// \brief True iff no data graphs are present.
  bool empty() const { return graphs_.empty(); }

  /// \brief Data graph by id.
  const Graph& graph(GraphId id) const { return graphs_[id]->graph; }
  /// \brief Edge-label signature of data graph \p id.
  const EdgeSignature& signature(GraphId id) const {
    return graphs_[id]->signature;
  }
  /// \brief Shared ownership of one data graph. Two databases returning
  /// the same pointer share that graph's storage (the structural-sharing
  /// invariant snapshot tests assert).
  std::shared_ptr<const Graph> shared_graph(GraphId id) const {
    return {graphs_[id], &graphs_[id]->graph};
  }

  /// \brief Mutable label dictionary (generators intern through this).
  LabelDictionary* mutable_labels() { return &labels_; }
  /// \brief The label dictionary.
  const LabelDictionary& labels() const { return labels_; }

  /// \brief The set of all graph ids.
  IdSet AllIds() const { return IdSet::Universe(static_cast<GraphId>(size())); }

  /// \brief Average edge count across data graphs.
  double AverageEdgeCount() const;
  /// \brief Average node count across data graphs.
  double AverageNodeCount() const;
  /// \brief Approximate heap footprint in bytes.
  size_t ByteSize() const;

 private:
  // One data graph and the state derived from it on entry.
  struct Stored {
    Graph graph;
    EdgeSignature signature;
  };

  std::vector<std::shared_ptr<const Stored>> graphs_;
  LabelDictionary labels_;
};

}  // namespace prague

#endif  // PRAGUE_GRAPH_GRAPH_DATABASE_H_
