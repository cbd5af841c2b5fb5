#include "graph/graph_database.h"

#include <algorithm>

namespace prague {

Label LabelDictionary::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  Label id = static_cast<Label>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

Result<Label> LabelDictionary::Lookup(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("label not in dictionary: " + name);
  }
  return it->second;
}

Result<std::string> LabelDictionary::NameOf(Label label) const {
  if (static_cast<size_t>(label) >= names_.size()) {
    return Status::NotFound("label id " + std::to_string(label) +
                            " outside dictionary of size " +
                            std::to_string(names_.size()));
  }
  return names_[label];
}

std::vector<std::string> LabelDictionary::SortedNames() const {
  std::vector<std::string> out = names_;
  std::sort(out.begin(), out.end());
  return out;
}

GraphId GraphDatabase::Add(Graph g) {
  EdgeSignature signature(g);
  graphs_.push_back(std::make_shared<const Stored>(
      Stored{std::move(g), std::move(signature)}));
  return static_cast<GraphId>(graphs_.size() - 1);
}

double GraphDatabase::AverageEdgeCount() const {
  if (graphs_.empty()) return 0;
  size_t total = 0;
  for (const auto& g : graphs_) total += g->graph.EdgeCount();
  return static_cast<double>(total) / static_cast<double>(graphs_.size());
}

double GraphDatabase::AverageNodeCount() const {
  if (graphs_.empty()) return 0;
  size_t total = 0;
  for (const auto& g : graphs_) total += g->graph.NodeCount();
  return static_cast<double>(total) / static_cast<double>(graphs_.size());
}

size_t GraphDatabase::ByteSize() const {
  size_t bytes = 0;
  for (const auto& g : graphs_) {
    bytes += g->graph.ByteSize() + g->signature.ByteSize();
  }
  return bytes;
}

}  // namespace prague
