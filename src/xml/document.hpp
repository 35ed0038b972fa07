// A Document owns one XML tree and allocates the stable node ids used by
// undo logs and the DataGuide extents.
//
// Replica note: each DTX site parses its own copy of a document from storage,
// so node ids are site-local. Operations travel between sites as language
// level specifications (XPath + update spec) and are re-evaluated locally;
// node ids never cross the wire.
//
// A Document also keeps an exact value index over the attributes of the
// elements under its root (Lore's Vindex: McHugh & Widom, "Query
// Optimization for XML", VLDB 1999), which xpath::evaluate uses to answer
// `step[@a='literal']` without walking the tree. The Node primitives that
// every mutation passes through (insert_child, remove_child, set_attribute,
// remove_attribute) and set_root keep it up to date eagerly, so reading it
// never writes: a const Document is safe to query from many threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "xml/node.hpp"

namespace dtx::xml {

class Document {
 public:
  explicit Document(std::string name);

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] Node* root() const noexcept { return root_.get(); }
  [[nodiscard]] bool has_root() const noexcept { return root_ != nullptr; }

  /// Installs a root element (replaces any existing tree).
  Node* set_root(std::unique_ptr<Node> root);

  /// Creates a detached element / text node registered with this document.
  [[nodiscard]] std::unique_ptr<Node> create_element(std::string tag);
  [[nodiscard]] std::unique_ptr<Node> create_text(std::string text);

  /// Id lookup. May return a node that is currently detached from the tree
  /// (e.g. held by an undo log); returns nullptr for unknown ids.
  [[nodiscard]] Node* find(NodeId id) const;

  /// Removes the subtree rooted at `node` from the id index. Call before
  /// permanently destroying a detached subtree; harmless to skip for nodes
  /// that live until the document dies.
  void unregister_subtree(const Node& node);

  /// Calls `fn(Node&)` on each element under the root whose attribute
  /// `name` equals `value` exactly, in no particular order.
  template <typename Fn>
  void for_each_with_attribute(std::string_view name, std::string_view value,
                               Fn&& fn) const {
    const auto [begin, end] =
        attribute_index_.equal_range(attribute_key(name, value));
    for (auto it = begin; it != end; ++it) {
      const std::string* found = it->second->attribute(name);
      if (found != nullptr && *found == value) fn(*it->second);
    }
  }

  /// Number of nodes in the live tree (0 when empty).
  [[nodiscard]] std::size_t node_count() const;

  /// Deep structural equality of the live trees (names, values, attributes).
  [[nodiscard]] bool deep_equal(const Document& other) const;

  /// Full deep copy (fresh ids) under a new name.
  [[nodiscard]] std::unique_ptr<Document> clone(std::string new_name) const;

 private:
  friend class Node;

  NodeId allocate_id() noexcept { return next_id_++; }
  void register_node(Node* node);

  /// Hash of (attribute name, value); collisions are told apart on lookup.
  static std::uint64_t attribute_key(std::string_view name,
                                     std::string_view value) noexcept;
  void index_attribute(std::string_view name, std::string_view value,
                       Node& node);
  void unindex_attribute(std::string_view name, std::string_view value,
                         const Node& node);
  /// (Un)indexes every attribute in the subtree rooted at `node`.
  void index_subtree(Node& node);
  void unindex_subtree(const Node& node);

  std::string name_;
  std::unique_ptr<Node> root_;
  NodeId next_id_ = 1;  // 0 is kInvalidNodeId
  std::unordered_map<NodeId, Node*> index_;
  std::unordered_multimap<std::uint64_t, Node*> attribute_index_;
};

}  // namespace dtx::xml
