#include "xml/document.hpp"

#include <cassert>

#include "util/hash.hpp"

namespace dtx::xml {

Document::Document(std::string name) : name_(std::move(name)) {}

Node* Document::set_root(std::unique_ptr<Node> root) {
  assert(root == nullptr || root->is_element());
  assert(root == nullptr ||
         (root->parent_ == nullptr && root->document_ == this));
  if (root_ != nullptr) unregister_subtree(*root_);
  attribute_index_.clear();
  root_ = std::move(root);
  if (root_ != nullptr) index_subtree(*root_);
  return root_.get();
}

std::unique_ptr<Node> Document::create_element(std::string tag) {
  auto node = std::make_unique<Node>(NodeKind::kElement, allocate_id(),
                                     std::move(tag));
  register_node(node.get());
  return node;
}

std::unique_ptr<Node> Document::create_text(std::string text) {
  auto node =
      std::make_unique<Node>(NodeKind::kText, allocate_id(), std::move(text));
  register_node(node.get());
  return node;
}

void Document::register_node(Node* node) {
  node->document_ = this;
  index_[node->id()] = node;
}

Node* Document::find(NodeId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : it->second;
}

void Document::unregister_subtree(const Node& node) {
  index_.erase(node.id());
  for (const auto& child : node.children()) unregister_subtree(*child);
}

std::uint64_t Document::attribute_key(std::string_view name,
                                      std::string_view value) noexcept {
  // '\0' cannot occur in a name, so no two pairs hash the same bytes.
  return util::fnv1a64(value,
                       util::fnv1a64(std::string_view("", 1),
                                     util::fnv1a64(name)));
}

void Document::index_attribute(std::string_view name, std::string_view value,
                               Node& node) {
  attribute_index_.emplace(attribute_key(name, value), &node);
}

void Document::unindex_attribute(std::string_view name, std::string_view value,
                                 const Node& node) {
  const auto [begin, end] =
      attribute_index_.equal_range(attribute_key(name, value));
  for (auto it = begin; it != end; ++it) {
    if (it->second == &node) {
      attribute_index_.erase(it);
      return;
    }
  }
  assert(false && "attribute missing from the index");
}

void Document::index_subtree(Node& node) {
  for (const auto& [name, value] : node.attributes_) {
    index_attribute(name, value, node);
  }
  for (const auto& child : node.children_) index_subtree(*child);
}

void Document::unindex_subtree(const Node& node) {
  for (const auto& [name, value] : node.attributes_) {
    unindex_attribute(name, value, node);
  }
  for (const auto& child : node.children_) unindex_subtree(*child);
}

std::size_t Document::node_count() const {
  return root_ == nullptr ? 0 : root_->subtree_size();
}

bool Document::deep_equal(const Document& other) const {
  if ((root_ == nullptr) != (other.root_ == nullptr)) return false;
  return root_ == nullptr || root_->deep_equal(*other.root_);
}

std::unique_ptr<Document> Document::clone(std::string new_name) const {
  auto copy = std::make_unique<Document>(std::move(new_name));
  if (root_ != nullptr) copy->set_root(root_->clone(*copy));
  return copy;
}

}  // namespace dtx::xml
