#include "xpath/evaluator.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <span>

namespace dtx::xpath {

namespace {

using xml::Node;
using Steps = std::span<const Step>;

/// The step's node test alone (no axis, no predicates). An attribute step
/// selects the element that owns the attribute, so it tests that element.
bool node_test(const Node& node, const Step& step) {
  switch (step.test) {
    case NodeTest::kName:
      return node.is_element() && node.name() == step.name;
    case NodeTest::kWildcard: return node.is_element();
    case NodeTest::kText: return node.is_text();
    case NodeTest::kAttribute: return node.attribute(step.name) != nullptr;
  }
  return false;
}

/// Pre-order walk over the proper descendants of `node`. Stops as soon as
/// `fn` returns true, and reports whether it did.
template <typename Fn>
bool walk_descendants(Node& node, Fn& fn) {
  for (const auto& child : node.children()) {
    if (fn(*child) || walk_descendants(*child, fn)) return true;
  }
  return false;
}

/// Calls `fn` on each node that `step`'s axis and node test select from
/// `context`, in document order, before predicates. Stops as soon as `fn`
/// returns true, and reports whether it did.
template <typename Fn>
bool for_each_candidate(Node& context, const Step& step, Fn&& fn) {
  if (step.test == NodeTest::kAttribute) {
    return node_test(context, step) && fn(context);
  }
  const auto visit = [&](Node& node) {
    return node_test(node, step) && fn(node);
  };
  if (step.axis == Axis::kChild) {
    for (const auto& child : context.children()) {
      if (visit(*child)) return true;
    }
    return false;
  }
  return walk_descendants(context, visit);
}

void append_candidates(Node& context, const Step& step,
                       std::vector<Node*>& out) {
  for_each_candidate(context, step, [&](Node& node) {
    out.push_back(&node);
    return false;
  });
}

/// The `[@a = 'literal']` predicate that lets `step` be answered from the
/// document's attribute index, or nullptr. It must be the first predicate
/// of a name or '*' step, and its literal must not be a number: a numeric
/// literal also matches other spellings of the number ('7' and '007').
const Predicate* index_predicate(const Step& step) {
  if (step.test != NodeTest::kName && step.test != NodeTest::kWildcard) {
    return nullptr;
  }
  if (step.predicates.empty()) return nullptr;
  const Predicate& first = step.predicates.front();
  if (first.kind != PredicateKind::kEquals || first.literal_number ||
      first.path.steps.size() != 1) {
    return nullptr;
  }
  const Step& attribute = first.path.steps.front();
  return attribute.test == NodeTest::kAttribute && attribute.predicates.empty()
             ? &first
             : nullptr;
}

/// True when `a` comes before `b` in document order (both in one tree).
bool precedes(const Node& a, const Node& b) {
  const Node* x = &a;
  const Node* y = &b;
  std::size_t depth_x = x->depth();
  std::size_t depth_y = y->depth();
  for (; depth_x > depth_y; --depth_x) x = x->parent();
  for (; depth_y > depth_x; --depth_y) y = y->parent();
  if (x == y) return x == &a && &a != &b;  // a is an ancestor of b
  while (x->parent() != y->parent()) {
    x = x->parent();
    y = y->parent();
  }
  for (const auto& sibling : x->parent()->children()) {
    if (sibling.get() == x) return true;
    if (sibling.get() == y) return false;
  }
  return false;
}

bool has_position_predicate(const Step& step) {
  return std::any_of(step.predicates.begin(), step.predicates.end(),
                     [](const Predicate& predicate) {
                       return predicate.kind == PredicateKind::kPosition;
                     });
}

/// True when a node of `nodes` (in document order) contains another. A
/// subtree is contiguous in document order, so neighbours suffice.
bool any_nested(const std::vector<Node*>& nodes) {
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i - 1]->contains(*nodes[i])) return true;
  }
  return false;
}

/// Puts `nodes`, each a proper descendant of some node in `contexts` (which
/// are in document order), into document order without duplicates: one
/// pre-order walk over the outermost contexts' subtrees.
void to_document_order(const std::vector<Node*>& contexts,
                       std::vector<Node*>& nodes) {
  std::vector<Node*> wanted = nodes;
  std::sort(wanted.begin(), wanted.end());
  nodes.clear();
  const auto emit = [&](Node& node) {
    if (std::binary_search(wanted.begin(), wanted.end(), &node)) {
      nodes.push_back(&node);
    }
    return false;
  };
  const Node* outer = nullptr;
  for (Node* context : contexts) {
    if (outer != nullptr && outer->contains(*context)) continue;
    outer = context;
    walk_descendants(*context, emit);
  }
}

bool equals_literal(const std::string& value, const std::string& literal,
                    std::optional<double> literal_number) {
  if (literal_number) {
    if (const std::optional<double> number = parse_number(value)) {
      return *number == *literal_number;
    }
  }
  return value == literal;
}

/// One evaluation over one document. Its state is buffers reused from
/// step to step and, for equality predicates, from candidate to candidate.
class Evaluation {
 public:
  explicit Evaluation(const xml::Document& document) : document_(document) {}

  /// The nodes `steps` select from `contexts`, which are in document order
  /// without duplicates; a null context is the virtual document node whose
  /// only child is the root element. Position predicates apply per context;
  /// only steps from contexts that contain one another need sorting and
  /// de-duplicating.
  std::vector<Node*> run(Steps steps, std::vector<Node*> contexts) {
    bool may_nest = false;
    std::vector<Node*> next;
    for (const Step& step : steps) {
      if (contexts.empty()) break;
      // An attribute step selects a subset of the contexts, in order.
      const bool nested = may_nest && step.test != NodeTest::kAttribute &&
                          any_nested(contexts);
      next.clear();
      if (const Predicate* equals = index_predicate(step)) {
        append_indexed(step, *equals, contexts, next);
      } else {
        for (Node* context : contexts) {
          const std::size_t begin = next.size();
          append_walked(context, step, next);
          filter(step.predicates, next, begin);
        }
      }
      if (nested) to_document_order(contexts, next);
      may_nest = may_nest || step.axis == Axis::kDescendant;
      contexts.swap(next);
    }
    return contexts;
  }

 private:
  /// Applies `predicates` left to right to the candidate list one context
  /// produced, `nodes[begin..]`, in place.
  void filter(std::span<const Predicate> predicates,
              std::vector<Node*>& nodes, std::size_t begin) {
    for (const Predicate& predicate : predicates) {
      if (predicate.kind == PredicateKind::kPosition) {
        const bool present = predicate.position <= nodes.size() - begin;
        if (present) nodes[begin] = nodes[begin + predicate.position - 1];
        nodes.resize(present ? begin + 1 : begin);
        continue;
      }
      nodes.erase(std::remove_if(nodes.begin() +
                                     static_cast<std::ptrdiff_t>(begin),
                                 nodes.end(),
                                 [&](Node* node) {
                                   return !holds(*node, predicate);
                                 }),
                  nodes.end());
    }
  }

  /// Appends the nodes `step`'s axis and node test select from `context`.
  void append_walked(Node* context, const Step& step,
                     std::vector<Node*>& out) {
    if (context != nullptr) {
      append_candidates(*context, step, out);
      return;
    }
    // From the document node, '/' tests the root and '//' the root and
    // every node below it. An attribute test looks at the root alone.
    Node* root = document_.root();
    if (node_test(*root, step)) out.push_back(root);
    if (step.axis == Axis::kDescendant && step.test != NodeTest::kAttribute) {
      append_candidates(*root, step, out);
    }
  }

  /// Appends what `step` selects from each context in turn, as the walk
  /// would, but starts from the elements the attribute index holds for the
  /// step's first predicate `equals`. A hit belongs to a context that is
  /// its parent (child axis) or any ancestor (descendant axis); each
  /// context's hits go out in document order and then through the step's
  /// remaining predicates.
  void append_indexed(const Step& step, const Predicate& equals,
                      const std::vector<Node*>& contexts,
                      std::vector<Node*>& next) {
    by_address_.clear();
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      by_address_.emplace_back(contexts[i], i);
    }
    std::sort(by_address_.begin(), by_address_.end(), std::less<>());
    matches_.clear();
    document_.for_each_with_attribute(
        equals.path.steps.front().name, equals.literal, [&](Node& hit) {
          if (!node_test(hit, step)) return;
          for (Node* up = hit.parent();; up = up->parent()) {
            if (const auto at = context_position(up)) {
              matches_.emplace_back(*at, &hit);
            }
            if (up == nullptr || step.axis == Axis::kChild) return;
          }
        });
    std::sort(matches_.begin(), matches_.end(),
              [](const auto& left, const auto& right) {
                return left.first != right.first
                           ? left.first < right.first
                           : precedes(*left.second, *right.second);
              });
    const std::span<const Predicate> rest =
        std::span(step.predicates).subspan(1);
    for (std::size_t i = 0; i < matches_.size();) {
      const std::size_t begin = next.size();
      const std::size_t context = matches_[i].first;
      for (; i < matches_.size() && matches_[i].first == context; ++i) {
        next.push_back(matches_[i].second);
      }
      filter(rest, next, begin);
    }
  }

  /// Position of `node` in the contexts `by_address_` was built from (null
  /// is the document node).
  std::optional<std::size_t> context_position(const Node* node) const {
    const auto it = std::lower_bound(
        by_address_.begin(), by_address_.end(), node,
        [](const auto& entry, const Node* key) {
          return std::less<const Node*>()(entry.first, key);
        });
    if (it == by_address_.end() || it->first != node) return std::nullopt;
    return it->second;
  }

  /// An existence or equality predicate asks whether any node its path
  /// reaches passes, so it stops at the first one and builds no node set.
  bool holds(Node& candidate, const Predicate& predicate) {
    const Steps steps = predicate.path.steps;
    const Step& last = steps.back();
    const auto accept = [&](Node& node) {
      if (predicate.kind == PredicateKind::kExists) return true;
      if (last.test == NodeTest::kAttribute) {
        return equals_literal(*node.attribute(last.name), predicate.literal,
                              predicate.literal_number);
      }
      text_.clear();
      node.append_deep_text(text_);
      return equals_literal(text_, predicate.literal,
                            predicate.literal_number);
    };
    return any_match(candidate, steps, accept);
  }

  template <typename Accept>
  bool any_match(Node& context, Steps steps, const Accept& accept) {
    if (steps.empty()) return accept(context);
    const Step& step = steps.front();
    const Steps rest = steps.subspan(1);
    if (!has_position_predicate(step)) {
      return for_each_candidate(context, step, [&](Node& node) {
        for (const Predicate& predicate : step.predicates) {
          if (!holds(node, predicate)) return false;
        }
        return any_match(node, rest, accept);
      });
    }
    // A position predicate indexes this context's whole candidate list.
    std::vector<Node*> candidates;
    append_candidates(context, step, candidates);
    filter(step.predicates, candidates, 0);
    return std::any_of(candidates.begin(), candidates.end(), [&](Node* node) {
      return any_match(*node, rest, accept);
    });
  }

  const xml::Document& document_;
  /// The contexts of the step append_indexed answers, by address, with
  /// their positions; and its (context position, hit) pairs.
  std::vector<std::pair<const Node*, std::size_t>> by_address_;
  std::vector<std::pair<std::size_t, Node*>> matches_;
  std::string text_;
};

}  // namespace

bool literal_equals(const std::string& value, const std::string& literal) {
  return equals_literal(value, literal, parse_number(literal));
}

std::vector<xml::Node*> evaluate(const Path& path,
                                 const xml::Document& document) {
  if (!document.has_root() || path.empty()) return {};
  return Evaluation(document).run(path.steps, {nullptr});
}

std::vector<std::string> evaluate_strings(const Path& path,
                                          const xml::Document& document) {
  const std::vector<xml::Node*> nodes = evaluate(path, document);
  std::vector<std::string> out(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (path.targets_attribute()) {
      out[i] = *nodes[i]->attribute(path.steps.back().name);
    } else {
      nodes[i]->append_deep_text(out[i]);
    }
  }
  return out;
}

}  // namespace dtx::xpath
