#include "xpath/evaluator.hpp"

#include <algorithm>
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

/// One evaluation. Its only state is the buffer that equality predicates
/// read element text into, reused for every candidate.
class Evaluation {
 public:
  /// The nodes `steps` select from `contexts`, which are in document order
  /// without duplicates; `may_nest` is false when no context contains
  /// another. Position predicates apply per context; only steps from
  /// contexts that do nest need sorting and de-duplicating.
  std::vector<Node*> run(Steps steps, std::vector<Node*> contexts,
                         bool may_nest) {
    std::vector<Node*> next;
    for (const Step& step : steps) {
      if (contexts.empty()) break;
      // An attribute step selects a subset of the contexts, in order.
      const bool nested = may_nest && step.test != NodeTest::kAttribute &&
                          any_nested(contexts);
      next.clear();
      for (Node* context : contexts) {
        const std::size_t begin = next.size();
        append_candidates(*context, step, next);
        filter(step.predicates, next, begin);
      }
      if (nested) to_document_order(contexts, next);
      may_nest = may_nest || step.axis == Axis::kDescendant;
      contexts.swap(next);
    }
    return contexts;
  }

  /// Applies `predicates` left to right to the candidate list one context
  /// produced, `nodes[begin..]`, in place.
  void filter(const std::vector<Predicate>& predicates,
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

 private:
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

  std::string text_;
};

}  // namespace

bool literal_equals(const std::string& value, const std::string& literal) {
  return equals_literal(value, literal, parse_number(literal));
}

std::vector<xml::Node*> evaluate(const Path& path,
                                 const xml::Document& document) {
  std::vector<Node*> selected;
  if (!document.has_root() || path.empty()) return selected;
  // The first step runs from a virtual document node whose only child is
  // the root element: '/' tests the root, '//' the root and every node below
  // it. An attribute test looks at the root alone, like any attribute step.
  const Step& first = path.steps.front();
  Node* root = document.root();
  if (node_test(*root, first)) selected.push_back(root);
  if (first.axis == Axis::kDescendant && first.test != NodeTest::kAttribute) {
    append_candidates(*root, first, selected);
  }
  Evaluation evaluation;
  evaluation.filter(first.predicates, selected, 0);
  return evaluation.run(Steps(path.steps).subspan(1), std::move(selected),
                        /*may_nest=*/first.axis == Axis::kDescendant);
}

std::vector<xml::Node*> evaluate_relative(const RelativePath& path,
                                          xml::Node& context) {
  return Evaluation().run(path.steps, {&context}, /*may_nest=*/false);
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
