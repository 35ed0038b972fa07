// Differential test of the attribute-value index (xml::Document) and the
// XPath steps it answers (xpath::evaluate): documents from the XMark
// generator, a parsed hand-made document and an xml::Builder document go
// through random XUpdate operations with undo-log rollbacks, clones, root
// replacement and direct attribute edits. After every step each attribute
// equality query must select exactly what a hand walk selects, and the
// index must hold exactly the attributes of the elements under the root.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "workload/xmark.hpp"
#include "xml/builder.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"
#include "xupdate/applier.hpp"
#include "xupdate/undo_log.hpp"

namespace dtx {
namespace {

using xml::Document;
using xml::Node;

const std::vector<std::string> kNames = {"x", "y", "person", "item"};
const std::vector<std::string> kAttributes = {"id", "k", "n"};
const std::vector<std::string> kValues = {"v1", "v2", "person0", "item1",
                                          "7",  "007", "7.0"};

std::string pick(util::Rng& rng, const std::vector<std::string>& from) {
  return from[rng.next_index(from.size())];
}

std::vector<Node*> elements(const Document& doc) {
  std::vector<Node*> out;
  doc.root()->visit([&](const Node& node) {
    if (node.is_element()) out.push_back(const_cast<Node*>(&node));
    return true;
  });
  return out;
}

/// A path that selects exactly `node`: '*' steps with element positions.
std::string path_to(const Node& node) {
  if (node.parent() == nullptr) return "/" + node.name();
  std::size_t position = 0;
  for (const auto& sibling : node.parent()->children()) {
    if (sibling->is_element()) ++position;
    if (sibling.get() == &node) break;
  }
  return path_to(*node.parent()) + "/*[" + std::to_string(position) + "]";
}

// --- the hand walk -----------------------------------------------------------

/// One step of a query: axis, element name ("*" for any) and optionally an
/// attribute equality and a trailing position, in that order.
struct HandStep {
  bool descendant = false;
  std::string name;
  std::string attribute;  // empty: no predicate
  std::string literal;
  std::size_t position = 0;  // 0: none
};

std::string to_text(const std::vector<HandStep>& steps) {
  std::string out;
  for (const HandStep& step : steps) {
    out += step.descendant ? "//" : "/";
    out += step.name;
    if (!step.attribute.empty()) {
      out += "[@" + step.attribute + "='" + step.literal + "']";
    }
    if (step.position > 0) out += "[" + std::to_string(step.position) + "]";
  }
  return out;
}

using Order = std::unordered_map<const Node*, std::size_t>;

/// Each node's position in document order.
Order document_order(const Document& doc) {
  Order order;
  doc.root()->visit([&](const Node& node) {
    order.emplace(&node, order.size());
    return true;
  });
  return order;
}

/// The nodes `steps` select, by child lists and attribute reads only.
std::vector<Node*> hand_walk(const std::vector<HandStep>& steps,
                             const Document& doc, const Order& order) {
  std::vector<Node*> contexts = {nullptr};  // the document node
  for (const HandStep& step : steps) {
    std::vector<Node*> next;
    for (Node* context : contexts) {
      std::vector<Node*> reached;
      const auto collect = [&](auto& self, Node& node) -> void {
        reached.push_back(&node);
        if (step.descendant) {
          for (const auto& child : node.children()) self(self, *child);
        }
      };
      if (context == nullptr) {
        collect(collect, *doc.root());
      } else {
        for (const auto& child : context->children()) collect(collect, *child);
      }
      std::vector<Node*> kept;
      for (Node* node : reached) {
        if (!node->is_element()) continue;
        if (step.name != "*" && node->name() != step.name) continue;
        if (!step.attribute.empty()) {
          const std::string* value = node->attribute(step.attribute);
          if (value == nullptr ||
              !xpath::literal_equals(*value, step.literal)) {
            continue;
          }
        }
        kept.push_back(node);
      }
      if (step.position > 0) {
        kept = kept.size() >= step.position
                   ? std::vector<Node*>{kept[step.position - 1]}
                   : std::vector<Node*>{};
      }
      next.insert(next.end(), kept.begin(), kept.end());
    }
    std::sort(next.begin(), next.end(), [&](Node* a, Node* b) {
      return order.at(a) < order.at(b);
    });
    next.erase(std::unique(next.begin(), next.end()), next.end());
    contexts = std::move(next);
  }
  return contexts;
}

/// Query shapes around one attribute equality: both axes, '*', a position
/// after the predicate, many and nested contexts, the root itself.
std::vector<std::vector<HandStep>> shapes(const std::string& root,
                                          const std::string& attribute,
                                          const std::string& literal) {
  const auto eq = [&](bool descendant, std::string name,
                      std::size_t position = 0) {
    return HandStep{descendant, std::move(name), attribute, literal, position};
  };
  const HandStep root_step{false, root, "", "", 0};
  const HandStep any_child{false, "*", "", "", 0};
  const HandStep any_below{true, "*", "", "", 0};
  return {
      {eq(true, "*")},
      {eq(true, "x")},
      {eq(true, "person")},
      {eq(true, "*", 2)},
      {root_step, eq(false, "*")},
      {root_step, eq(true, "*")},
      {root_step, eq(true, "item", 1)},
      {root_step, any_child, eq(false, "*", 1)},
      {any_below, eq(false, "x")},
      {any_below, eq(true, "*", 1)},
      {eq(false, root)},
      {eq(true, root)},
      {eq(true, "*"), any_child},
  };
}

/// Every query over the attribute names and the literals `literals` equals
/// its hand walk, and the index holds exactly the tree's attributes.
void check(const Document& doc, const std::vector<std::string>& literals,
           const std::string& when) {
  std::unordered_map<std::string, std::size_t> expected_counts;
  for (Node* node : elements(doc)) {
    for (const auto& [name, value] : node->attributes()) {
      ++expected_counts[name + '\0' + value];
    }
  }
  for (const auto& [key, count] : expected_counts) {
    const std::size_t split = key.find('\0');
    std::size_t found = 0;
    doc.for_each_with_attribute(key.substr(0, split), key.substr(split + 1),
                                [&](Node&) { ++found; });
    ASSERT_EQ(found, count) << when << ": index entries for " << key;
  }
  const Order order = document_order(doc);
  for (const std::string& attribute : kAttributes) {
    for (const std::string& literal : literals) {
      std::size_t found = 0;
      doc.for_each_with_attribute(attribute, literal, [&](Node&) { ++found; });
      ASSERT_EQ(found, expected_counts[attribute + '\0' + literal])
          << when << ": stale index entries for @" << attribute << "="
          << literal;
      for (const auto& shape : shapes(doc.root()->name(), attribute, literal)) {
        const std::string text = to_text(shape);
        auto path = xpath::parse(text);
        ASSERT_TRUE(path.is_ok()) << text;
        ASSERT_EQ(xpath::evaluate(path.value(), doc),
                  hand_walk(shape, doc, order))
            << when << ": " << text;
      }
    }
  }
}

std::string random_fragment(util::Rng& rng) {
  std::string out = "<" + pick(rng, kNames);
  const std::string name = out.substr(1);
  if (rng.next_bool(0.8)) {
    out += " " + pick(rng, kAttributes) + "=\"" + pick(rng, kValues) + "\"";
  }
  out += ">";
  if (rng.next_bool(0.5)) {
    out += "<" + pick(rng, kNames) + " " + pick(rng, kAttributes) + "=\"" +
           pick(rng, kValues) + "\"/>";
  }
  out += "t</" + name + ">";
  return out;
}

/// Runs `steps` random mutations on `doc`, checking after each one.
void run_differential(std::unique_ptr<Document> doc, std::uint64_t seed,
                      std::size_t steps) {
  util::Rng rng(seed);
  xupdate::UndoLog undo;
  std::size_t applied = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<Node*> all = elements(*doc);
    Node* target = all[rng.next_index(all.size())];
    Node* inner = all.size() > 1 ? all[1 + rng.next_index(all.size() - 1)]
                                 : nullptr;  // never the root
    const std::string target_path = path_to(*target);
    const std::string by_value = "//*[@" + pick(rng, kAttributes) + "='" +
                                 pick(rng, kValues) + "']";
    std::string what;
    util::Result<xupdate::UpdateOp> op =
        util::Status(util::Code::kInvalidArgument, "none");
    switch (rng.next_below(11)) {
      case 0:
      case 1:
        op = xupdate::make_insert(rng.next_bool(0.2) ? by_value : target_path,
                                  random_fragment(rng));
        break;
      case 2:
        if (inner != nullptr) {
          op = xupdate::make_insert(
              path_to(*inner), random_fragment(rng),
              rng.next_bool(0.5) ? xupdate::InsertWhere::kBefore
                                 : xupdate::InsertWhere::kAfter);
        }
        break;
      case 3:
        if (inner != nullptr) {
          op = xupdate::make_remove(rng.next_bool(0.2) ? by_value
                                                       : path_to(*inner));
        }
        break;
      case 4:
        if (inner != nullptr) {
          op = xupdate::make_rename(path_to(*inner), pick(rng, kNames));
        }
        break;
      case 5:
        op = xupdate::make_change(rng.next_bool(0.3) ? by_value : target_path,
                                  "c");
        break;
      case 6:
        if (inner != nullptr) {
          op = xupdate::make_transpose(path_to(*inner), target_path);
        }
        break;
      case 7:
        what = "undo_to";
        undo.undo_to(rng.next_below(undo.size() + 1), *doc);
        break;
      case 8:
        what = "set_attribute";
        target->set_attribute(pick(rng, kAttributes), pick(rng, kValues));
        break;
      case 9:
        what = "remove_attribute";
        target->remove_attribute(pick(rng, kAttributes));
        break;
      default:
        undo.commit(*doc);
        if (rng.next_bool(0.5)) {
          what = "clone";
          doc = doc->clone(doc->name());
        } else {
          what = "set_root";
          doc->set_root(doc->root()->clone(*doc));
        }
        break;
    }
    if (op.is_ok()) {
      what = op.value().to_string();
      if (xupdate::apply(op.value(), *doc, undo, nullptr).is_ok()) ++applied;
    }
    // The pool, plus values that elements carry now.
    std::vector<std::string> literals = kValues;
    all = elements(*doc);
    for (int i = 0; i < 2; ++i) {
      const auto& attributes = all[rng.next_index(all.size())]->attributes();
      if (!attributes.empty()) literals.push_back(attributes.front().second);
    }
    check(*doc, literals,
          "step " + std::to_string(step) + " (" + what + ")");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(applied, steps / 4) << "too few operations applied";
}

TEST(AttributeIndexDifferentialTest, XmarkDocument) {
  workload::XmarkOptions options;
  options.target_bytes = 12'000;
  options.seed = 7;
  run_differential(workload::generate_xmark(options).document, 1, 150);
}

TEST(AttributeIndexDifferentialTest, HandMadeDocument) {
  auto doc = xml::parse(
      R"(<r id="v1" k="v2">
           <x id="v1"><x k="v1"><y id="v1" n="007"/></x><y k="v1"/></x>
           <person id="person0"><x id="v2"/>t</person>
           <x k="v1" n="7"><item id="item1"/><item id="item1" k="v1"/></x>
         </r>)",
      "hand");
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  run_differential(std::move(doc).value(), 2, 200);
}

TEST(AttributeIndexDifferentialTest, BuilderDocument) {
  // The builder attaches each child first and sets its attributes after,
  // so the index sees them through set_attribute on attached nodes.
  xml::Builder b("built");
  b.root("r").attr("k", "v1");
  for (int i = 0; i < 4; ++i) {
    b.child("x").attr("id", i % 2 == 0 ? "v1" : "v2");
    b.child("y").attr("k", "v1").attr("n", i == 0 ? "7.0" : "x").up();
    b.leaf("item", "t");
    b.up();
  }
  run_differential(b.take(), 3, 200);
}

TEST(AttributeIndexTest, BuilderAttributesAreIndexed) {
  xml::Builder b("built");
  b.root("r").child("x").attr("id", "a").up().child("x").attr("id", "b");
  auto doc = b.take();
  auto path = xpath::parse("/r/x[@id='b']");
  ASSERT_TRUE(path.is_ok());
  const auto selected = xpath::evaluate(path.value(), *doc);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], doc->root()->child(1));
}

}  // namespace
}  // namespace dtx
