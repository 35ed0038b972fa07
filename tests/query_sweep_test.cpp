// Table-driven XPath sweep over a generated XMark base: every expression
// the workload generator can emit (and several it cannot) evaluated against
// ground truth computed structurally, plus the value-condition extraction
// of guide matching that feeds XDGL's logical locks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <regex>
#include <set>

#include "dataguide/guide_match.hpp"
#include "workload/fragmentation.hpp"
#include "workload/workload_gen.hpp"
#include "workload/xmark.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace dtx {
namespace {

const workload::XmarkData& xmark() {
  static workload::XmarkData data = [] {
    workload::XmarkOptions options;
    options.target_bytes = 50'000;
    options.seed = 99;
    return workload::generate_xmark(options);
  }();
  return data;
}

std::size_t total_items() {
  std::size_t total = 0;
  for (const auto& [continent, ids] : xmark().items_by_continent) {
    (void)continent;
    total += ids.size();
  }
  return total;
}

struct SweepCase {
  const char* expression;
  std::size_t expected;  // SIZE_MAX = computed below
};

class XmarkQuerySweep : public ::testing::TestWithParam<int> {};

TEST_P(XmarkQuerySweep, CountsMatchInventory) {
  const workload::XmarkData& data = xmark();
  const std::size_t persons = data.person_ids.size();
  const std::size_t opens = data.open_auction_ids.size();
  const std::size_t closeds = data.closed_auction_ids.size();
  const std::size_t categories = data.category_ids.size();
  const std::size_t items = total_items();
  const std::size_t europe_items = data.items_by_continent.at("europe").size();

  const SweepCase cases[] = {
      {"/site", 1},
      {"/site/people/person", persons},
      {"/site/people/person/name", persons},
      {"/site/people/person/@id", persons},
      {"/site/people/person/address/city", persons},
      {"/site/people/person/profile/age", persons},
      {"//person", persons},
      {"//person/creditcard", persons},
      {"/site/open_auctions/open_auction", opens},
      {"/site/open_auctions/open_auction/current", opens},
      {"/site/closed_auctions/closed_auction/price", closeds},
      {"/site/categories/category", categories},
      {"//item", items},
      {"//item/price", items},
      {"/site/regions/europe/item", europe_items},
      {"/site/regions/*/item", items},
      {"/site/regions/*/item/name", items},
      {"//item[quantity]", items},           // every item has a quantity
      {"/site/people/person[name]", persons},
      {"/site/nothing", 0},
      {"//nonexistent", 0},
      {"/wrong-root/people", 0},
  };
  const SweepCase& test_case =
      cases[static_cast<std::size_t>(GetParam()) % std::size(cases)];
  auto path = xpath::parse(test_case.expression);
  ASSERT_TRUE(path.is_ok()) << test_case.expression;
  EXPECT_EQ(xpath::evaluate(path.value(), *data.document).size(),
            test_case.expected)
      << test_case.expression;
}

INSTANTIATE_TEST_SUITE_P(Expressions, XmarkQuerySweep,
                         ::testing::Range(0, 22));

TEST(XmarkQueryTest, EveryPersonReachableByIdPredicate) {
  const workload::XmarkData& data = xmark();
  for (const std::string& id : data.person_ids) {
    auto path =
        xpath::parse("/site/people/person[@id='" + id + "']/name");
    ASSERT_TRUE(path.is_ok());
    EXPECT_EQ(xpath::evaluate(path.value(), *data.document).size(), 1u)
        << id;
  }
}

TEST(XmarkQueryTest, EveryOpenAuctionReachable) {
  const workload::XmarkData& data = xmark();
  for (const std::string& id : data.open_auction_ids) {
    auto path = xpath::parse(
        "/site/open_auctions/open_auction[@id='" + id + "']/current");
    ASSERT_TRUE(path.is_ok());
    EXPECT_EQ(xpath::evaluate(path.value(), *data.document).size(), 1u)
        << id;
  }
}

// --- the workload's own shapes -------------------------------------------------

// Every path WorkloadGenerator::make_query / make_update emits, as a query
// or as an update target: X stands for an entity id, C for a continent.
const char* const kWorkloadShapes[] = {
    "/site/people/person/name",
    "/site/people/person[@id=X]/name",
    "/site/people/person[@id=X]/profile/age",
    "//person[@id=X]/emailaddress",
    "/site/people",
    "/site/people/person[@id=X]",
    "/site/people/person[@id=X]/phone",
    "/site/regions/C/item/name",
    "/site/regions/C/item[@id=X]/name",
    "/site/regions/C/item[@id=X]/price",
    "/site/regions/C",
    "/site/open_auctions/open_auction/current",
    "/site/open_auctions/open_auction[@id=X]/current",
    "/site/open_auctions/open_auction[@id=X]/initial",
    "/site/open_auctions/open_auction[@id=X]",
    "/site/closed_auctions/closed_auction/price",
    "/site/closed_auctions/closed_auction[@id=X]/price",
    "/site/categories/category/name",
    "/site/categories/category[@id=X]/name",
    "/site/categories",
};

/// A shape's labels, read off its text: a leading '//', then '/'-separated
/// element names, one of which may carry "[@id=X]".
struct Shape {
  bool descendant_first = false;
  std::vector<std::string> labels;
  std::size_t id_step = SIZE_MAX;
};

Shape split_shape(std::string text) {
  Shape shape;
  shape.descendant_first = text.rfind("//", 0) == 0;
  text.erase(0, shape.descendant_first ? 2 : 1);
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t slash = std::min(text.find('/', start), text.size());
    std::string label = text.substr(start, slash - start);
    if (const std::size_t bracket = label.find("[@id=X]");
        bracket != std::string::npos) {
      shape.id_step = shape.labels.size();
      label.erase(bracket);
    }
    shape.labels.push_back(label);
    start = slash + 1;
  }
  return shape;
}

/// The shape's result found by walking the tree by hand (child lists and
/// attribute lookups only), in document order.
std::vector<xml::Node*> hand_walk(const Shape& shape, const xml::Document& doc,
                                  const std::string& continent,
                                  const std::string& id) {
  const auto label = [&](std::size_t i) {
    return shape.labels[i] == "C" ? continent : shape.labels[i];
  };
  std::vector<xml::Node*> level;
  if (shape.descendant_first) {
    doc.root()->visit([&](const xml::Node& node) {
      if (node.is_element() && node.name() == label(0)) {
        level.push_back(const_cast<xml::Node*>(&node));
      }
      return true;
    });
  } else if (doc.root()->name() == label(0)) {
    level.push_back(doc.root());
  }
  for (std::size_t i = 0; i < shape.labels.size(); ++i) {
    if (i > 0) {
      std::vector<xml::Node*> next;
      for (xml::Node* node : level) {
        for (xml::Node* child : node->children_named(label(i))) {
          next.push_back(child);
        }
      }
      level = std::move(next);
    }
    if (i == shape.id_step) {
      std::erase_if(level, [&](xml::Node* node) {
        const std::string* value = node->attribute("id");
        return value == nullptr || *value != id;
      });
    }
  }
  return level;
}

const std::vector<std::string>& section_ids(const std::string& shape,
                                            const std::string& continent) {
  const workload::XmarkData& data = xmark();
  if (shape.find("person") != std::string::npos) return data.person_ids;
  if (shape.find("regions") != std::string::npos) {
    return data.items_by_continent.at(continent);
  }
  if (shape.find("open_auction") != std::string::npos) {
    return data.open_auction_ids;
  }
  if (shape.find("closed_auction") != std::string::npos) {
    return data.closed_auction_ids;
  }
  return data.category_ids;
}

TEST(XmarkShapeCorpusTest, EveryShapeMatchesAHandWalk) {
  const workload::XmarkData& data = xmark();
  for (const char* shape_text : kWorkloadShapes) {
    const std::string shape_string = shape_text;
    const Shape shape = split_shape(shape_string);
    const bool per_continent = shape_string.find("/C") != std::string::npos;
    for (std::size_t c = 0; c < (per_continent ? workload::kContinentCount : 1);
         ++c) {
      const std::string continent = workload::kContinents[c];
      const std::vector<std::string>& ids =
          section_ids(shape_string, continent);
      ASSERT_FALSE(ids.empty()) << shape_string << " " << continent;
      // First, middle and last entity, and one that does not exist.
      const std::vector<std::string> picks = {ids.front(), ids[ids.size() / 2],
                                              ids.back(), "none"};
      for (const std::string& id : picks) {
        std::string expression =
            std::regex_replace(shape_string, std::regex("X"), "'" + id + "'");
        expression =
            std::regex_replace(expression, std::regex("/C(/|$)"),
                               "/" + continent + "$1");
        auto path = xpath::parse(expression);
        ASSERT_TRUE(path.is_ok()) << expression;
        const std::vector<xml::Node*> expected =
            hand_walk(shape, *data.document, continent, id);
        if (id != "none") {
          EXPECT_FALSE(expected.empty()) << expression;
        }
        EXPECT_EQ(xpath::evaluate(path.value(), *data.document), expected)
            << expression;
        std::vector<std::string> strings;
        for (xml::Node* node : expected) strings.push_back(node->deep_text());
        EXPECT_EQ(xpath::evaluate_strings(path.value(), *data.document),
                  strings)
            << expression;
        if (shape.id_step == SIZE_MAX) break;  // no id to vary
      }
    }
  }
}

TEST(XmarkShapeCorpusTest, CorpusCoversEveryGeneratedOperation) {
  const workload::XmarkData& data = xmark();
  const std::vector<workload::Fragment> fragments =
      workload::fragment_xmark(data, 8);
  workload::WorkloadOptions options;
  options.update_txn_fraction = 0.5;
  options.update_op_fraction = 0.5;
  workload::WorkloadGenerator generator(fragments, options);
  const std::set<std::string> corpus(std::begin(kWorkloadShapes),
                                     std::end(kWorkloadShapes));
  const std::regex id_literal(R"(\[@id='[^']*'\])");
  std::string continents;
  for (const char* continent : workload::kContinents) {
    continents += continents.empty() ? "" : "|";
    continents += continent;
  }
  const std::regex continent("/site/regions/(" + continents + ")");
  std::set<std::string> seen;
  util::Rng rng(7);
  for (int txn = 0; txn < 2000; ++txn) {
    for (const std::string& op : generator.make_transaction(rng)) {
      // The op's path is its first word that starts with '/'.
      const std::size_t at = op.find(" /");
      ASSERT_NE(at, std::string::npos) << op;
      std::string path = op.substr(at + 1, op.find(' ', at + 1) - at - 1);
      path = std::regex_replace(path, id_literal, "[@id=X]");
      path = std::regex_replace(path, continent, "/site/regions/C");
      EXPECT_TRUE(corpus.count(path) == 1) << op;
      seen.insert(path);
    }
  }
  // 2000 transactions reach every shape.
  EXPECT_EQ(seen, corpus);
}

// --- guide condition extraction ------------------------------------------------

TEST(GuideConditionTest, PointPredicateConditionsTargetAndDescendants) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path =
      xpath::parse("/site/people/person[@id='person1']/profile/age");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  ASSERT_EQ(match.targets.size(), 1u);
  EXPECT_EQ(match.targets[0].node->label_path(),
            "/site/people/person/profile/age");
  // The equality predicate's condition rides down to the final target.
  EXPECT_EQ(match.targets[0].condition, "@id=person1");
  // The predicate's own lock target (the @id guide node) carries it too.
  ASSERT_EQ(match.predicate_targets.size(), 1u);
  EXPECT_EQ(match.predicate_targets[0].node->label_path(),
            "/site/people/person/@id");
}

TEST(GuideConditionTest, ScansAreUnconditioned) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse("/site/people/person/name");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  ASSERT_EQ(match.targets.size(), 1u);
  EXPECT_TRUE(match.targets[0].condition.empty());
}

TEST(GuideConditionTest, NestedPredicatesConcatenate) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse(
      "/site/people/person[@id='person2'][name='x']/phone");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  ASSERT_EQ(match.targets.size(), 1u);
  // Both equality predicates restrict the instance set; the combined key
  // keeps them in lexical order.
  EXPECT_EQ(match.targets[0].condition, "@id=person2&name=x");
}

TEST(GuideConditionTest, ChildValuePredicateConditions) {
  const workload::XmarkData& data = xmark();
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse("//item[name='Clock']/price");
  ASSERT_TRUE(path.is_ok());
  const auto match = dataguide::match(path.value(), *guide);
  EXPECT_FALSE(match.targets.empty());
  for (const auto& target : match.targets) {
    EXPECT_EQ(target.condition, "name=Clock");
  }
  // Predicate targets: the name guide nodes under each continent's item.
  EXPECT_FALSE(match.predicate_targets.empty());
}

}  // namespace
}  // namespace dtx
