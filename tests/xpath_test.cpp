#include <gtest/gtest.h>

#include "xml/builder.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace dtx::xpath {
namespace {

using xml::Document;
using xml::Node;

std::unique_ptr<Document> auction_sample() {
  auto result = xml::parse(R"(
    <site>
      <people>
        <person id="p1"><name>Ana</name><age>30</age></person>
        <person id="p2"><name>Bruno</name><age>41</age>
          <watches><watch open_auction="a1"/></watches>
        </person>
        <person id="p3"><name>Carla</name></person>
      </people>
      <regions>
        <europe>
          <item id="i1"><name>Clock</name><price>10.30</price></item>
          <item id="i2"><name>Vase</name><price>99</price></item>
        </europe>
        <asia>
          <item id="i3"><name>Clock</name><price>7</price></item>
        </asia>
      </regions>
    </site>)",
                           "auction");
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

// --- parsing ----------------------------------------------------------------

TEST(XPathParseTest, SimpleAbsolutePath) {
  auto path = parse("/site/people/person");
  ASSERT_TRUE(path.is_ok()) << path.status().to_string();
  ASSERT_EQ(path.value().steps.size(), 3u);
  EXPECT_EQ(path.value().steps[0].name, "site");
  EXPECT_EQ(path.value().steps[2].axis, Axis::kChild);
}

TEST(XPathParseTest, DescendantAxis) {
  auto path = parse("//person/name");
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(path.value().steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(path.value().steps[1].axis, Axis::kChild);
}

TEST(XPathParseTest, PredicatesParsed) {
  auto path = parse("/site/people/person[@id='p2']/name");
  ASSERT_TRUE(path.is_ok()) << path.status().to_string();
  const Step& person = path.value().steps[2];
  ASSERT_EQ(person.predicates.size(), 1u);
  EXPECT_EQ(person.predicates[0].kind, PredicateKind::kEquals);
  EXPECT_EQ(person.predicates[0].literal, "p2");
  EXPECT_EQ(person.predicates[0].path.steps[0].test, NodeTest::kAttribute);
}

TEST(XPathParseTest, ChildValuePredicate) {
  auto path = parse("/site//item[name='Clock']");
  ASSERT_TRUE(path.is_ok());
  const Step& item = path.value().steps[1];
  ASSERT_EQ(item.predicates.size(), 1u);
  EXPECT_EQ(item.predicates[0].path.steps[0].name, "name");
}

TEST(XPathParseTest, PositionPredicate) {
  auto path = parse("/site/people/person[2]");
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(path.value().steps[2].predicates[0].kind,
            PredicateKind::kPosition);
  EXPECT_EQ(path.value().steps[2].predicates[0].position, 2u);
}

TEST(XPathParseTest, WildcardAndText) {
  auto path = parse("/site/*/person/text()");
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(path.value().steps[1].test, NodeTest::kWildcard);
  EXPECT_EQ(path.value().steps[3].test, NodeTest::kText);
}

TEST(XPathParseTest, AttributeFinalStep) {
  auto path = parse("/site/people/person/@id");
  ASSERT_TRUE(path.is_ok());
  EXPECT_TRUE(path.value().targets_attribute());
}

TEST(XPathParseTest, AttributeMidPathRejected) {
  EXPECT_FALSE(parse("/site/@id/person").is_ok());
}

TEST(XPathParseTest, RelativePathParsed) {
  auto rel = parse_relative("watches/watch/@open_auction");
  ASSERT_TRUE(rel.is_ok()) << rel.status().to_string();
  EXPECT_EQ(rel.value().steps.size(), 3u);
}

TEST(XPathParseTest, ErrorCases) {
  EXPECT_FALSE(parse("").is_ok());
  EXPECT_FALSE(parse("site/people").is_ok());       // not absolute
  EXPECT_FALSE(parse("/site[").is_ok());            // unterminated predicate
  EXPECT_FALSE(parse("/site/people/person[0]").is_ok());  // 0 position
  EXPECT_FALSE(parse("/site/$bad").is_ok());        // bad character
  EXPECT_FALSE(parse("/site/people ]").is_ok());    // trailing tokens
  EXPECT_FALSE(parse("/a[b='unterminated]").is_ok());
}

TEST(XPathParseTest, LiteralNumberRecorded) {
  auto path = parse("/r/a[@n=40][@id='p2'][name='10.50']");
  ASSERT_TRUE(path.is_ok()) << path.status().to_string();
  const auto& predicates = path.value().steps[1].predicates;
  ASSERT_EQ(predicates.size(), 3u);
  EXPECT_EQ(predicates[0].literal_number, 40.0);
  EXPECT_FALSE(predicates[1].literal_number.has_value());
  EXPECT_EQ(predicates[2].literal_number, 10.5);
}

TEST(XPathParseTest, ToStringRoundTrips) {
  for (const char* expr :
       {"/site/people/person", "//person/name",
        "/site/people/person[@id='p2']/name", "/site//item[name='Clock']",
        "/site/people/person[2]", "/site/people/person/@id",
        "/a/*/text()"}) {
    auto first = parse(expr);
    ASSERT_TRUE(first.is_ok()) << expr;
    auto second = parse(first.value().to_string());
    ASSERT_TRUE(second.is_ok()) << first.value().to_string();
    EXPECT_EQ(first.value().to_string(), second.value().to_string());
  }
}

// --- evaluation ---------------------------------------------------------------

std::vector<Node*> eval(const std::string& expr, const Document& doc) {
  auto path = parse(expr);
  EXPECT_TRUE(path.is_ok()) << path.status().to_string();
  return evaluate(path.value(), doc);
}

TEST(XPathEvalTest, RootSelection) {
  auto doc = auction_sample();
  auto nodes = eval("/site", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], doc->root());
}

TEST(XPathEvalTest, RootNameMismatchSelectsNothing) {
  auto doc = auction_sample();
  EXPECT_TRUE(eval("/wrong", *doc).empty());
}

TEST(XPathEvalTest, ChildChain) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("/site/people/person", *doc).size(), 3u);
}

TEST(XPathEvalTest, DescendantAxisFindsAllDepths) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("//item", *doc).size(), 3u);
  EXPECT_EQ(eval("//name", *doc).size(), 6u);  // 3 person + 3 item names
  EXPECT_EQ(eval("/site//item", *doc).size(), 3u);
}

TEST(XPathEvalTest, WildcardStep) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("/site/regions/*", *doc).size(), 2u);       // europe, asia
  EXPECT_EQ(eval("/site/regions/*/item", *doc).size(), 3u);
}

TEST(XPathEvalTest, AttributeEqualityPredicate) {
  auto doc = auction_sample();
  auto nodes = eval("/site/people/person[@id='p2']", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0]->first_child_named("name")->text(), "Bruno");
}

TEST(XPathEvalTest, ChildValuePredicate) {
  auto doc = auction_sample();
  auto nodes = eval("//item[name='Clock']", *doc);
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(XPathEvalTest, NumericLiteralComparison) {
  auto doc = auction_sample();
  // "10.30" == 10.3 numerically.
  EXPECT_EQ(eval("//item[price='10.3']", *doc).size(), 1u);
  EXPECT_EQ(eval("//item[price='99']", *doc).size(), 1u);
}

TEST(XPathEvalTest, ExistencePredicate) {
  auto doc = auction_sample();
  EXPECT_EQ(eval("/site/people/person[watches]", *doc).size(), 1u);
  EXPECT_EQ(eval("/site/people/person[age]", *doc).size(), 2u);
}

TEST(XPathEvalTest, NestedRelativePredicate) {
  auto doc = auction_sample();
  auto nodes =
      eval("/site/people/person[watches/watch/@open_auction='a1']", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(*nodes[0]->attribute("id"), "p2");
}

TEST(XPathEvalTest, PositionPredicate) {
  auto doc = auction_sample();
  auto nodes = eval("/site/people/person[2]", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(*nodes[0]->attribute("id"), "p2");
  EXPECT_TRUE(eval("/site/people/person[9]", *doc).empty());
}

TEST(XPathEvalTest, TextStep) {
  auto doc = auction_sample();
  auto nodes = eval("/site/people/person[@id='p1']/name/text()", *doc);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0]->value(), "Ana");
}

TEST(XPathEvalTest, AttributeFinalStepReturnsOwners) {
  auto doc = auction_sample();
  auto path = parse("/site/people/person/@id");
  ASSERT_TRUE(path.is_ok());
  auto values = evaluate_strings(path.value(), *doc);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], "p1");
  EXPECT_EQ(values[2], "p3");
}

TEST(XPathEvalTest, EvaluateStringsForElements) {
  auto doc = auction_sample();
  auto path = parse("/site/people/person[@id='p1']/name");
  ASSERT_TRUE(path.is_ok());
  auto values = evaluate_strings(path.value(), *doc);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "Ana");
}

TEST(XPathEvalTest, NoDuplicatesFromNestedDescendants) {
  auto result = xml::parse("<a><b><b><c/></b><c/></b></a>", "t");
  ASSERT_TRUE(result.is_ok());
  // //b//c: outer b reaches both c's, inner b reaches one — dedupe to 2.
  EXPECT_EQ(eval("//b//c", *result.value()).size(), 2u);
}

// --- semantics the evaluator's fast paths rely on ------------------------------

std::unique_ptr<Document> parse_doc(const char* text) {
  auto result = xml::parse(text, "t");
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

/// The `n` attribute of each selected node, in result order.
std::vector<std::string> labels(const std::string& expr, const Document& doc) {
  std::vector<std::string> out;
  for (Node* node : eval(expr, doc)) {
    const std::string* n = node->attribute("n");
    out.push_back(n == nullptr ? "?" : *n);
  }
  return out;
}

using Labels = std::vector<std::string>;

TEST(XPathEvalTest, AttributePredicatesNeverMatchTextNodes) {
  auto doc = parse_doc(R"(<r><a k="1">t1</a><a k="2">t2</a></r>)");
  EXPECT_EQ(eval("/r/a/text()", *doc).size(), 2u);
  EXPECT_TRUE(eval("/r/a/text()[@k]", *doc).empty());
  EXPECT_TRUE(eval("/r/a/text()[@k='1']", *doc).empty());
  EXPECT_TRUE(eval("//text()[@k]", *doc).empty());
}

TEST(XPathEvalTest, PositionAfterAttributePredicateIsPerContext) {
  auto doc = parse_doc(R"(<r>
      <g><a k="1" n="1"/><a k="2" n="2"/><a k="1" n="3"/><a k="1" n="4"/></g>
      <g><a k="2" n="5"/><a k="1" n="6"/><a k="1" n="7"/></g>
      <g><a k="1" n="8"/></g>
    </r>)");
  // Each g's second k=1 child; the third g has only one.
  EXPECT_EQ(labels("/r/g/a[@k='1'][2]", *doc), (Labels{"3", "7"}));
  EXPECT_EQ(labels("/r/g/a[2][@k='1']", *doc), (Labels{"6"}));
  EXPECT_EQ(labels("//a[@k='1'][2]", *doc), (Labels{"3"}));
}

TEST(XPathEvalTest, NumericAttributeEquality) {
  auto doc = parse_doc(
      R"(<r><a n="40.0"/><a n="40x"/><a n="40"/><a n="041"/><a n=""/></r>)");
  EXPECT_EQ(labels("/r/a[@n=40]", *doc), (Labels{"40.0", "40"}));
  EXPECT_EQ(labels("/r/a[@n='40']", *doc), (Labels{"40.0", "40"}));
  EXPECT_EQ(labels("/r/a[@n='40x']", *doc), (Labels{"40x"}));
  EXPECT_EQ(labels("/r/a[@n=41]", *doc), (Labels{"041"}));
  EXPECT_EQ(labels("/r/a[@n='']", *doc), (Labels{""}));
}

TEST(XPathEvalTest, StepsAfterNestedDescendantContextsKeepDocumentOrder) {
  // //a selects a1, a2 (inside a1) and a3 (inside a1); a1's own b comes
  // after a2 in the document.
  auto doc = parse_doc(R"(<r>
      <a id="1" n="a1">
        <a id="2" n="a2"><b n="b1"/></a>
        <b n="b2"/>
        <a id="3" n="a3"><b n="b3"/><c><b n="b4"/></c></a>
      </a>
      <b n="b5"/>
    </r>)");
  EXPECT_EQ(labels("//a/b", *doc), (Labels{"b1", "b2", "b3"}));
  EXPECT_EQ(labels("//a/@id", *doc), (Labels{"a1", "a2", "a3"}));
  EXPECT_EQ(labels("//a//b", *doc), (Labels{"b1", "b2", "b3", "b4"}));
  EXPECT_EQ(labels("//a/b[1]", *doc), (Labels{"b1", "b2", "b3"}));
  EXPECT_EQ(labels("//a//b[2]", *doc), (Labels{"b2", "b4"}));
  EXPECT_EQ(labels("//a/*", *doc), (Labels{"a2", "b1", "b2", "a3", "b3", "?"}));
  auto path = parse("//a/@id");
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(evaluate_strings(path.value(), *doc),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST(XPathEvalTest, MultiStepPredicatePaths) {
  auto doc = auction_sample();
  auto watchers = eval("/site/people/person[watches/watch]", *doc);
  ASSERT_EQ(watchers.size(), 1u);
  EXPECT_EQ(*watchers[0]->attribute("id"), "p2");
  EXPECT_TRUE(eval("/site/people/person[watches/bid]", *doc).empty());

  auto nested = parse_doc(R"(<r>
      <x n="1"><a><c><b>v</b></c></a></x>
      <x n="2"><a><b>w</b></a></x>
      <x n="3"><a/><b>v</b></x>
      <x n="4"><a><b>w</b><d><b>v</b></d></a></x>
      <x n="5"><a><b>w</b></a><a><b>v</b><b>w</b></a></x>
      <x n="6"><a><b>w</b></a><a><b>v</b></a></x>
    </r>)");
  EXPECT_EQ(labels("/r/x[a//b='v']", *nested), (Labels{"1", "4", "5", "6"}));
  EXPECT_EQ(labels("/r/x[a//b]", *nested), (Labels{"1", "2", "4", "5", "6"}));
  // A position predicate inside a predicate path applies per context too:
  // x6 has two b's, but no a with a second one.
  EXPECT_EQ(labels("/r/x[a/b[2]]", *nested), (Labels{"5"}));
  EXPECT_EQ(labels("/r/x[a/b[1]='v']", *nested), (Labels{"5", "6"}));
}

TEST(XPathEvalTest, EmptyDocumentYieldsNothing) {
  Document doc("empty");
  EXPECT_TRUE(eval("/a", doc).empty());
}

TEST(XPathEvalTest, StepsAfterAPointStep) {
  auto doc = auction_sample();
  const auto watches =
      eval("/site/people/person[@id='p2']/watches/watch", *doc);
  ASSERT_EQ(watches.size(), 1u);
  EXPECT_EQ(*watches[0]->attribute("open_auction"), "a1");
}

TEST(XPathEvalTest, AttributeEqualityStepsKeepWalkSemantics) {
  // Steps with a leading [@a='literal'] are answered from the attribute
  // index; order, duplicates and per-context positions must come out as
  // the walk gives them.
  auto parsed = xml::parse(
      "<r a='1'><g><x k='v' n='1'/><x k='w'/><x k='v' n='2'/></g>"
      "<g><x k='v' n='3'/><h><x k='v' n='4'/></h></g></r>",
      "d");
  ASSERT_TRUE(parsed.is_ok());
  const Document& doc = *parsed.value();
  const auto ns = [&](const std::string& expr) {
    std::string out;
    for (Node* node : eval(expr, doc)) out += *node->attribute("n");
    return out;
  };
  EXPECT_EQ(ns("//x[@k='v']"), "1234");
  EXPECT_EQ(ns("//*[@k='v'][3]"), "3");
  EXPECT_EQ(ns("/r/g/x[@k='v'][2]"), "2");
  EXPECT_EQ(ns("/r/g/x[@k='v'][1]"), "13");
  EXPECT_EQ(ns("/r/g//x[@k='v'][2]"), "24");
  EXPECT_EQ(ns("//*//x[@k='v']"), "1234");  // nested contexts, no duplicates
  EXPECT_EQ(ns("/r/*/h/x[@k='v']"), "4");
  // The root's own attribute, from both axes of the document node.
  EXPECT_EQ(eval("/r[@a='1']", doc).size(), 1u);
  EXPECT_EQ(eval("//*[@a='1']", doc), std::vector<Node*>{doc.root()});
  EXPECT_TRUE(eval("/r/*[@a='1']", doc).empty());
  // Numeric literals walk: '01' equals '1' as numbers.
  EXPECT_EQ(ns("//x[@n='01']"), "1");
}

TEST(XPathEvalTest, LiteralEqualsRules) {
  EXPECT_TRUE(literal_equals("10.30", "10.3"));
  EXPECT_TRUE(literal_equals("abc", "abc"));
  EXPECT_FALSE(literal_equals("abc", "abd"));
  EXPECT_FALSE(literal_equals("10", "10x"));  // not both numeric, unequal text
  EXPECT_TRUE(literal_equals("007", "7"));
  EXPECT_TRUE(literal_equals(" -.50 ", "-0.5"));
  // Only XPath 1.0 Numbers compare numerically; strtod's other spellings
  // (NaN, hex, exponents, infinities) compare as strings.
  EXPECT_TRUE(literal_equals("nan", "nan"));
  EXPECT_FALSE(literal_equals("16", "0x10"));
  EXPECT_FALSE(literal_equals("1000", "1e3"));
  EXPECT_FALSE(literal_equals("inf", "infinity"));
}

TEST(XPathEvalTest, NonNumberLiteralsCompareAsStrings) {
  auto doc = xml::parse("<r><a><b>nan</b></a><a><b>1000</b></a></r>", "d");
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(eval("/r/a[b='nan']", *doc.value()).size(), 1u);
  EXPECT_TRUE(eval("/r/a[b='1e3']", *doc.value()).empty());
}

}  // namespace
}  // namespace dtx::xpath
