// AST for the XPath subset DTX shares with the XDGL protocol (paper §2:
// "XDGL uses a subset of the XPath language"; DTX inherits it).
//
// Supported grammar (absolute paths only, as in XDGL):
//
//   path       := ('/' | '//') step (('/' | '//') step)*
//   step       := nametest predicate*
//   nametest   := NAME | '*' | 'text()' | '@' NAME       (@ only as last step
//                                                          or inside predicates)
//   predicate  := '[' relpath ']'                          existence
//                | '[' relpath '=' literal ']'             value equality
//                | '[' '@' NAME ('=' literal)? ']'         attribute tests
//                | '[' NUMBER ']'                          position (1-based)
//   relpath    := step (('/' | '//') step)*
//   literal    := quoted string | number
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dtx::xpath {

enum class Axis : std::uint8_t {
  kChild,       ///< '/'
  kDescendant,  ///< '//'
};

enum class NodeTest : std::uint8_t {
  kName,       ///< element tag name
  kWildcard,   ///< '*'
  kText,       ///< text()
  kAttribute,  ///< @name
};

struct Step;

/// Relative path used inside predicates (same step structure, but evaluated
/// from the candidate node instead of the document root).
struct RelativePath {
  std::vector<Step> steps;

  [[nodiscard]] std::string to_string() const;
};

enum class PredicateKind : std::uint8_t {
  kExists,    ///< [path]
  kEquals,    ///< [path = literal]
  kPosition,  ///< [n]
};

struct Predicate {
  PredicateKind kind = PredicateKind::kExists;
  RelativePath path;        // for kExists / kEquals
  std::string literal;      // for kEquals
  /// parse_number(literal), filled in by the parser next to `literal` and
  /// never written afterwards (plans are shared across threads).
  std::optional<double> literal_number;
  std::size_t position = 0; // for kPosition (1-based)

  [[nodiscard]] std::string to_string() const;
};

struct Step {
  Axis axis = Axis::kChild;
  NodeTest test = NodeTest::kName;
  std::string name;  // for kName / kAttribute
  std::vector<Predicate> predicates;

  [[nodiscard]] std::string to_string(bool leading_axis = true) const;
};

/// `text` as a number when it is one in XPath 1.0's grammar: optional
/// whitespace, an optional '-', digits with an optional fraction or
/// '.' digits, optional whitespace. No exponent, hex, 'inf' or 'nan'. The
/// numeric half of the equality rule in xpath/evaluator.hpp.
std::optional<double> parse_number(std::string_view text);

/// A parsed absolute path expression.
struct Path {
  std::vector<Step> steps;

  [[nodiscard]] bool empty() const noexcept { return steps.empty(); }

  /// True when the final step selects an attribute.
  [[nodiscard]] bool targets_attribute() const noexcept {
    return !steps.empty() && steps.back().test == NodeTest::kAttribute;
  }

  /// Round-trippable textual form (re-parsing yields an equivalent AST).
  [[nodiscard]] std::string to_string() const;
};

}  // namespace dtx::xpath
