#include "xpath/parser.hpp"

#include <cstdlib>

#include "xpath/lexer.hpp"

namespace dtx::xpath {

namespace {

using util::Code;
using util::Result;
using util::Status;

class PathParser {
 public:
  explicit PathParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<Path> parse_absolute() {
    Path path;
    if (!at(TokenKind::kSlash) && !at(TokenKind::kDoubleSlash)) {
      return error("an absolute path must start with '/' or '//'");
    }
    while (at(TokenKind::kSlash) || at(TokenKind::kDoubleSlash)) {
      const Axis axis =
          at(TokenKind::kDoubleSlash) ? Axis::kDescendant : Axis::kChild;
      advance();
      auto step = parse_step(axis);
      if (!step) return step.status();
      path.steps.push_back(std::move(step).value());
    }
    if (!at(TokenKind::kEnd)) return error("trailing tokens after path");
    if (auto status = validate_attribute_position(path.steps); !status) {
      return status;
    }
    return path;
  }

  Result<RelativePath> parse_rel() {
    auto steps = parse_relative_steps();
    if (!steps) return steps.status();
    if (!at(TokenKind::kEnd)) return error("trailing tokens after path");
    RelativePath path;
    path.steps = std::move(steps).value();
    if (auto status = validate_attribute_position(path.steps); !status) {
      return status;
    }
    return path;
  }

 private:
  [[nodiscard]] const Token& current() const { return tokens_[pos_]; }
  [[nodiscard]] bool at(TokenKind kind) const {
    return current().kind == kind;
  }
  void advance() { ++pos_; }

  Status error(const std::string& what) const {
    return Status(Code::kInvalidArgument,
                  "XPath parse error at offset " +
                      std::to_string(current().offset) + ": " + what);
  }

  static Status ok_status() { return Status::ok(); }

  /// Attribute tests are only legal as the final step of a path.
  Status validate_attribute_position(const std::vector<Step>& steps) const {
    for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
      if (steps[i].test == NodeTest::kAttribute) {
        return Status(Code::kInvalidArgument,
                      "attribute step '@" + steps[i].name +
                          "' must be the last step");
      }
    }
    return ok_status();
  }

  Result<std::vector<Step>> parse_relative_steps() {
    std::vector<Step> steps;
    // First step: optional leading axis (predicates usually omit it).
    Axis axis = Axis::kChild;
    if (at(TokenKind::kSlash) || at(TokenKind::kDoubleSlash)) {
      axis = at(TokenKind::kDoubleSlash) ? Axis::kDescendant : Axis::kChild;
      advance();
    }
    auto first = parse_step(axis);
    if (!first) return first.status();
    steps.push_back(std::move(first).value());
    while (at(TokenKind::kSlash) || at(TokenKind::kDoubleSlash)) {
      const Axis next_axis =
          at(TokenKind::kDoubleSlash) ? Axis::kDescendant : Axis::kChild;
      advance();
      auto step = parse_step(next_axis);
      if (!step) return step.status();
      steps.push_back(std::move(step).value());
    }
    return steps;
  }

  Result<Step> parse_step(Axis axis) {
    Step step;
    step.axis = axis;
    if (at(TokenKind::kStar)) {
      step.test = NodeTest::kWildcard;
      advance();
    } else if (at(TokenKind::kTextFn)) {
      step.test = NodeTest::kText;
      advance();
    } else if (at(TokenKind::kAt)) {
      advance();
      if (!at(TokenKind::kName)) return error("expected a name after '@'");
      step.test = NodeTest::kAttribute;
      step.name = current().text;
      advance();
    } else if (at(TokenKind::kName)) {
      step.test = NodeTest::kName;
      step.name = current().text;
      advance();
    } else {
      return error("expected a step (name, '*', text() or '@name')");
    }

    while (at(TokenKind::kLBracket)) {
      advance();
      auto predicate = parse_predicate();
      if (!predicate) return predicate.status();
      if (!at(TokenKind::kRBracket)) return error("expected ']'");
      advance();
      step.predicates.push_back(std::move(predicate).value());
    }
    return step;
  }

  Result<Predicate> parse_predicate() {
    Predicate predicate;
    if (at(TokenKind::kNumber)) {
      // Position predicate: [3]
      predicate.kind = PredicateKind::kPosition;
      predicate.position =
          static_cast<std::size_t>(std::strtoull(current().text.c_str(),
                                                 nullptr, 10));
      advance();
      if (predicate.position == 0) {
        return error("position predicates are 1-based");
      }
      return predicate;
    }
    auto steps = parse_relative_steps();
    if (!steps) return steps.status();
    predicate.path.steps = std::move(steps).value();
    if (at(TokenKind::kEquals)) {
      advance();
      if (!at(TokenKind::kLiteral) && !at(TokenKind::kNumber)) {
        return error("expected a literal after '='");
      }
      predicate.kind = PredicateKind::kEquals;
      predicate.literal = current().text;
      predicate.literal_number = parse_number(predicate.literal);
      advance();
    } else {
      predicate.kind = PredicateKind::kExists;
    }
    return predicate;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Path> parse(std::string_view expression) {
  auto tokens = tokenize(expression);
  if (!tokens) return tokens.status();
  PathParser parser(std::move(tokens).value());
  return parser.parse_absolute();
}

Result<RelativePath> parse_relative(std::string_view expression) {
  auto tokens = tokenize(expression);
  if (!tokens) return tokens.status();
  PathParser parser(std::move(tokens).value());
  return parser.parse_rel();
}

}  // namespace dtx::xpath
