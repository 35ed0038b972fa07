#include "xpath/ast.hpp"

#include <algorithm>
#include <charconv>

namespace dtx::xpath {

std::optional<double> parse_number(std::string_view text) {
  const auto space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  const auto digits = [](std::string_view part) {
    return std::all_of(part.begin(), part.end(),
                       [](char c) { return c >= '0' && c <= '9'; });
  };
  while (!text.empty() && space(text.front())) text.remove_prefix(1);
  while (!text.empty() && space(text.back())) text.remove_suffix(1);
  std::string_view number = text;
  if (!number.empty() && number.front() == '-') number.remove_prefix(1);
  const std::size_t dot = number.find('.');
  const std::string_view whole = number.substr(0, dot);
  const std::string_view fraction = dot == std::string_view::npos
                                        ? std::string_view()
                                        : number.substr(dot + 1);
  if ((whole.empty() && fraction.empty()) || !digits(whole) ||
      !digits(fraction)) {
    return std::nullopt;
  }
  double value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value,
                  std::chars_format::fixed);
  return value;
}

namespace {

std::string steps_to_string(const std::vector<Step>& steps,
                            bool leading_axis) {
  std::string out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out += steps[i].to_string(/*leading_axis=*/leading_axis || i > 0);
  }
  return out;
}

}  // namespace

std::string Step::to_string(bool leading_axis) const {
  std::string out;
  if (leading_axis) out += axis == Axis::kDescendant ? "//" : "/";
  switch (test) {
    case NodeTest::kName: out += name; break;
    case NodeTest::kWildcard: out += '*'; break;
    case NodeTest::kText: out += "text()"; break;
    case NodeTest::kAttribute:
      out += '@';
      out += name;
      break;
  }
  for (const auto& predicate : predicates) out += predicate.to_string();
  return out;
}

std::string RelativePath::to_string() const {
  // Relative paths start without a leading slash: person/name.
  std::string out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i == 0 && steps[i].axis == Axis::kChild) {
      out += steps[i].to_string(/*leading_axis=*/false);
    } else {
      out += steps[i].to_string();
    }
  }
  return out;
}

std::string Predicate::to_string() const {
  // Built by append, not one operator+ chain: GCC 12 -Wrestrict false
  // positive (PR105329).
  std::string out = "[";
  switch (kind) {
    case PredicateKind::kPosition:
      out += std::to_string(position);
      break;
    case PredicateKind::kExists:
      out += path.to_string();
      break;
    case PredicateKind::kEquals:
      out += path.to_string();
      out += "='";
      out += literal;
      out += '\'';
      break;
  }
  out += ']';
  return out;
}

std::string Path::to_string() const {
  return steps_to_string(steps, /*leading_axis=*/true);
}

}  // namespace dtx::xpath
