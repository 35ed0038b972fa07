// Evaluator for the XPath subset over xml::Document trees.
//
// Semantics follow XPath 1.0 restricted to the supported grammar:
//  * absolute paths evaluate from a virtual document node whose only child is
//    the root element;
//  * '/'  = child axis, '//' = descendant axis (any depth below the context);
//  * position predicates are applied per context node, after the other
//    predicates that precede them lexically;
//  * equality compares the candidate's string-value (concatenated descendant
//    text, or attribute value) with the literal — numerically when both
//    sides parse as numbers, as strings otherwise.
//
// Cost model: the evaluator walks the plan's own steps with two reused
// candidate buffers and filters predicates in place. Existence and equality
// predicates stop at their first match and build no node set, so child and
// attribute steps and attribute predicates allocate nothing per candidate
// node. Only a step from contexts that contain one another (after a '//'
// step) can reach a node twice or out of order; only such a step is sorted
// and de-duplicated.
//
// Indexed steps: a name or '*' step on either axis whose first predicate is
// `[@a = 'literal']` with a non-numeric literal (Predicate::literal_number
// empty) is answered from the document's attribute index
// (Document::for_each_with_attribute) instead of a walk. Each hit is kept
// for the contexts that are its parent (child axis) or its ancestors
// (descendant axis); per context the hits are put in document order and the
// step's remaining predicates, positions included, filter them as they
// would the walk's list. Such a step costs O(hits x depth), not a scan of
// the contexts' children or subtrees: `//person[@id='X']` and
// `/site/people/person[@id='X']` no longer read the other persons. Every
// other step, and every step inside a predicate, walks.
#pragma once

#include <string>
#include <vector>

#include "xml/document.hpp"
#include "xpath/ast.hpp"

namespace dtx::xpath {

/// Nodes selected by `path`, in document order without duplicates.
/// For attribute-final paths the *owning elements* are returned; use
/// evaluate_strings to obtain the attribute values.
std::vector<xml::Node*> evaluate(const Path& path,
                                 const xml::Document& document);

/// String-values of the selected nodes (attribute values for attribute-final
/// paths, string-value of the node otherwise).
std::vector<std::string> evaluate_strings(const Path& path,
                                          const xml::Document& document);

/// Literal comparison rule used by equality predicates.
bool literal_equals(const std::string& value, const std::string& literal);

}  // namespace dtx::xpath
