#ifndef MDES_HMDES_PARSER_H
#define MDES_HMDES_PARSER_H

/**
 * @file
 * Recursive-descent parser for the high-level MDES language.
 */

#include <cstddef>
#include <optional>
#include <string_view>

#include "hmdes/ast.h"
#include "hmdes/token.h"

namespace mdes::hmdes {

/**
 * Deepest nesting the parser accepts. Each open parenthesis, unary
 * minus, binary operator of a chain and enclosing `for` loop is one
 * level along a path of the parse; a deeper description is a located
 * error. This bounds the parser's recursion and the depth of every
 * expression tree, so the builder's recursion too.
 */
constexpr size_t kMaxNesting = 256;

/**
 * Parse one machine description.
 *
 * @param source the MDES text.
 * @param diags receives errors/warnings with source locations.
 * @return the AST, or std::nullopt when parsing failed badly enough that
 *         no usable machine declaration was produced. Even a returned AST
 *         may be accompanied by errors in @p diags; callers must check
 *         diags.hasErrors() before building. The AST holds views into
 *         @p source, which must outlive it.
 */
std::optional<MachineDecl> parseMachine(std::string_view source,
                                        DiagnosticEngine &diags);

} // namespace mdes::hmdes

#endif // MDES_HMDES_PARSER_H
