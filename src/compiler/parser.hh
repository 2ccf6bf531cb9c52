/**
 * @file
 * Recursive-descent parser for MiniC with integrated symbol
 * resolution and typing.
 */

#ifndef RISSP_COMPILER_PARSER_HH
#define RISSP_COMPILER_PARSER_HH

#include "compiler/ast.hh"
#include "compiler/lexer.hh"

namespace rissp::minic
{

/**
 * Deepest nesting the parser accepts, and the tallest expression tree
 * it builds. Each statement inside a statement, each sub-expression
 * (operand of a prefix operator, parenthesized or bracketed
 * expression, call argument, assigned value, conditional branch) and
 * each initializer brace counts one level; the function body's
 * statements sit at level 1. Deeper input throws CompileError with
 * its line instead of overflowing the stack of this recursive-descent
 * parser and of the recursive passes that walk its tree.
 */
constexpr int kMaxNesting = 256;

/** Parse a MiniC source into a typed translation unit.
 *  Throws CompileError on malformed or unsupported input. */
TranslationUnit parse(const std::string &source);

} // namespace rissp::minic

#endif // RISSP_COMPILER_PARSER_HH
