#ifndef MDES_HMDES_LEXER_H
#define MDES_HMDES_LEXER_H

/**
 * @file
 * Lexer for the high-level MDES language.
 *
 * Supports // line comments, C-style block comments, decimal integers,
 * double-quoted strings, and the keyword/punctuation set in token.h.
 * Character classes are ASCII, whatever the locale. Tokens are views
 * into the source: nothing is copied, so the source must outlive them.
 */

#include <string_view>
#include <vector>

#include "hmdes/token.h"
#include "support/diagnostics.h"

namespace mdes::hmdes {

/** Converts MDES source text into a token stream. */
class Lexer
{
  public:
    /** Lex @p source, reporting problems to @p diags. The token stream
     * always ends with an EndOfFile token. */
    Lexer(std::string_view source, DiagnosticEngine &diags);

    /** Lex the whole buffer (so lexical diagnostics precede syntax
     * ones). */
    std::vector<Token> lexAll();

  private:
    Token next();
    /** Byte at pos_ + @p ahead, or '\0' past the end. */
    char peek(size_t ahead = 0) const;
    void skipTrivia();
    SourceLocation here() const;

    std::string_view source_;
    DiagnosticEngine &diags_;
    size_t pos_ = 0;
    /** Offset of the first byte of the current line. */
    size_t line_start_ = 0;
    int line_ = 1;
};

} // namespace mdes::hmdes

#endif // MDES_HMDES_LEXER_H
