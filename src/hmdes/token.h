#ifndef MDES_HMDES_TOKEN_H
#define MDES_HMDES_TOKEN_H

/**
 * @file
 * Token definitions for the high-level MDES language.
 */

#include <cstdint>
#include <string_view>

#include "support/diagnostics.h"

namespace mdes::hmdes {

/** Lexical token kinds. */
enum class TokenKind {
    // Literals and names.
    Identifier,
    Integer,
    String,

    // Keywords.
    KwMachine,
    KwResource,
    KwLet,
    KwOrTree,
    KwFor,
    KwIn,
    KwOption,
    KwUse,
    KwAt,
    KwTable,
    KwAnd,
    KwOperation,
    KwLatency,
    KwCascade,
    KwNote,
    KwBypass,

    // Punctuation.
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Semicolon,
    Comma,
    Equals,
    DotDot,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,

    EndOfFile,
    Error,
};

/** Printable name of a token kind, for diagnostics. */
const char *tokenKindName(TokenKind kind);

/** One lexed token. Borrows from the lexed source, which must outlive it. */
struct Token
{
    TokenKind kind = TokenKind::Error;
    SourceLocation loc;
    /** Identifier or string contents (a view into the source). */
    std::string_view text;
    /** Value for Integer tokens. */
    int64_t value = 0;
};

} // namespace mdes::hmdes

#endif // MDES_HMDES_TOKEN_H
