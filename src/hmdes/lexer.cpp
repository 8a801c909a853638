#include "hmdes/lexer.h"

namespace mdes::hmdes {

const char *
tokenKindName(TokenKind kind)
{
    switch (kind) {
      case TokenKind::Identifier: return "identifier";
      case TokenKind::Integer: return "integer";
      case TokenKind::String: return "string";
      case TokenKind::KwMachine: return "'machine'";
      case TokenKind::KwResource: return "'resource'";
      case TokenKind::KwLet: return "'let'";
      case TokenKind::KwOrTree: return "'ortree'";
      case TokenKind::KwFor: return "'for'";
      case TokenKind::KwIn: return "'in'";
      case TokenKind::KwOption: return "'option'";
      case TokenKind::KwUse: return "'use'";
      case TokenKind::KwAt: return "'at'";
      case TokenKind::KwTable: return "'table'";
      case TokenKind::KwAnd: return "'and'";
      case TokenKind::KwOperation: return "'operation'";
      case TokenKind::KwLatency: return "'latency'";
      case TokenKind::KwCascade: return "'cascade'";
      case TokenKind::KwNote: return "'note'";
      case TokenKind::KwBypass: return "'bypass'";
      case TokenKind::LBrace: return "'{'";
      case TokenKind::RBrace: return "'}'";
      case TokenKind::LBracket: return "'['";
      case TokenKind::RBracket: return "']'";
      case TokenKind::LParen: return "'('";
      case TokenKind::RParen: return "')'";
      case TokenKind::Semicolon: return "';'";
      case TokenKind::Comma: return "','";
      case TokenKind::Equals: return "'='";
      case TokenKind::DotDot: return "'..'";
      case TokenKind::Plus: return "'+'";
      case TokenKind::Minus: return "'-'";
      case TokenKind::Star: return "'*'";
      case TokenKind::Slash: return "'/'";
      case TokenKind::Percent: return "'%'";
      case TokenKind::EndOfFile: return "end of file";
      case TokenKind::Error: return "invalid token";
    }
    return "unknown";
}

namespace {

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isIdentStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
isIdentChar(char c)
{
    return isIdentStart(c) || isDigit(c);
}

/** The keyword spelled @p s, else Identifier. */
TokenKind
keywordKind(std::string_view s)
{
    auto is = [s](std::string_view kw, TokenKind kind) {
        return s == kw ? kind : TokenKind::Identifier;
    };
    switch (s[0]) {
      case 'a':
        return s.size() == 2 ? is("at", TokenKind::KwAt)
                             : is("and", TokenKind::KwAnd);
      case 'b': return is("bypass", TokenKind::KwBypass);
      case 'c': return is("cascade", TokenKind::KwCascade);
      case 'f': return is("for", TokenKind::KwFor);
      case 'i': return is("in", TokenKind::KwIn);
      case 'l':
        return s.size() == 3 ? is("let", TokenKind::KwLet)
                             : is("latency", TokenKind::KwLatency);
      case 'm': return is("machine", TokenKind::KwMachine);
      case 'n': return is("note", TokenKind::KwNote);
      case 'o':
        return s.starts_with("or") ? is("ortree", TokenKind::KwOrTree)
             : s.size() == 9       ? is("operation", TokenKind::KwOperation)
                                   : is("option", TokenKind::KwOption);
      case 'r': return is("resource", TokenKind::KwResource);
      case 't': return is("table", TokenKind::KwTable);
      case 'u': return is("use", TokenKind::KwUse);
      default: return TokenKind::Identifier;
    }
}

} // namespace

Lexer::Lexer(std::string_view source, DiagnosticEngine &diags)
    : source_(source), diags_(diags)
{
}

std::vector<Token>
Lexer::lexAll()
{
    std::vector<Token> tokens;
    // The built-in descriptions run 4.9-6.9 bytes per token.
    tokens.reserve(source_.size() / 4 + 1);
    do {
        tokens.push_back(next());
    } while (tokens.back().kind != TokenKind::EndOfFile);
    return tokens;
}

char
Lexer::peek(size_t ahead) const
{
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
}

SourceLocation
Lexer::here() const
{
    return {line_, int(pos_ - line_start_) + 1};
}

void
Lexer::skipTrivia()
{
    while (pos_ < source_.size()) {
        char c = source_[pos_];
        if (c == '\n') {
            line_start_ = ++pos_;
            ++line_;
        } else if (isSpace(c)) {
            ++pos_;
        } else if (c == '/' && peek(1) == '/') {
            size_t eol = source_.find('\n', pos_);
            pos_ = eol == std::string_view::npos ? source_.size() : eol;
        } else if (c == '/' && peek(1) == '*') {
            SourceLocation start = here();
            size_t close = source_.find("*/", pos_ + 2);
            size_t end = close == std::string_view::npos ? source_.size()
                                                         : close + 2;
            for (; pos_ < end; ++pos_) {
                if (source_[pos_] == '\n') {
                    line_start_ = pos_ + 1;
                    ++line_;
                }
            }
            if (close == std::string_view::npos)
                diags_.error(start, "unterminated block comment");
        } else {
            return;
        }
    }
}

Token
Lexer::next()
{
    skipTrivia();
    Token t;
    t.loc = here();
    if (pos_ >= source_.size()) {
        t.kind = TokenKind::EndOfFile;
        return t;
    }

    char c = source_[pos_++];
    switch (c) {
      case '{': t.kind = TokenKind::LBrace; return t;
      case '}': t.kind = TokenKind::RBrace; return t;
      case '[': t.kind = TokenKind::LBracket; return t;
      case ']': t.kind = TokenKind::RBracket; return t;
      case '(': t.kind = TokenKind::LParen; return t;
      case ')': t.kind = TokenKind::RParen; return t;
      case ';': t.kind = TokenKind::Semicolon; return t;
      case ',': t.kind = TokenKind::Comma; return t;
      case '=': t.kind = TokenKind::Equals; return t;
      case '+': t.kind = TokenKind::Plus; return t;
      case '-': t.kind = TokenKind::Minus; return t;
      case '*': t.kind = TokenKind::Star; return t;
      case '/': t.kind = TokenKind::Slash; return t;
      case '%': t.kind = TokenKind::Percent; return t;
      case '.':
        if (peek() == '.') {
            ++pos_;
            t.kind = TokenKind::DotDot;
            return t;
        }
        diags_.error(t.loc, "unexpected '.'");
        t.kind = TokenKind::Error;
        return t;
      case '"': {
        size_t start = pos_;
        while (pos_ < source_.size() && source_[pos_] != '"' &&
               source_[pos_] != '\n')
            ++pos_;
        if (peek() != '"') {
            diags_.error(t.loc, "unterminated string literal");
            t.kind = TokenKind::Error;
            return t;
        }
        t.kind = TokenKind::String;
        t.text = source_.substr(start, pos_++ - start);
        return t;
      }
      default:
        break;
    }

    if (isDigit(c)) {
        int64_t value = c - '0';
        bool overflow = false;
        while (isDigit(peek())) {
            value = value * 10 + (source_[pos_++] - '0');
            if (value > 1'000'000'000) {
                overflow = true;
                value = 1'000'000'000;
            }
        }
        if (overflow)
            diags_.error(t.loc, "integer literal too large");
        t.kind = TokenKind::Integer;
        t.value = value;
        return t;
    }

    if (isIdentStart(c)) {
        size_t start = pos_ - 1;
        while (isIdentChar(peek()))
            ++pos_;
        std::string_view text = source_.substr(start, pos_ - start);
        t.kind = keywordKind(text);
        if (t.kind == TokenKind::Identifier)
            t.text = text;
        return t;
    }

    diags_.error(t.loc, std::string("unexpected character '") + c + "'");
    t.kind = TokenKind::Error;
    return t;
}

} // namespace mdes::hmdes
