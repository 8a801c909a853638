#include "hmdes/parser.h"

#include <sstream>

#include "hmdes/lexer.h"

namespace mdes::hmdes {

namespace {

/** Recursive-descent parser with ';'/'}'-synchronizing error recovery. */
class Parser
{
  public:
    Parser(std::vector<Token> tokens, DiagnosticEngine &diags)
        : tokens_(std::move(tokens)), diags_(diags)
    {
    }

    std::optional<MachineDecl> parseMachine();

  private:
    const Token &peek() const { return tokens_[pos_]; }
    const Token &
    advance()
    {
        const Token &t = tokens_[pos_];
        if (t.kind != TokenKind::EndOfFile)
            ++pos_;
        return t;
    }
    bool check(TokenKind kind) const { return peek().kind == kind; }
    bool
    match(TokenKind kind)
    {
        if (!check(kind))
            return false;
        advance();
        return true;
    }

    /** Consume @p kind or report an error mentioning @p context. */
    bool
    expect(TokenKind kind, const char *context)
    {
        if (match(kind))
            return true;
        std::ostringstream os;
        os << "expected " << tokenKindName(kind) << " " << context
           << ", found " << tokenKindName(peek().kind);
        diags_.error(peek().loc, os.str());
        return false;
    }

    /** Skip to just past the next ';' or to a '}' / EOF. */
    void
    synchronize()
    {
        while (!check(TokenKind::EndOfFile)) {
            if (match(TokenKind::Semicolon))
                return;
            if (check(TokenKind::RBrace))
                return;
            advance();
        }
    }

    std::optional<std::string_view> parseIdent(const char *context);

    /** Append @p e to the expression pool. */
    ExprId
    add(const Expr &e)
    {
        machine_.exprs.push_back(e);
        return ExprId(machine_.exprs.size() - 1);
    }

    // Each returns kNoExpr after reporting a syntax error.
    ExprId parseExpr();
    ExprId parseMulExpr();
    ExprId parseUnaryExpr();
    ExprId parsePrimaryExpr();

    std::optional<ResourceDecl> parseResource();
    std::optional<LetDecl> parseLet();
    std::optional<OrTreeDecl> parseOrTree();
    std::optional<OptionDecl> parseOption();
    bool parseOptItems(std::vector<OptItem> &items);
    bool parseOrItems(std::vector<OrItem> &items);
    /** `for v in lo .. hi { body }` (a ForDecl or UsageForDecl), the
     * body's items parsed by @p parseBody. */
    template <typename Loop, typename Items>
    std::optional<Loop> parseLoop(bool (Parser::*parseBody)(Items &));
    std::optional<TableDecl> parseTable();
    std::optional<OperationDecl> parseOperation();
    std::optional<BypassDecl> parseBypass();

    std::vector<Token> tokens_;
    DiagnosticEngine &diags_;
    size_t pos_ = 0;
    MachineDecl machine_;
};

std::optional<std::string_view>
Parser::parseIdent(const char *context)
{
    if (check(TokenKind::Identifier))
        return advance().text;
    std::ostringstream os;
    os << "expected identifier " << context << ", found "
       << tokenKindName(peek().kind);
    diags_.error(peek().loc, os.str());
    return std::nullopt;
}

ExprId
Parser::parseExpr()
{
    ExprId lhs = parseMulExpr();
    while (lhs != kNoExpr &&
           (check(TokenKind::Plus) || check(TokenKind::Minus))) {
        char op = check(TokenKind::Plus) ? '+' : '-';
        SourceLocation loc = advance().loc;
        ExprId rhs = parseMulExpr();
        if (rhs == kNoExpr)
            return kNoExpr;
        lhs = add({.kind = Expr::Kind::Binary, .op = op, .loc = loc,
                   .lhs = lhs, .rhs = rhs});
    }
    return lhs;
}

ExprId
Parser::parseMulExpr()
{
    ExprId lhs = parseUnaryExpr();
    while (lhs != kNoExpr &&
           (check(TokenKind::Star) || check(TokenKind::Slash) ||
            check(TokenKind::Percent))) {
        char op = check(TokenKind::Star)    ? '*'
                  : check(TokenKind::Slash) ? '/'
                                            : '%';
        SourceLocation loc = advance().loc;
        ExprId rhs = parseUnaryExpr();
        if (rhs == kNoExpr)
            return kNoExpr;
        lhs = add({.kind = Expr::Kind::Binary, .op = op, .loc = loc,
                   .lhs = lhs, .rhs = rhs});
    }
    return lhs;
}

ExprId
Parser::parseUnaryExpr()
{
    if (check(TokenKind::Minus)) {
        SourceLocation loc = advance().loc;
        ExprId operand = parseUnaryExpr();
        if (operand == kNoExpr)
            return kNoExpr;
        return add({.kind = Expr::Kind::Unary, .op = '-', .loc = loc,
                    .lhs = operand});
    }
    return parsePrimaryExpr();
}

ExprId
Parser::parsePrimaryExpr()
{
    if (check(TokenKind::Integer) || check(TokenKind::Identifier)) {
        const Token &t = advance();
        return add({.kind = t.kind == TokenKind::Integer
                                ? Expr::Kind::IntLit
                                : Expr::Kind::VarRef,
                    .loc = t.loc,
                    .value = t.value,
                    .name = t.text});
    }
    if (match(TokenKind::LParen)) {
        ExprId inner = parseExpr();
        if (inner == kNoExpr)
            return kNoExpr;
        if (!expect(TokenKind::RParen, "to close parenthesized expression"))
            return kNoExpr;
        return inner;
    }
    std::ostringstream os;
    os << "expected expression, found " << tokenKindName(peek().kind);
    diags_.error(peek().loc, os.str());
    return kNoExpr;
}

std::optional<ResourceDecl>
Parser::parseResource()
{
    ResourceDecl decl;
    decl.loc = advance().loc; // 'resource'
    auto name = parseIdent("after 'resource'");
    if (!name)
        return std::nullopt;
    decl.name = *name;
    if (match(TokenKind::LBracket)) {
        decl.count = parseExpr();
        if (decl.count == kNoExpr)
            return std::nullopt;
        if (!expect(TokenKind::RBracket, "after resource count"))
            return std::nullopt;
    }
    if (!expect(TokenKind::Semicolon, "after resource declaration"))
        return std::nullopt;
    return decl;
}

std::optional<LetDecl>
Parser::parseLet()
{
    LetDecl decl;
    decl.loc = advance().loc; // 'let'
    auto name = parseIdent("after 'let'");
    if (!name)
        return std::nullopt;
    decl.name = *name;
    if (!expect(TokenKind::Equals, "in let declaration"))
        return std::nullopt;
    decl.value = parseExpr();
    if (decl.value == kNoExpr)
        return std::nullopt;
    if (!expect(TokenKind::Semicolon, "after let declaration"))
        return std::nullopt;
    return decl;
}

bool
Parser::parseOptItems(std::vector<OptItem> &items)
{
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
        if (check(TokenKind::KwUse)) {
            UsageDecl usage;
            usage.loc = advance().loc; // 'use'
            auto res = parseIdent("after 'use'");
            if (!res)
                return false;
            usage.resource = *res;
            if (match(TokenKind::LBracket)) {
                usage.index = parseExpr();
                if (usage.index == kNoExpr)
                    return false;
                if (!expect(TokenKind::RBracket, "after resource index"))
                    return false;
            }
            if (!expect(TokenKind::KwAt, "in usage (use R at T)"))
                return false;
            usage.time = parseExpr();
            if (usage.time == kNoExpr)
                return false;
            if (!expect(TokenKind::Semicolon, "after usage"))
                return false;
            items.emplace_back(std::move(usage));
        } else if (check(TokenKind::KwFor)) {
            auto loop = parseLoop<UsageForDecl>(&Parser::parseOptItems);
            if (!loop)
                return false;
            items.emplace_back(std::move(*loop));
        } else {
            diags_.error(peek().loc,
                         "expected 'use' or 'for' inside option");
            return false;
        }
    }
    return true;
}

std::optional<OptionDecl>
Parser::parseOption()
{
    OptionDecl decl;
    decl.loc = advance().loc; // 'option'
    if (!expect(TokenKind::LBrace, "after 'option'"))
        return std::nullopt;
    if (!parseOptItems(decl.items))
        return std::nullopt;
    if (!expect(TokenKind::RBrace, "to close option"))
        return std::nullopt;
    return decl;
}

template <typename Loop, typename Items>
std::optional<Loop>
Parser::parseLoop(bool (Parser::*parseBody)(Items &))
{
    Loop loop;
    loop.loc = advance().loc; // 'for'
    auto var = parseIdent("after 'for'");
    if (!var)
        return std::nullopt;
    loop.var = *var;
    if (!expect(TokenKind::KwIn, "in for loop"))
        return std::nullopt;
    loop.lo = parseExpr();
    if (loop.lo == kNoExpr)
        return std::nullopt;
    if (!expect(TokenKind::DotDot, "between loop bounds"))
        return std::nullopt;
    loop.hi = parseExpr();
    if (loop.hi == kNoExpr)
        return std::nullopt;
    if (!expect(TokenKind::LBrace, "to open for-loop body"))
        return std::nullopt;
    if (!(this->*parseBody)(loop.body))
        return std::nullopt;
    if (!expect(TokenKind::RBrace, "to close for-loop body"))
        return std::nullopt;
    return loop;
}

bool
Parser::parseOrItems(std::vector<OrItem> &items)
{
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
        if (check(TokenKind::KwOption)) {
            auto opt = parseOption();
            if (!opt)
                return false;
            items.push_back(std::move(*opt));
        } else if (check(TokenKind::KwFor)) {
            auto loop = parseLoop<ForDecl>(&Parser::parseOrItems);
            if (!loop)
                return false;
            items.push_back(std::move(*loop));
        } else {
            diags_.error(peek().loc,
                         "expected 'option' or 'for' inside ortree");
            return false;
        }
    }
    return true;
}

std::optional<OrTreeDecl>
Parser::parseOrTree()
{
    OrTreeDecl decl;
    decl.loc = advance().loc; // 'ortree'
    auto name = parseIdent("after 'ortree'");
    if (!name)
        return std::nullopt;
    decl.name = *name;
    if (!expect(TokenKind::LBrace, "to open ortree body"))
        return std::nullopt;
    if (!parseOrItems(decl.items))
        return std::nullopt;
    if (!expect(TokenKind::RBrace, "to close ortree body"))
        return std::nullopt;
    return decl;
}

std::optional<TableDecl>
Parser::parseTable()
{
    TableDecl decl;
    decl.loc = advance().loc; // 'table'
    auto name = parseIdent("after 'table'");
    if (!name)
        return std::nullopt;
    decl.name = *name;
    if (!expect(TokenKind::Equals, "in table declaration"))
        return std::nullopt;
    if (match(TokenKind::KwAnd)) {
        decl.is_and = true;
        if (!expect(TokenKind::LParen, "after 'and'"))
            return std::nullopt;
        do {
            SourceLocation loc = peek().loc;
            auto member = parseIdent("in and(...) list");
            if (!member)
                return std::nullopt;
            decl.or_tree_names.push_back(*member);
            decl.or_tree_locs.push_back(loc);
        } while (match(TokenKind::Comma));
        if (!expect(TokenKind::RParen, "to close and(...) list"))
            return std::nullopt;
    } else {
        SourceLocation loc = peek().loc;
        auto member = parseIdent("naming an ortree");
        if (!member)
            return std::nullopt;
        decl.or_tree_names.push_back(*member);
        decl.or_tree_locs.push_back(loc);
    }
    if (!expect(TokenKind::Semicolon, "after table declaration"))
        return std::nullopt;
    return decl;
}

std::optional<OperationDecl>
Parser::parseOperation()
{
    OperationDecl decl;
    decl.loc = advance().loc; // 'operation'
    auto name = parseIdent("after 'operation'");
    if (!name)
        return std::nullopt;
    decl.name = *name;
    if (!expect(TokenKind::LBrace, "to open operation body"))
        return std::nullopt;
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
        if (match(TokenKind::KwTable)) {
            decl.table_loc = peek().loc;
            auto t = parseIdent("after 'table'");
            if (!t)
                return std::nullopt;
            if (decl.table)
                diags_.error(decl.table_loc,
                             "duplicate 'table' in operation '" +
                                 std::string(decl.name) + "'");
            decl.table = *t;
        } else if (match(TokenKind::KwLatency)) {
            decl.latency = parseExpr();
            if (decl.latency == kNoExpr)
                return std::nullopt;
        } else if (match(TokenKind::KwCascade)) {
            decl.cascade_loc = peek().loc;
            auto c = parseIdent("after 'cascade'");
            if (!c)
                return std::nullopt;
            decl.cascade = *c;
        } else if (match(TokenKind::KwNote)) {
            if (!check(TokenKind::String)) {
                diags_.error(peek().loc, "expected string after 'note'");
                return std::nullopt;
            }
            decl.note = advance().text;
        } else {
            diags_.error(peek().loc,
                         "expected 'table', 'latency', 'cascade' or "
                         "'note' inside operation");
            return std::nullopt;
        }
        if (!expect(TokenKind::Semicolon, "after operation field"))
            return std::nullopt;
    }
    if (!expect(TokenKind::RBrace, "to close operation body"))
        return std::nullopt;
    return decl;
}

std::optional<BypassDecl>
Parser::parseBypass()
{
    BypassDecl decl;
    decl.loc = advance().loc; // 'bypass'
    decl.from_loc = peek().loc;
    auto from = parseIdent("after 'bypass'");
    if (!from)
        return std::nullopt;
    decl.from = *from;
    decl.to_loc = peek().loc;
    auto to = parseIdent("naming the consuming operation");
    if (!to)
        return std::nullopt;
    decl.to = *to;
    if (!expect(TokenKind::KwLatency, "in bypass declaration"))
        return std::nullopt;
    decl.latency = parseExpr();
    if (decl.latency == kNoExpr)
        return std::nullopt;
    if (!expect(TokenKind::Semicolon, "after bypass declaration"))
        return std::nullopt;
    return decl;
}

std::optional<MachineDecl>
Parser::parseMachine()
{
    MachineDecl &machine = machine_;
    machine.exprs.reserve(tokens_.size() / 4);
    if (!expect(TokenKind::KwMachine, "at start of description"))
        return std::nullopt;
    machine.loc = tokens_[pos_ - 1].loc;
    if (!check(TokenKind::String)) {
        diags_.error(peek().loc, "expected machine name string");
        return std::nullopt;
    }
    machine.name = advance().text;
    if (!expect(TokenKind::LBrace, "to open machine body"))
        return std::nullopt;

    auto add = [&machine](auto decl) {
        if (decl)
            machine.decls.emplace_back(std::move(*decl));
        return decl.has_value();
    };
    while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
        bool ok = false;
        switch (peek().kind) {
          case TokenKind::KwResource: ok = add(parseResource()); break;
          case TokenKind::KwLet: ok = add(parseLet()); break;
          case TokenKind::KwOrTree: ok = add(parseOrTree()); break;
          case TokenKind::KwTable: ok = add(parseTable()); break;
          case TokenKind::KwOperation: ok = add(parseOperation()); break;
          case TokenKind::KwBypass: ok = add(parseBypass()); break;
          default:
            diags_.error(peek().loc,
                         std::string("expected a declaration, found ") +
                             tokenKindName(peek().kind));
            break;
        }
        if (!ok)
            synchronize();
    }
    if (!expect(TokenKind::RBrace, "to close machine body"))
        return std::nullopt;
    if (!check(TokenKind::EndOfFile)) {
        diags_.error(peek().loc, "unexpected text after machine body");
    }
    return std::move(machine_);
}

} // namespace

std::optional<MachineDecl>
parseMachine(std::string_view source, DiagnosticEngine &diags)
{
    Lexer lexer(source, diags);
    Parser parser(lexer.lexAll(), diags);
    return parser.parseMachine();
}

} // namespace mdes::hmdes
