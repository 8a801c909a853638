#ifndef MDES_HMDES_AST_H
#define MDES_HMDES_AST_H

/**
 * @file
 * Abstract syntax tree for the high-level MDES language.
 *
 * Grammar (EBNF):
 *
 *   machine    := 'machine' STRING '{' decl* '}'
 *   decl       := resource | let | ortree | table | operation | bypass
 *   resource   := 'resource' IDENT ('[' expr ']')? ';'
 *   let        := 'let' IDENT '=' expr ';'
 *   ortree     := 'ortree' IDENT '{' oritem* '}'
 *   oritem     := option | for
 *   for        := 'for' IDENT 'in' expr '..' expr '{' oritem* '}'
 *   option     := 'option' '{' usage* '}'
 *   usage      := 'use' IDENT ('[' expr ']')? 'at' expr ';'
 *   table      := 'table' IDENT '='
 *                   ( 'and' '(' IDENT (',' IDENT)* ')' | IDENT ) ';'
 *   operation  := 'operation' IDENT '{' opfield* '}'
 *   opfield    := 'table' IDENT ';' | 'latency' expr ';'
 *               | 'cascade' IDENT ';' | 'note' STRING ';'
 *   bypass     := 'bypass' IDENT IDENT 'latency' expr ';'
 *   expr       := additive over INT | IDENT | '(' expr ')' with
 *                 + - * / % and unary minus
 *
 * `for` loops expand (nested) option lists; `and(...)` composes named
 * OR-trees into an AND/OR-tree; a bare identifier makes a table whose AND
 * level points at one OR-tree (the paper's Pentium-style description).
 *
 * The AST borrows from the parsed source: every name and string is a
 * std::string_view into it, so the source text must outlive the
 * MachineDecl. Expressions live in one pool per MachineDecl and refer to
 * each other (and are referred to) by index.
 */

#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "support/diagnostics.h"

namespace mdes::hmdes {

/** Index of an Expr in MachineDecl::exprs. */
using ExprId = uint32_t;

/** Marks an absent optional expression (e.g. a resource without a
 * count). */
constexpr ExprId kNoExpr = UINT32_MAX;

/** Arithmetic expression node. */
struct Expr
{
    enum class Kind : uint8_t { IntLit, VarRef, Unary, Binary };

    Kind kind = Kind::IntLit;
    char op = 0; ///< Unary ('-') / Binary ('+','-','*','/','%')
    SourceLocation loc;
    int64_t value = 0;          ///< IntLit
    std::string_view name = {}; ///< VarRef
    ExprId lhs = kNoExpr;       ///< Unary operand / Binary left
    ExprId rhs = kNoExpr;       ///< Binary right
};

/** `use Res[idx] at time;` */
struct UsageDecl
{
    SourceLocation loc;
    std::string_view resource;
    ExprId index = kNoExpr; ///< absent for single-instance resources
    ExprId time = kNoExpr;
};

struct UsageForDecl;

/** An item inside an option body: a usage or a usage-level for loop. */
using OptItem = std::variant<UsageDecl, UsageForDecl>;

/** `for v in lo .. hi { usage* }` inside an option: expands to the
 * loop body's usages once per iteration (e.g. a divide unit busy for
 * cycles 0..5 in a single reservation-table option). */
struct UsageForDecl
{
    SourceLocation loc;
    std::string_view var;
    ExprId lo = kNoExpr;
    ExprId hi = kNoExpr;
    std::vector<OptItem> body;
};

/** `option { optitem* }` */
struct OptionDecl
{
    SourceLocation loc;
    std::vector<OptItem> items;
};

struct ForDecl;

/** An item inside an ortree body: a literal option or a for expansion. */
using OrItem = std::variant<OptionDecl, ForDecl>;

/** `for v in lo .. hi { oritem* }` */
struct ForDecl
{
    SourceLocation loc;
    std::string_view var;
    ExprId lo = kNoExpr;
    ExprId hi = kNoExpr;
    std::vector<OrItem> body;
};

/** `resource Name[count];` */
struct ResourceDecl
{
    SourceLocation loc;
    std::string_view name;
    ExprId count = kNoExpr; ///< absent means 1
};

/** `let NAME = expr;` */
struct LetDecl
{
    SourceLocation loc;
    std::string_view name;
    ExprId value = kNoExpr;
};

/** `ortree Name { ... }` */
struct OrTreeDecl
{
    SourceLocation loc;
    std::string_view name;
    std::vector<OrItem> items;
};

/** `table Name = and(A, B, ...);` or `table Name = A;` */
struct TableDecl
{
    SourceLocation loc;
    std::string_view name;
    bool is_and = false;
    std::vector<std::string_view> or_tree_names;
    std::vector<SourceLocation> or_tree_locs;
};

/** `operation Name { table T; latency n; cascade C; note "..."; }` */
struct OperationDecl
{
    SourceLocation loc;
    std::string_view name;
    std::optional<std::string_view> table;
    SourceLocation table_loc;
    ExprId latency = kNoExpr; ///< absent means 1
    std::optional<std::string_view> cascade;
    SourceLocation cascade_loc;
    std::optional<std::string_view> note;
};

/** `bypass PRODUCER CONSUMER latency N;` - a forwarding path: when
 * CONSUMER directly consumes PRODUCER's result, the effective flow
 * latency is N instead of PRODUCER's nominal latency (paper footnote 1:
 * machine descriptions also model bypassing and forwarding effects). */
struct BypassDecl
{
    SourceLocation loc;
    std::string_view from;
    std::string_view to;
    SourceLocation from_loc;
    SourceLocation to_loc;
    ExprId latency = kNoExpr;
};

/** One top-level declaration, in source order. */
using Decl = std::variant<ResourceDecl, LetDecl, OrTreeDecl, TableDecl,
                          OperationDecl, BypassDecl>;

/** A whole machine description. */
struct MachineDecl
{
    SourceLocation loc;
    std::string_view name;
    std::vector<Decl> decls;
    /** Every expression of every declaration, addressed by ExprId. */
    std::vector<Expr> exprs;
};

} // namespace mdes::hmdes

#endif // MDES_HMDES_AST_H
