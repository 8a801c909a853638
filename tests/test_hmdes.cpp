/**
 * @file
 * High-level MDES language tests: lexing, parsing, expression and loop
 * evaluation, semantic checks, and error reporting with locations.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/transforms.h"
#include "hmdes/compile.h"
#include "hmdes/lexer.h"
#include "hmdes/parser.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "support/fnv.h"
#include "support/rng.h"

#ifndef MDES_SOURCE_DIR
#define MDES_SOURCE_DIR "."
#endif

namespace mdes {
namespace {

using hmdes::Lexer;
using hmdes::Token;
using hmdes::TokenKind;

std::vector<Token>
lex(std::string_view src, DiagnosticEngine &diags)
{
    Lexer lexer(src, diags);
    return lexer.lexAll();
}

// ------------------------------------------------------------------- Lexer

TEST(Lexer, BasicTokens)
{
    DiagnosticEngine diags;
    auto tokens = lex("machine \"X\" { resource R[3]; }", diags);
    ASSERT_FALSE(diags.hasErrors());
    ASSERT_EQ(tokens.size(), 11u);
    EXPECT_EQ(tokens[0].kind, TokenKind::KwMachine);
    EXPECT_EQ(tokens[1].kind, TokenKind::String);
    EXPECT_EQ(tokens[1].text, "X");
    EXPECT_EQ(tokens[3].kind, TokenKind::KwResource);
    EXPECT_EQ(tokens[4].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[4].text, "R");
    EXPECT_EQ(tokens[6].kind, TokenKind::Integer);
    EXPECT_EQ(tokens[6].value, 3);
    EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
}

TEST(Lexer, KeywordsAndNearMisses)
{
    const std::pair<const char *, TokenKind> keywords[] = {
        {"machine", TokenKind::KwMachine},
        {"resource", TokenKind::KwResource},
        {"let", TokenKind::KwLet},
        {"ortree", TokenKind::KwOrTree},
        {"for", TokenKind::KwFor},
        {"in", TokenKind::KwIn},
        {"option", TokenKind::KwOption},
        {"use", TokenKind::KwUse},
        {"at", TokenKind::KwAt},
        {"table", TokenKind::KwTable},
        {"and", TokenKind::KwAnd},
        {"operation", TokenKind::KwOperation},
        {"latency", TokenKind::KwLatency},
        {"cascade", TokenKind::KwCascade},
        {"note", TokenKind::KwNote},
        {"bypass", TokenKind::KwBypass},
    };
    for (const auto &[spelling, kind] : keywords) {
        DiagnosticEngine diags;
        auto tokens = lex(spelling, diags);
        EXPECT_EQ(tokens[0].kind, kind) << spelling;
        EXPECT_TRUE(tokens[0].text.empty()) << spelling;
    }
    // Prefixes, extensions and case variants are identifiers.
    for (const char *name : {"o", "or", "op", "opt", "ortrees", "operations",
                             "a", "an", "ats", "l", "lets", "Machine", "IN",
                             "_for", "use1", "latenc"}) {
        DiagnosticEngine diags;
        auto tokens = lex(name, diags);
        EXPECT_EQ(tokens[0].kind, TokenKind::Identifier) << name;
        EXPECT_EQ(tokens[0].text, name);
    }
}

TEST(Lexer, CommentsAreSkipped)
{
    DiagnosticEngine diags;
    auto tokens = lex("// line\n/* block\nstill */ let /*x*/ A = 1;",
                      diags);
    ASSERT_FALSE(diags.hasErrors());
    EXPECT_EQ(tokens[0].kind, TokenKind::KwLet);
}

TEST(Lexer, TracksLineAndColumn)
{
    DiagnosticEngine diags;
    auto tokens = lex("let\n  foo", diags);
    EXPECT_EQ(tokens[0].loc.line, 1);
    EXPECT_EQ(tokens[0].loc.column, 1);
    EXPECT_EQ(tokens[1].loc.line, 2);
    EXPECT_EQ(tokens[1].loc.column, 3);
}

TEST(Lexer, DotDotAndArithmetic)
{
    DiagnosticEngine diags;
    auto tokens = lex("0 .. 3 + 4 * -2 % (1/1)", diags);
    ASSERT_FALSE(diags.hasErrors());
    EXPECT_EQ(tokens[1].kind, TokenKind::DotDot);
    EXPECT_EQ(tokens[3].kind, TokenKind::Plus);
    EXPECT_EQ(tokens[5].kind, TokenKind::Star);
    EXPECT_EQ(tokens[6].kind, TokenKind::Minus);
}

TEST(Lexer, ReportsBadCharacters)
{
    DiagnosticEngine diags;
    lex("let @ = 1;", diags);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_NE(diags.toString().find("unexpected character"),
              std::string::npos);
}

TEST(Lexer, ReportsUnterminatedString)
{
    DiagnosticEngine diags;
    lex("machine \"oops", diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, ReportsUnterminatedBlockComment)
{
    DiagnosticEngine diags;
    lex("/* never closed", diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, SingleDotIsAnError)
{
    DiagnosticEngine diags;
    lex("0 . 3", diags);
    EXPECT_TRUE(diags.hasErrors());
}

// ----------------------------------------------------------------- Parsing

/** A minimal valid machine around the given body. */
std::string
wrap(const std::string &body)
{
    return "machine \"T\" {\n" + body + "\n}";
}

TEST(Compile, MinimalMachine)
{
    auto m = hmdes::compileOrThrow(wrap(R"(
        resource R;
        ortree TheR { option { use R at 0; } }
        table T = TheR;
        operation NOP { table T; }
    )"));
    EXPECT_EQ(m.name(), "T");
    EXPECT_EQ(m.numResources(), 1u);
    ASSERT_EQ(m.opClasses().size(), 1u);
    EXPECT_EQ(m.opClasses()[0].latency, 1); // default
}

TEST(Compile, LetConstantsAndArithmetic)
{
    auto m = hmdes::compileOrThrow(wrap(R"(
        let N = 2 + 2 * 3;         // 8
        let T = -(N / 4) % 3;      // -2
        resource R[N];
        ortree O { option { use R[N - 1] at T; } }
        table Tbl = O;
        operation X { table Tbl; latency N - 6; }
    )"));
    EXPECT_EQ(m.numResources(), 8u);
    EXPECT_EQ(m.option(0).usages[0].resource, 7u);
    EXPECT_EQ(m.option(0).usages[0].time, -2);
    EXPECT_EQ(m.opClasses()[0].latency, 2);
}

TEST(Compile, ForLoopsExpandOptions)
{
    auto m = hmdes::compileOrThrow(wrap(R"(
        resource R[4];
        ortree Pairs {
            for a in 0 .. 3 { for b in a + 1 .. 3 {
                option { use R[a] at 0; use R[b] at 0; }
            } }
        }
        table T = Pairs;
        operation X { table T; }
    )"));
    EXPECT_EQ(m.orTree(0).options.size(), 6u); // C(4,2)
    // First option should be R[0]+R[1] (loop order preserved).
    EXPECT_EQ(m.option(m.orTree(0).options[0]).usages[0].resource, 0u);
    EXPECT_EQ(m.option(m.orTree(0).options[0]).usages[1].resource, 1u);
}

TEST(Compile, UsageLevelForLoops)
{
    // A divide unit busy for six consecutive cycles, written as a loop
    // inside a single option.
    auto m = hmdes::compileOrThrow(wrap(R"(
        resource DIV;
        resource S[2];
        ortree Busy {
            option { for t in 0 .. 5 { use DIV at t; } }
        }
        ortree Slots {
            option { for i in 0 .. 1 { use S[i] at 0; } use DIV at 6; }
        }
        table T = and(Busy, Slots);
        operation X { table T; }
    )"));
    ASSERT_EQ(m.option(0).usages.size(), 6u);
    for (int32_t t = 0; t < 6; ++t) {
        EXPECT_EQ(m.option(0).usages[size_t(t)].time, t);
        EXPECT_EQ(m.option(0).usages[size_t(t)].resource, 0u);
    }
    // Mixed loop + plain usages in one option.
    ASSERT_EQ(m.option(1).usages.size(), 3u);
    EXPECT_EQ(m.option(1).usages[2].time, 6);
}

TEST(Compile, NestedUsageForLoops)
{
    auto m = hmdes::compileOrThrow(wrap(R"(
        resource G[2];
        ortree Grid {
            option { for a in 0 .. 1 { for t in 0 .. 1 {
                use G[a] at a * 2 + t;
            } } }
        }
        table T = Grid;
        operation X { table T; }
    )"));
    ASSERT_EQ(m.option(0).usages.size(), 4u);
    EXPECT_EQ(m.option(0).usages[3].time, 3);
    EXPECT_EQ(m.option(0).usages[3].resource, 1u);
}

TEST(Compile, UsageForDuplicateIsStillAnError)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap(R"(
        resource DIV;
        ortree Busy { option { for t in 0 .. 1 { use DIV at 0; } } }
        table T = Busy;
        operation X { table T; }
    )"),
                            diags);
    EXPECT_FALSE(m.has_value());
    EXPECT_NE(diags.toString().find("duplicate usage"),
              std::string::npos);
}

TEST(Compile, UsageForEmptyExpansionIsEmptyOptionError)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap(R"(
        resource DIV;
        ortree Busy { option { for t in 1 .. 0 { use DIV at t; } } }
        table T = Busy;
        operation X { table T; }
    )"),
                            diags);
    EXPECT_FALSE(m.has_value());
    EXPECT_NE(diags.toString().find("no resource usages"),
              std::string::npos);
}

TEST(Compile, EmptyLoopRangeYieldsNothing)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap(R"(
        resource R[2];
        ortree O {
            option { use R[0] at 0; }
            for i in 1 .. 0 { option { use R[1] at 0; } }
        }
        table T = O;
        operation X { table T; }
    )"),
                            diags);
    ASSERT_TRUE(m.has_value()) << diags.toString();
    EXPECT_EQ(m->orTree(0).options.size(), 1u);
}

TEST(Compile, LoopEndingAtInt64MaxTerminates)
{
    // The last iteration must not step the loop variable past
    // INT64_MAX (which wrapped and looped forever).
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap(R"(
        let M = 1000000000 * 1000000000 * 9 + 223372036 * 1000000000
                + 854775807;
        resource R;
        ortree O { option { use R at 0; } for i in M - 1 .. M { } }
        table T = O;
        operation X { table T; }
    )"),
                            diags);
    ASSERT_TRUE(m.has_value()) << diags.toString();
    EXPECT_EQ(m->orTree(0).options.size(), 1u);
}

TEST(Compile, OverflowIsLocatedAtTheOperator)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap("let A = 1000000000 * 1000000000;\n"
                                 "let B = A * 10;"),
                            diags);
    EXPECT_FALSE(m.has_value());
    ASSERT_FALSE(diags.diagnostics().empty());
    const Diagnostic &d = diags.diagnostics()[0];
    EXPECT_EQ(d.message, "constant expression overflows");
    EXPECT_EQ(d.loc.line, 3);
    EXPECT_EQ(d.loc.column, 11);
}

TEST(Compile, AndTableComposesOrTrees)
{
    auto m = hmdes::compileOrThrow(wrap(R"(
        resource A[2]; resource B[3];
        ortree AnyA { for i in 0 .. 1 { option { use A[i] at 0; } } }
        ortree AnyB { for i in 0 .. 2 { option { use B[i] at 1; } } }
        table T = and(AnyA, AnyB);
        operation X { table T; }
    )"));
    ASSERT_EQ(m.trees().size(), 1u);
    EXPECT_EQ(m.tree(0).or_trees.size(), 2u);
    EXPECT_EQ(m.expandedOptionCount(0), 6u);
    EXPECT_EQ(m.leafOptionCount(0), 5u);
}

TEST(Compile, SharedOrTreesShareIds)
{
    auto m = hmdes::compileOrThrow(wrap(R"(
        resource A; resource B;
        ortree UnitA { option { use A at 0; } }
        ortree UnitB { option { use B at 0; } }
        table T1 = and(UnitA, UnitB);
        table T2 = and(UnitA, UnitB);
        operation X { table T1; }
        operation Y { table T2; }
    )"));
    // Both tables reference the *same* OR-tree entities.
    EXPECT_EQ(m.tree(0).or_trees, m.tree(1).or_trees);
}

TEST(Compile, CascadeAndNote)
{
    auto m = hmdes::compileOrThrow(wrap(R"(
        resource R[2];
        ortree Any { for i in 0 .. 1 { option { use R[i] at 0; } } }
        ortree One { option { use R[1] at 0; } }
        table Full = Any;
        table Casc = One;
        operation ADD { table Full; cascade Casc; latency 1; note "adds"; }
    )"));
    const auto &oc = m.opClasses()[0];
    EXPECT_NE(oc.cascade_tree, kInvalidId);
    EXPECT_EQ(oc.comment, "adds");
}

// ---------------------------------------------------------- Semantic errors

struct BadCase
{
    const char *label;
    const char *body;
    const char *expect;
};

class CompileErrors : public testing::TestWithParam<BadCase>
{
};

TEST_P(CompileErrors, ReportsTheProblem)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap(GetParam().body), diags);
    EXPECT_FALSE(m.has_value());
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_NE(diags.toString().find(GetParam().expect), std::string::npos)
        << "diagnostics were:\n"
        << diags.toString();
}

const BadCase kBadCases[] = {
    {"unknown_resource",
     "ortree O { option { use Nope at 0; } } table T = O; "
     "operation X { table T; }",
     "unknown resource"},
    {"index_out_of_range",
     "resource R[2]; ortree O { option { use R[2] at 0; } } "
     "table T = O; operation X { table T; }",
     "out of range"},
    {"missing_index",
     "resource R[2]; ortree O { option { use R at 0; } } "
     "table T = O; operation X { table T; }",
     "index is required"},
    {"duplicate_usage",
     "resource R; ortree O { option { use R at 0; use R at 0; } } "
     "table T = O; operation X { table T; }",
     "duplicate usage"},
    {"empty_option",
     "resource R; ortree O { option { } } table T = O; "
     "operation X { table T; }",
     "no resource usages"},
    {"empty_ortree",
     "resource R; ortree O { } table T = O; operation X { table T; }",
     "no options"},
    {"unknown_ortree",
     "resource R; table T = Ghost; operation X { table T; }",
     "unknown ortree"},
    {"unknown_table",
     "resource R; ortree O { option { use R at 0; } } "
     "operation X { table Ghost; }",
     "unknown table"},
    {"unknown_cascade",
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; cascade Ghost; }",
     "unknown cascade table"},
    {"duplicate_resource",
     "resource R; resource R; ortree O { option { use R at 0; } } "
     "table T = O; operation X { table T; }",
     "already declared"},
    {"duplicate_ortree",
     "resource R; ortree O { option { use R at 0; } } "
     "ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; }",
     "already declared"},
    {"duplicate_table",
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "table T = O; operation X { table T; }",
     "already declared"},
    {"duplicate_operation",
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; } operation X { table T; }",
     "already declared"},
    {"unknown_constant",
     "resource R[N]; ortree O { option { use R[0] at 0; } } "
     "table T = O; operation X { table T; }",
     "unknown constant"},
    {"division_by_zero",
     "let N = 1 / 0; resource R; ortree O { option { use R at 0; } } "
     "table T = O; operation X { table T; }",
     "division by zero"},
    // The three expressions below each killed or miscompiled the
    // process before constant arithmetic was checked: INT64_MIN / -1 and
    // INT64_MIN % -1 trap (SIGFPE), INT64_MIN * 3 wraps silently.
    {"quotient_overflow",
     "let A = (0 - 536870912*536870912*16) * 2; let B = A / (0-1); "
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; }",
     "constant expression overflows"},
    {"remainder_overflow",
     "let A = (0 - 536870912*536870912*16) * 2; let B = A % (0-1); "
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; }",
     "constant expression overflows"},
    {"product_overflow",
     "let A = (0 - 536870912*536870912*16) * 2; let B = A * 3; "
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; }",
     "constant expression overflows"},
    {"negation_overflow",
     "let A = (0 - 536870912*536870912*16) * 2; let B = -A; "
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; }",
     "constant expression overflows"},
    {"huge_loop_range",
     "let H = 536870912*536870912*16; resource R; "
     "ortree O { for i in 0 - H .. H { option { use R at 0; } } } "
     "table T = O; operation X { table T; }",
     "loop trip count too large"},
    {"loop_shadowing",
     "let i = 1; resource R[2]; "
     "ortree O { for i in 0 .. 1 { option { use R[i] at 0; } } } "
     "table T = O; operation X { table T; }",
     "shadows"},
    {"negative_latency",
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { table T; latency 0 - 5; }",
     "latency out of range"},
    {"no_operations", "resource R;", "declares no operations"},
    {"operation_without_table",
     "resource R; ortree O { option { use R at 0; } } table T = O; "
     "operation X { latency 1; }",
     "missing a table"},
};

std::string
badName(const testing::TestParamInfo<BadCase> &info)
{
    return info.param.label;
}

INSTANTIATE_TEST_SUITE_P(AllBadInputs, CompileErrors,
                         testing::ValuesIn(kBadCases), badName);

TEST(CompileWarnings, OverlappingAndSubtreesWarn)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap(R"(
        resource R[2];
        ortree A { for i in 0 .. 1 { option { use R[i] at 0; } } }
        ortree B { option { use R[0] at 0; } }
        table T = and(A, B);
        operation X { table T; }
    )"),
                            diags);
    ASSERT_TRUE(m.has_value());
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_NE(diags.toString().find("same resource at the same time"),
              std::string::npos);
}

TEST(CompileWarnings, DisjointAndSubtreesDoNotWarn)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile(wrap(R"(
        resource R[2]; resource S;
        ortree A { for i in 0 .. 1 { option { use R[i] at 0; } } }
        ortree B { option { use S at 0; } }
        ortree C { option { use R[0] at 1; } }  // same resource, other time
        table T = and(A, B, C);
        operation X { table T; }
    )"),
                            diags);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(diags.diagnostics().empty());
}

TEST(CompileWarnings, ShippedMachinesCompileWarningFree)
{
    for (const auto *info : machines::all()) {
        DiagnosticEngine diags;
        auto m = hmdes::compile(info->source, diags);
        ASSERT_TRUE(m.has_value());
        EXPECT_TRUE(diags.diagnostics().empty())
            << info->name << ":\n"
            << diags.toString();
    }
}

TEST(CompileErrorsExtra, SyntaxErrorHasLocation)
{
    DiagnosticEngine diags;
    auto m = hmdes::compile("machine \"X\" {\n  resource ;\n}", diags);
    EXPECT_FALSE(m.has_value() && !diags.hasErrors());
    ASSERT_FALSE(diags.diagnostics().empty());
    EXPECT_EQ(diags.diagnostics()[0].loc.line, 2);
}

TEST(CompileErrorsExtra, RecoversAndReportsMultipleErrors)
{
    DiagnosticEngine diags;
    hmdes::compile(wrap(R"(
        resource R;
        resource R;
        ortree O { option { use Ghost at 0; } }
    )"),
                   diags);
    EXPECT_GE(diags.diagnostics().size(), 2u);
}

TEST(CompileErrorsExtra, ThrowingEntryThrows)
{
    EXPECT_THROW(hmdes::compileOrThrow("machine \"X\" {}"), MdesError);
}

TEST(CompileErrorsExtra, TrailingGarbageRejected)
{
    DiagnosticEngine diags;
    hmdes::compile("machine \"X\" { resource R; ortree O { option { use "
                   "R at 0; } } table T = O; operation A { table T; } } "
                   "extra",
                   diags);
    EXPECT_TRUE(diags.hasErrors());
}

// ------------------------------------------------- Front-end equivalence

/** Every built-in source, the on-disk example, and 200 fixed-seed
 * mutations of each built-in source (the LexerAndParserNeverCrash
 * scheme: byte flips, deletions, punctuation-run insertions). */
std::vector<std::string>
equivalenceCorpus()
{
    std::vector<const machines::MachineInfo *> infos = machines::all();
    for (const auto *info : machines::extensions())
        infos.push_back(info);
    std::vector<std::string> texts;
    for (const auto *info : infos)
        texts.emplace_back(info->source);
    std::ifstream in(std::string(MDES_SOURCE_DIR) +
                     "/descriptions/blackbird_vliw.hmdes");
    std::ostringstream file;
    file << in.rdbuf();
    texts.push_back(file.str());
    for (size_t m = 0; m < infos.size(); ++m) {
        Rng rng(0xF0225 + m);
        for (int trial = 0; trial < 200; ++trial) {
            std::string text = infos[m]->source;
            int edits = int(rng.range(1, 8));
            for (int e = 0; e < edits; ++e) {
                size_t pos = rng.below(text.size());
                switch (rng.below(3)) {
                  case 0:
                    text[pos] = char(rng.below(256));
                    break;
                  case 1:
                    text.erase(pos, rng.below(20) + 1);
                    break;
                  default:
                    text.insert(pos, "{;]..//*");
                    break;
                }
            }
            texts.push_back(std::move(text));
        }
    }
    return texts;
}

/** Fold @p bytes and a 0xFF separator into @p h, so field boundaries
 * feed the digest too. */
void
fnvMix(uint64_t &h, std::string_view bytes)
{
    h = fnv1a64("\xff", 1, fnv1a64(bytes, h));
}

TEST(FrontEndEquivalence, DigestMatchesTheReferenceFrontEnd)
{
    // Pinned from the std::string/std::map front end this one replaced:
    // rendered diagnostics of every text, plus the v7 image of every
    // text that compiles (lowered with no transforms). Any change in an
    // accepted description, a message, its order or its location moves
    // the digest.
    constexpr uint64_t kDigest = 0xf851869f6bf758b3ull;
    constexpr size_t kCompiled = 70;
    constexpr size_t kFailed = 1137;

    uint64_t h = kFnvOffset;
    size_t compiled = 0, failed = 0;
    for (const std::string &text : equivalenceCorpus()) {
        DiagnosticEngine diags;
        auto m = hmdes::compile(text, diags);
        fnvMix(h, diags.toString());
        if (!m) {
            ++failed;
            continue;
        }
        ++compiled;
        runPipeline(*m, PipelineConfig::none());
        std::ostringstream image;
        lmdes::LowMdes::lower(*m).save(image);
        fnvMix(h, image.str());
    }
    EXPECT_EQ(compiled + failed, 7u + 6u * 200u);
    EXPECT_EQ(compiled, kCompiled);
    EXPECT_EQ(failed, kFailed);
    EXPECT_EQ(h, kDigest) << std::hex << "digest 0x" << h;
}

} // namespace
} // namespace mdes
