#include "hmdes/builder.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace mdes::hmdes {

namespace {

/** Usage times are pipeline-relative; this bound catches typos. */
constexpr int64_t kMaxUsageTime = 4096;
/** Sanity bound on resource instance counts and loop trip counts. */
constexpr int64_t kMaxCount = 4096;

/** Concatenate message parts (strings, views, literals). */
template <typename... Parts>
std::string
cat(const Parts &...parts)
{
    std::string s;
    (s.append(std::string_view(parts)), ...);
    return s;
}

/** Name -> id table keyed by views into the source. */
template <typename Id>
using SymbolTable = std::unordered_map<std::string_view, Id>;

class Builder
{
  public:
    Builder(const MachineDecl &machine, DiagnosticEngine &diags)
        : machine_(machine), diags_(diags), mdes_(std::string(machine.name))
    {
    }

    std::optional<Mdes> run();

  private:
    std::optional<int64_t> eval(ExprId id);
    void declare(const ResourceDecl &d);
    void declare(const LetDecl &d);
    void declare(const OrTreeDecl &d);
    void declare(const TableDecl &d);
    void declare(const OperationDecl &d);
    void declare(const BypassDecl &d);

    /** Value of a let constant or live loop variable, else null. */
    const int64_t *lookup(std::string_view name) const;
    /** Run @p body once per iteration of @p loop (a ForDecl or
     * UsageForDecl) with its variable bound; false on any error. */
    template <typename Loop, typename Body>
    bool expandLoop(const Loop &loop, Body &&body);
    bool expandItems(const std::vector<OrItem> &items,
                     std::vector<OptionId> &out);
    bool expandUsageItems(const std::vector<OptItem> &items,
                          Option &option);
    std::optional<Option> buildOption(const OptionDecl &d);

    const MachineDecl &machine_;
    DiagnosticEngine &diags_;
    Mdes mdes_;

    /** Let constants in declaration order, then the variables of the
     * loops being expanded, innermost last. Names never repeat: a
     * redefinition or a shadowing loop variable is an error. */
    std::vector<std::pair<std::string_view, int64_t>> env_;
    SymbolTable<size_t> resource_classes_; ///< name -> class idx
    SymbolTable<OrTreeId> or_trees_;
    SymbolTable<TreeId> tables_;
    SymbolTable<OpClassId> operations_;
};

const int64_t *
Builder::lookup(std::string_view name) const
{
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
        if (it->first == name)
            return &it->second;
    }
    return nullptr;
}

std::optional<int64_t>
Builder::eval(ExprId id)
{
    const Expr &e = machine_.exprs[id];
    int64_t out = 0;
    bool overflow = false;
    switch (e.kind) {
      case Expr::Kind::IntLit:
        return e.value;
      case Expr::Kind::VarRef: {
        const int64_t *v = lookup(e.name);
        if (!v) {
            diags_.error(e.loc, cat("unknown constant or loop variable '",
                                    e.name, "'"));
            return std::nullopt;
        }
        return *v;
      }
      case Expr::Kind::Unary: {
        auto v = eval(e.lhs);
        if (!v)
            return std::nullopt;
        overflow = __builtin_sub_overflow(int64_t(0), *v, &out);
        break;
      }
      case Expr::Kind::Binary: {
        auto l = eval(e.lhs);
        auto r = eval(e.rhs);
        if (!l || !r)
            return std::nullopt;
        switch (e.op) {
          case '+': overflow = __builtin_add_overflow(*l, *r, &out); break;
          case '-': overflow = __builtin_sub_overflow(*l, *r, &out); break;
          case '*': overflow = __builtin_mul_overflow(*l, *r, &out); break;
          case '/':
          case '%':
            if (*r == 0) {
                diags_.error(e.loc, e.op == '/' ? "division by zero"
                                                : "modulo by zero");
                return std::nullopt;
            }
            // The one quotient that does not fit (and traps on x86).
            overflow = *l == std::numeric_limits<int64_t>::min() && *r == -1;
            if (!overflow)
                out = e.op == '/' ? *l / *r : *l % *r;
            break;
          default:
            diags_.error(e.loc, "internal: bad binary operator");
            return std::nullopt;
        }
        break;
      }
    }
    if (overflow) {
        diags_.error(e.loc, "constant expression overflows");
        return std::nullopt;
    }
    return out;
}

void
Builder::declare(const ResourceDecl &d)
{
    if (resource_classes_.count(d.name)) {
        diags_.error(d.loc, cat("resource '", d.name, "' already declared"));
        return;
    }
    int64_t count = 1;
    if (d.count != kNoExpr) {
        auto v = eval(d.count);
        if (!v)
            return;
        count = *v;
    }
    if (count < 1 || count > kMaxCount) {
        diags_.error(d.loc, cat("resource count must be in [1, ",
                                std::to_string(kMaxCount), "]"));
        return;
    }
    mdes_.addResourceClass(std::string(d.name), uint32_t(count));
    resource_classes_.emplace(d.name, mdes_.resourceClasses().size() - 1);
}

void
Builder::declare(const LetDecl &d)
{
    if (lookup(d.name)) {
        diags_.error(d.loc, cat("constant '", d.name, "' already defined"));
        return;
    }
    auto v = eval(d.value);
    if (!v)
        return;
    env_.emplace_back(d.name, *v);
}

template <typename Loop, typename Body>
bool
Builder::expandLoop(const Loop &loop, Body &&body)
{
    if (lookup(loop.var)) {
        diags_.error(loop.loc, cat("loop variable '", loop.var,
                                   "' shadows an existing name"));
        return false;
    }
    auto lo = eval(loop.lo);
    auto hi = eval(loop.hi);
    if (!lo || !hi)
        return false;
    // hi - lo is computed unsigned: it cannot overflow once hi >= lo.
    uint64_t span = *hi < *lo ? 0 : uint64_t(*hi) - uint64_t(*lo) + 1;
    if (span > uint64_t(kMaxCount)) {
        diags_.error(loop.loc, "loop trip count too large");
        return false;
    }
    env_.emplace_back(loop.var, 0);
    bool ok = true;
    for (uint64_t i = 0; ok && i < span; ++i) {
        env_.back().second = *lo + int64_t(i);
        ok = body(loop.body);
    }
    env_.pop_back();
    return ok;
}

bool
Builder::expandUsageItems(const std::vector<OptItem> &items,
                          Option &option)
{
    for (const auto &item : items) {
        if (const auto *loop = std::get_if<UsageForDecl>(&item)) {
            if (!expandLoop(*loop, [&](const std::vector<OptItem> &body) {
                    return expandUsageItems(body, option);
                }))
                return false;
            continue;
        }
        const auto &u = std::get<UsageDecl>(item);
        auto cls_it = resource_classes_.find(u.resource);
        if (cls_it == resource_classes_.end()) {
            diags_.error(u.loc, cat("unknown resource '", u.resource, "'"));
            return false;
        }
        const ResourceClass &rc =
            mdes_.resourceClasses()[cls_it->second];
        int64_t index = 0;
        if (u.index != kNoExpr) {
            auto v = eval(u.index);
            if (!v)
                return false;
            index = *v;
        } else if (rc.count > 1) {
            diags_.error(u.loc, cat("resource '", u.resource, "' has ",
                                    std::to_string(rc.count),
                                    " instances; an index is required"));
            return false;
        }
        if (index < 0 || index >= int64_t(rc.count)) {
            diags_.error(u.loc, cat("index ", std::to_string(index),
                                    " out of range for resource '",
                                    u.resource, "' (count ",
                                    std::to_string(rc.count), ")"));
            return false;
        }
        auto time = eval(u.time);
        if (!time)
            return false;
        if (*time < -kMaxUsageTime || *time > kMaxUsageTime) {
            diags_.error(u.loc, cat("usage time ", std::to_string(*time),
                                    " out of sane range"));
            return false;
        }
        ResourceUsage usage;
        usage.time = int32_t(*time);
        usage.resource = rc.first_instance + uint32_t(index);
        if (std::find(option.usages.begin(), option.usages.end(), usage) !=
            option.usages.end()) {
            diags_.error(u.loc,
                         cat("duplicate usage of '",
                             mdes_.resourceName(usage.resource),
                             "' at time ", std::to_string(usage.time),
                             " within one option"));
            return false;
        }
        option.usages.push_back(usage);
    }
    return true;
}

std::optional<Option>
Builder::buildOption(const OptionDecl &d)
{
    Option option;
    option.usages.reserve(d.items.size());
    if (!expandUsageItems(d.items, option))
        return std::nullopt;
    if (option.usages.empty()) {
        diags_.error(d.loc, "option has no resource usages");
        return std::nullopt;
    }
    return option;
}

bool
Builder::expandItems(const std::vector<OrItem> &items,
                     std::vector<OptionId> &out)
{
    for (const auto &item : items) {
        if (const auto *opt = std::get_if<OptionDecl>(&item)) {
            auto built = buildOption(*opt);
            if (!built)
                return false;
            out.push_back(mdes_.addOption(std::move(*built)));
        } else if (!expandLoop(std::get<ForDecl>(item),
                               [&](const std::vector<OrItem> &body) {
                                   return expandItems(body, out);
                               })) {
            return false;
        }
    }
    return true;
}

void
Builder::declare(const OrTreeDecl &d)
{
    if (or_trees_.count(d.name)) {
        diags_.error(d.loc, cat("ortree '", d.name, "' already declared"));
        return;
    }
    OrTree tree;
    tree.name = d.name;
    if (!expandItems(d.items, tree.options))
        return;
    if (tree.options.empty()) {
        diags_.error(d.loc, cat("ortree '", d.name, "' has no options"));
        return;
    }
    or_trees_.emplace(d.name, mdes_.addOrTree(std::move(tree)));
}

void
Builder::declare(const TableDecl &d)
{
    if (tables_.count(d.name)) {
        diags_.error(d.loc, cat("table '", d.name, "' already declared"));
        return;
    }
    AndOrTree tree;
    tree.name = d.name;
    for (size_t i = 0; i < d.or_tree_names.size(); ++i) {
        auto it = or_trees_.find(d.or_tree_names[i]);
        if (it == or_trees_.end()) {
            diags_.error(d.or_tree_locs[i], cat("unknown ortree '",
                                                d.or_tree_names[i], "'"));
            return;
        }
        tree.or_trees.push_back(it->second);
    }

    // AND subtrees that can touch the same resource instance at the same
    // time make the greedy AND-level evaluation weaker than the full
    // cross-product (the checker stays safe via its pending overlay, but
    // a schedulable combination may be missed, and the Section 8
    // reorderings assume independence). Warn the description writer.
    for (size_t i = 0; i < tree.or_trees.size(); ++i) {
        for (size_t j = i + 1; j < tree.or_trees.size(); ++j) {
            if (mdes_.subtreesOverlap(tree.or_trees[i],
                                      tree.or_trees[j])) {
                diags_.warning(
                    d.loc,
                    cat("table '", d.name, "': AND subtrees '",
                        mdes_.orTree(tree.or_trees[i]).name, "' and '",
                        mdes_.orTree(tree.or_trees[j]).name,
                        "' can use the same resource at the same time; "
                        "greedy AND/OR checking may reject combinations "
                        "the expanded OR-tree would accept"));
            }
        }
    }
    tables_.emplace(d.name, mdes_.addTree(std::move(tree)));
}

void
Builder::declare(const OperationDecl &d)
{
    if (operations_.count(d.name)) {
        diags_.error(d.loc, cat("operation '", d.name, "' already declared"));
        return;
    }
    OperationClass oc;
    oc.name = d.name;
    if (!d.table) {
        diags_.error(d.loc,
                     cat("operation '", d.name, "' is missing a table"));
        return;
    }
    auto it = tables_.find(*d.table);
    if (it == tables_.end()) {
        diags_.error(d.table_loc, cat("unknown table '", *d.table, "'"));
        return;
    }
    oc.tree = it->second;
    if (d.latency != kNoExpr) {
        auto v = eval(d.latency);
        if (!v)
            return;
        if (*v < 0 || *v > kMaxUsageTime) {
            diags_.error(d.loc, "latency out of range");
            return;
        }
        oc.latency = int(*v);
    }
    if (d.cascade) {
        auto cit = tables_.find(*d.cascade);
        if (cit == tables_.end()) {
            diags_.error(d.cascade_loc,
                         cat("unknown cascade table '", *d.cascade, "'"));
            return;
        }
        oc.cascade_tree = cit->second;
    }
    if (d.note)
        oc.comment = *d.note;
    operations_.emplace(d.name, mdes_.addOpClass(std::move(oc)));
}

void
Builder::declare(const BypassDecl &d)
{
    auto from_it = operations_.find(d.from);
    if (from_it == operations_.end()) {
        diags_.error(d.from_loc,
                     cat("unknown operation '", d.from, "' in bypass"));
        return;
    }
    auto to_it = operations_.find(d.to);
    if (to_it == operations_.end()) {
        diags_.error(d.to_loc,
                     cat("unknown operation '", d.to, "' in bypass"));
        return;
    }
    OpClassId from = from_it->second, to = to_it->second;
    auto v = eval(d.latency);
    if (!v)
        return;
    if (*v < 0 || *v > kMaxUsageTime) {
        diags_.error(d.loc, "bypass latency out of range");
        return;
    }
    if (*v >= mdes_.opClass(from).latency) {
        diags_.warning(d.loc, cat("bypass from '", d.from, "' to '", d.to,
                                  "' does not improve on the producer's "
                                  "nominal latency"));
    }
    for (const auto &existing : mdes_.bypasses()) {
        if (existing.from == from && existing.to == to) {
            diags_.error(d.loc, cat("duplicate bypass from '", d.from,
                                    "' to '", d.to, "'"));
            return;
        }
    }
    mdes_.addBypass({from, to, int(*v)});
}

std::optional<Mdes>
Builder::run()
{
    for (const auto &decl : machine_.decls)
        std::visit([this](const auto &d) { declare(d); }, decl);
    if (mdes_.opClasses().empty()) {
        diags_.error(machine_.loc,
                     "machine declares no operations");
    }
    if (diags_.hasErrors())
        return std::nullopt;
    std::string problem = mdes_.validate();
    if (!problem.empty()) {
        diags_.error(machine_.loc, "internal consistency: " + problem);
        return std::nullopt;
    }
    return std::move(mdes_);
}

} // namespace

std::optional<Mdes>
buildMdes(const MachineDecl &machine, DiagnosticEngine &diags)
{
    Builder builder(machine, diags);
    return builder.run();
}

} // namespace mdes::hmdes
