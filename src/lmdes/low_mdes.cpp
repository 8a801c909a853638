#include "lmdes/low_mdes.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "support/diagnostics.h"

namespace mdes::lmdes {

LowMdes
LowMdes::lower(const Mdes &m, const LowerOptions &opts)
{
    LowMdes low;
    low.machine_name_ = m.name();
    low.num_resources_ = m.numResources();
    low.slot_words_ = std::max(1u, (m.numResources() + 63) / 64);
    low.packed_ = opts.pack_bit_vector;
    low.resource_names_.reserve(m.numResources());
    for (uint32_t r = 0; r < m.numResources(); ++r)
        low.resource_names_.push_back(m.resourceName(r));
    const int32_t words = int32_t(low.slot_words_);

    // Options: one low record per core option (id-level sharing kept).
    for (const auto &opt : m.options()) {
        LowOption lo;
        lo.first_check = uint32_t(low.checks_.size());
        if (opts.pack_bit_vector) {
            // Merge all usages in the same RU-map slot (same time and
            // same 64-resource word) into one check, keeping the
            // position of each slot's first appearance so the
            // usage-sorting transformation's order survives packing.
            for (const auto &u : opt.usages) {
                int32_t slot =
                    u.time * words + int32_t(u.resource / 64);
                uint64_t bit = uint64_t(1) << (u.resource % 64);
                bool merged = false;
                for (uint32_t c = lo.first_check;
                     c < low.checks_.size(); ++c) {
                    if (low.checks_[c].slot == slot) {
                        low.checks_[c].mask |= bit;
                        merged = true;
                        break;
                    }
                }
                if (!merged)
                    low.checks_.push_back({slot, bit});
            }
        } else {
            for (const auto &u : opt.usages) {
                int32_t slot =
                    u.time * words + int32_t(u.resource / 64);
                low.checks_.push_back(
                    {slot, uint64_t(1) << (u.resource % 64)});
            }
        }
        size_t n = low.checks_.size() - lo.first_check;
        if (n > std::numeric_limits<uint16_t>::max())
            throw MdesError("option with more than 65535 checks");
        lo.num_checks = uint16_t(n);
        low.options_.push_back(lo);
    }

    for (const auto &ot : m.orTrees()) {
        LowOrTree lt;
        lt.first_option_ref = uint32_t(low.option_refs_.size());
        if (ot.options.size() > std::numeric_limits<uint16_t>::max())
            throw MdesError("OR-tree with more than 65535 options");
        lt.num_options = uint16_t(ot.options.size());
        for (OptionId o : ot.options)
            low.option_refs_.push_back(o);
        low.or_trees_.push_back(lt);
    }

    for (const auto &t : m.trees()) {
        LowTree lt;
        lt.first_or_ref = uint32_t(low.or_refs_.size());
        if (t.or_trees.size() > std::numeric_limits<uint16_t>::max())
            throw MdesError("AND/OR-tree with more than 65535 subtrees");
        lt.num_or_trees = uint16_t(t.or_trees.size());
        for (OrTreeId ot : t.or_trees)
            low.or_refs_.push_back(ot);
        low.trees_.push_back(lt);
    }

    for (const auto &oc : m.opClasses()) {
        LowOpClass lc;
        lc.name = oc.name;
        lc.tree = oc.tree;
        lc.cascade_tree = oc.cascade_tree;
        lc.latency = oc.latency;
        lc.comment = oc.comment;
        low.op_classes_.push_back(std::move(lc));
    }
    for (const auto &bp : m.bypasses())
        low.bypasses_.push_back({bp.from, bp.to, bp.latency});
    low.computeTreeSummaries(opts.prefilter);
    return low;
}

namespace {

/** Union @p mask into the entry for @p slot of a small (slot, mask)
 * accumulation list, appending when the slot is new. */
void
foldBySlot(std::vector<Check> &list, int32_t slot, uint64_t mask)
{
    for (auto &e : list) {
        if (e.slot == slot) {
            e.mask |= mask;
            return;
        }
    }
    list.push_back({slot, mask});
}

} // namespace

void
LowMdes::computeTreeSummaries(bool prefilter)
{
    tree_summaries_.clear();
    tree_summaries_.reserve(trees_.size());
    prefilter_.clear();

    std::vector<Check> inter;      // per-subtree mandatory accumulation
    std::vector<Check> opt_slots;  // one option's per-slot mask union
    std::vector<Check> tree_pf;    // this tree's merged prefilter

    for (const LowTree &t : trees_) {
        TreeSummary sum;
        sum.first_prefilter = uint32_t(prefilter_.size());
        tree_pf.clear();
        int32_t mn = INT32_MAX, mx = INT32_MIN;

        for (uint32_t s = 0; s < t.num_or_trees; ++s) {
            const LowOrTree &ot = or_trees_[or_refs_[t.first_or_ref + s]];
            if (ot.num_options == 0)
                continue; // unsatisfiable subtree; the walk rejects it
            if (!prefilter) {
                // Slot window only (needed for addressing); no
                // mandatory-bit intersection.
                for (uint32_t oi = 0; oi < ot.num_options; ++oi) {
                    const LowOption &opt =
                        options_[option_refs_[ot.first_option_ref + oi]];
                    for (uint32_t c = 0; c < opt.num_checks; ++c) {
                        const Check &check = checks_[opt.first_check + c];
                        mn = std::min(mn, check.slot);
                        mx = std::max(mx, check.slot);
                    }
                }
                continue;
            }
            // Intersect the options' per-slot resource sets: bits every
            // option of this subtree must reserve are mandatory for the
            // whole tree.
            inter.clear();
            bool alive = true;
            for (uint32_t oi = 0; oi < ot.num_options; ++oi) {
                const LowOption &opt =
                    options_[option_refs_[ot.first_option_ref + oi]];
                opt_slots.clear();
                for (uint32_t c = 0; c < opt.num_checks; ++c) {
                    const Check &check = checks_[opt.first_check + c];
                    mn = std::min(mn, check.slot);
                    mx = std::max(mx, check.slot);
                    foldBySlot(opt_slots, check.slot, check.mask);
                }
                if (!alive)
                    continue; // keep scanning for the min/max window
                if (oi == 0) {
                    inter = opt_slots;
                } else {
                    for (auto &e : inter) {
                        uint64_t other = 0;
                        for (const auto &o : opt_slots) {
                            if (o.slot == e.slot) {
                                other = o.mask;
                                break;
                            }
                        }
                        e.mask &= other;
                    }
                    std::erase_if(inter, [](const Check &e) {
                        return e.mask == 0;
                    });
                }
                alive = !inter.empty();
            }
            for (const auto &e : inter)
                foldBySlot(tree_pf, e.slot, e.mask);
        }

        std::sort(tree_pf.begin(), tree_pf.end(),
                  [](const Check &a, const Check &b) {
                      return a.slot < b.slot;
                  });
        prefilter_.insert(prefilter_.end(), tree_pf.begin(),
                          tree_pf.end());
        sum.num_prefilter = uint32_t(prefilter_.size()) -
                            sum.first_prefilter;
        sum.min_slot = mn == INT32_MAX ? 0 : mn;
        sum.max_slot = mx == INT32_MIN ? 0 : mx;
        tree_summaries_.push_back(sum);
    }
}

std::string
LowMdes::resourceName(uint32_t r) const
{
    if (r < resource_names_.size())
        return resource_names_[r];
    return std::string("r").append(std::to_string(r));
}

int32_t
LowMdes::flowLatency(uint32_t producer, uint32_t consumer) const
{
    for (const auto &bp : bypasses()) {
        if (bp.from == producer && bp.to == consumer)
            return bp.latency;
    }
    return op_classes_[producer].latency;
}

uint32_t
LowMdes::findOpClass(const std::string &name) const
{
    for (size_t i = 0; i < op_classes_.size(); ++i) {
        if (op_classes_[i].name == name)
            return uint32_t(i);
    }
    return kInvalidId;
}

uint64_t
LowMdes::expandedOptionCount(uint32_t tree) const
{
    const LowTree &t = trees()[tree];
    uint64_t product = 1;
    for (uint32_t i = 0; i < t.num_or_trees; ++i)
        product *= orTrees()[orRefs()[t.first_or_ref + i]].num_options;
    return product;
}

uint64_t
LowMdes::leafOptionCount(uint32_t tree) const
{
    const LowTree &t = trees()[tree];
    uint64_t sum = 0;
    for (uint32_t i = 0; i < t.num_or_trees; ++i)
        sum += orTrees()[orRefs()[t.first_or_ref + i]].num_options;
    return sum;
}

MemoryBreakdown
LowMdes::memory() const
{
    MemoryBreakdown mem;
    mem.check_bytes = checks().size() * 8;
    mem.option_bytes = options().size() * 8;
    mem.option_ref_bytes = optionRefs().size() * 4;
    mem.or_tree_bytes = orTrees().size() * 8;
    mem.or_ref_bytes = orRefs().size() * 4;
    mem.tree_bytes = trees().size() * 8;
    return mem;
}

bool
LowMdes::operator==(const LowMdes &other) const
{
    // Content equality through the accessors, so an mmap-backed object
    // compares equal to the owned copy it was serialized from.
    auto eq = [](auto a, auto b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    return machine_name_ == other.machine_name_ &&
           num_resources_ == other.num_resources_ &&
           slot_words_ == other.slot_words_ && packed_ == other.packed_ &&
           resource_names_ == other.resource_names_ &&
           op_classes_ == other.op_classes_ &&
           eq(checks(), other.checks()) && eq(options(), other.options()) &&
           eq(optionRefs(), other.optionRefs()) &&
           eq(orTrees(), other.orTrees()) && eq(orRefs(), other.orRefs()) &&
           eq(trees(), other.trees()) &&
           eq(treeSummaries(), other.treeSummaries()) &&
           eq(prefilter(), other.prefilter()) &&
           eq(bypasses(), other.bypasses());
}

} // namespace mdes::lmdes
