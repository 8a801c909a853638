#ifndef MDES_LMDES_LOW_MDES_H
#define MDES_LMDES_LOW_MDES_H

/**
 * @file
 * The low-level machine-description representation.
 *
 * This is what the compiler actually queries: flat, pointer-free arrays
 * tuned for the resource-constraint check loop. Sharing established in
 * the structured model (by the description writer or by the CSE
 * transformation) is preserved: entities with the same core id share one
 * low-level record.
 *
 * Check encoding (Section 6): every check is a (time, resource-set) pair
 * occupying two words. In scalar encoding each resource usage is its own
 * check; with bit-vector packing all of an option's usages in the same
 * cycle merge into a single check word, so one AND against the RU map
 * probes them all.
 *
 * Since format v7 a LowMdes has two backing modes, invisible to callers:
 *
 *  - *owned*: every pool lives in this object's heap vectors (the
 *    result of lower(), load(), or a deep copy);
 *  - *mapped*: the POD pools are spans straight into a refcounted
 *    position-independent image (typically an mmap'ed store artifact;
 *    see image.h), validated once at attach time. Only the small text
 *    pieces (machine name, resource names, op-class names/comments) are
 *    materialized, so attaching is O(validation), not O(image).
 *
 * Accessors return std::span either way; the span for an owned pool
 * views the member vector, so construction and mutation order never
 * leave a dangling view. Copies of a mapped LowMdes share the backing.
 *
 * Memory accounting model (documented in DESIGN.md §2.3): check entries
 * and descriptors are 8 bytes, membership list entries 4 bytes. The
 * absolute bytes differ from the paper's 1996 implementation; reduction
 * percentages and cross-representation ratios are the reproduction
 * target.
 */

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mdes.h"

namespace mdes::lmdes {

/**
 * One resource-constraint probe.
 *
 * `slot` addresses the RU map in *slot* units: a machine with R resource
 * instances packs them into slot_words() = ceil(R/64) words per cycle,
 * and a usage at time t of a resource in word w probes slot
 * t * slot_words + w. For machines with at most 64 instances (all four
 * paper machines) slot_words is 1 and the slot equals the usage time.
 */
struct Check
{
    int32_t slot = 0;
    /** Always 0. The padding is explicit so that every byte of a check
     * is determinate and saved images are byte-stable. */
    uint32_t pad = 0;
    uint64_t mask = 0;

    Check() = default;
    Check(int32_t s, uint64_t m) : slot(s), mask(m) {}

    bool
    operator==(const Check &o) const
    {
        return slot == o.slot && mask == o.mask;
    }
};

/**
 * Per-tree probe summary, computed at lowering time and serialized with
 * the description (since format v6).
 *
 * `min_slot`/`max_slot` bound every check slot reachable from the tree,
 * letting the constraint checker address the RU map with one
 * normalization per scheduling attempt (and take an unchecked
 * direct-index fast path when the whole window is in range).
 *
 * The slice [first_prefilter, first_prefilter + num_prefilter) of
 * prefilter() is the tree's *collision-vector prefilter*: (slot, mask)
 * pairs where the mask bits are reserved by EVERY option of some OR
 * subtree - the forbidden-latency idea of Davidson-style collision
 * vectors applied to AND/OR trees. If any such bit is busy at probe
 * time, no option combination can fit, so the checker rejects the
 * attempt before touching a single option. Entries at the same slot are
 * merged and sorted by slot.
 */
struct TreeSummary
{
    int32_t min_slot = 0;
    int32_t max_slot = 0;
    uint32_t first_prefilter = 0;
    uint32_t num_prefilter = 0;

    bool operator==(const TreeSummary &) const = default;
};

/** A lowered reservation-table option: a slice of the check pool. */
struct LowOption
{
    uint32_t first_check = 0;
    uint16_t num_checks = 0;
    uint16_t pad = 0; ///< always 0 (explicit padding, as in Check)

    bool
    operator==(const LowOption &o) const
    {
        return first_check == o.first_check && num_checks == o.num_checks;
    }
};

/** A lowered OR-tree: a slice of the option-reference pool. */
struct LowOrTree
{
    uint32_t first_option_ref = 0;
    uint16_t num_options = 0;
    uint16_t pad = 0; ///< always 0 (explicit padding, as in Check)

    bool
    operator==(const LowOrTree &o) const
    {
        return first_option_ref == o.first_option_ref &&
               num_options == o.num_options;
    }
};

/** A lowered AND/OR-tree: a slice of the OR-tree-reference pool. */
struct LowTree
{
    uint32_t first_or_ref = 0;
    uint16_t num_or_trees = 0;
    uint16_t pad = 0; ///< always 0 (explicit padding, as in Check)

    bool
    operator==(const LowTree &o) const
    {
        return first_or_ref == o.first_or_ref &&
               num_or_trees == o.num_or_trees;
    }
};

/** A lowered forwarding path (see core Bypass). */
struct LowBypass
{
    uint32_t from = kInvalidId;
    uint32_t to = kInvalidId;
    int32_t latency = 0;

    bool operator==(const LowBypass &) const = default;
};

/** A lowered operation class. */
struct LowOpClass
{
    std::string name;
    uint32_t tree = kInvalidId;
    uint32_t cascade_tree = kInvalidId;
    int32_t latency = 1;
    std::string comment;

    bool operator==(const LowOpClass &) const = default;
};

/** Byte accounting of the resource-constraint representation. */
struct MemoryBreakdown
{
    size_t check_bytes = 0;
    size_t option_bytes = 0;
    size_t option_ref_bytes = 0;
    size_t or_tree_bytes = 0;
    size_t or_ref_bytes = 0;
    size_t tree_bytes = 0;

    size_t
    total() const
    {
        return check_bytes + option_bytes + option_ref_bytes +
               or_tree_bytes + or_ref_bytes + tree_bytes;
    }
};

/** Lowering controls. */
struct LowerOptions
{
    /** Pack one cycle's usages per option into a single check word. */
    bool pack_bit_vector = false;
    /**
     * Compute per-tree collision-vector prefilters (TreeSummary). On by
     * default - the checker rejects most doomed attempts without walking
     * any option. The paper-reproduction benches lower with this off so
     * their options/checks-per-attempt accounting matches the engine
     * the paper measured (the prefilter changes counts, never
     * decisions).
     */
    bool prefilter = true;
};

/** How LowMdes::fromImage should relate to the caller's image bytes. */
struct ImageSource
{
    /**
     * Keeps the image alive for as long as any copy of the resulting
     * LowMdes exists (e.g. an munmap-on-release mapping handle). Null
     * means "the bytes are transient": the pools are deep-copied into
     * owned vectors instead of borrowed.
     */
    std::shared_ptr<const void> backing;
    /**
     * Verify Header::checksum before parsing. The store's mmap path
     * passes false because the whole-file trailer it just verified
     * already covers the image ("checksum verified once at open").
     */
    bool verify_checksum = true;
};

/**
 * The packed low-level MDES. Construct via lower(); query from the
 * constraint checker and the scheduler.
 */
class LowMdes
{
  public:
    /** Lower the structured model @p m. Machines wider than 64 resource
     * instances use several RU-map words per cycle (see Check::slot). */
    static LowMdes lower(const Mdes &m, const LowerOptions &opts = {});

    const std::string &machineName() const { return machine_name_; }
    uint32_t numResources() const { return num_resources_; }
    /** RU-map words per cycle: ceil(numResources / 64). */
    uint32_t slotWords() const { return slot_words_; }
    bool packed() const { return packed_; }

    /** True when the POD pools borrow a mapped image (see fromImage). */
    bool mapped() const { return backing_ != nullptr; }

    /** Per-instance resource names ("Name" or "Name[i]" in declaration
     * order), kept for conflict-profiling reports. Always materialized,
     * even in mapped mode. */
    const std::vector<std::string> &resourceNames() const
    {
        return resource_names_;
    }

    /** Name of resource instance @p r; "r<id>" when names are absent. */
    std::string resourceName(uint32_t r) const;

    std::span<const Check> checks() const
    {
        return mapped() ? view_.checks : std::span<const Check>(checks_);
    }
    std::span<const LowOption> options() const
    {
        return mapped() ? view_.options
                        : std::span<const LowOption>(options_);
    }
    std::span<const uint32_t> optionRefs() const
    {
        return mapped() ? view_.option_refs
                        : std::span<const uint32_t>(option_refs_);
    }
    std::span<const LowOrTree> orTrees() const
    {
        return mapped() ? view_.or_trees
                        : std::span<const LowOrTree>(or_trees_);
    }
    std::span<const uint32_t> orRefs() const
    {
        return mapped() ? view_.or_refs
                        : std::span<const uint32_t>(or_refs_);
    }
    std::span<const LowTree> trees() const
    {
        return mapped() ? view_.trees : std::span<const LowTree>(trees_);
    }
    /** Per-tree probe summaries, parallel to trees(). */
    std::span<const TreeSummary> treeSummaries() const
    {
        return mapped() ? view_.tree_summaries
                        : std::span<const TreeSummary>(tree_summaries_);
    }
    /** Collision-vector prefilter pool (see TreeSummary). */
    std::span<const Check> prefilter() const
    {
        return mapped() ? view_.prefilter
                        : std::span<const Check>(prefilter_);
    }
    /** Operation classes. Always materialized (they carry strings). */
    const std::vector<LowOpClass> &opClasses() const { return op_classes_; }
    std::span<const LowBypass> bypasses() const
    {
        return mapped() ? view_.bypasses
                        : std::span<const LowBypass>(bypasses_);
    }

    /**
     * Effective flow latency when @p consumer directly consumes
     * @p producer's result: the bypass latency when a forwarding path is
     * declared, else the producer's nominal latency.
     */
    int32_t flowLatency(uint32_t producer, uint32_t consumer) const;

    /** Find an operation class by name; kInvalidId if absent. */
    uint32_t findOpClass(const std::string &name) const;

    /** Number of options the flat OR-tree form of @p tree would have
     * (product of subtree option counts). */
    uint64_t expandedOptionCount(uint32_t tree) const;

    /** Sum of option counts across @p tree's OR subtrees. */
    uint64_t leafOptionCount(uint32_t tree) const;

    /** Byte accounting under the documented model. */
    MemoryBreakdown memory() const;

    /** Serialize as a v7 position-independent image (works in either
     * backing mode). */
    void save(std::ostream &os) const;

    /**
     * Deserialize into owned storage; throws MdesError on malformed
     * input and MdesVersionError (see image.h) on a version this build
     * does not speak. Counts as a full deserialization.
     */
    static LowMdes load(std::istream &is);

    /**
     * Attach to (or copy out of) a v7 image of @p size bytes at @p base,
     * which must be at least 8-byte aligned (mmap'ed files and
     * uint64_t-backed buffers both qualify). The image is bounds- and
     * cross-reference-validated before any span is published; throws
     * MdesError / MdesVersionError like load(). With src.backing set the
     * result borrows the image zero-copy; otherwise the pools are
     * deep-copied and the call counts as a full deserialization.
     */
    static LowMdes fromImage(const void *base, size_t size,
                             const ImageSource &src = {});

    /** Content equality, regardless of backing mode. */
    bool operator==(const LowMdes &other) const;

  private:
    /** Derive tree_summaries_/prefilter_ from the lowered pools (called
     * at the end of lower(); load() reads the serialized copies). With
     * @p prefilter false, slot windows are still computed but every
     * prefilter slice stays empty (see LowerOptions::prefilter). */
    void computeTreeSummaries(bool prefilter);

    /** Copy every borrowed pool into the owned vectors and drop the
     * backing (used by load() and the deep-copy path of fromImage). */
    void materialize();

    /** Spans into a borrowed image; meaningful only when backing_ is
     * non-null. */
    struct ImageView
    {
        std::span<const Check> checks;
        std::span<const LowOption> options;
        std::span<const uint32_t> option_refs;
        std::span<const LowOrTree> or_trees;
        std::span<const uint32_t> or_refs;
        std::span<const LowTree> trees;
        std::span<const TreeSummary> tree_summaries;
        std::span<const Check> prefilter;
        std::span<const LowBypass> bypasses;
    };

    std::string machine_name_;
    uint32_t num_resources_ = 0;
    uint32_t slot_words_ = 1;
    bool packed_ = false;
    std::vector<std::string> resource_names_;
    std::vector<Check> checks_;
    std::vector<LowOption> options_;
    std::vector<uint32_t> option_refs_;
    std::vector<LowOrTree> or_trees_;
    std::vector<uint32_t> or_refs_;
    std::vector<LowTree> trees_;
    std::vector<TreeSummary> tree_summaries_;
    std::vector<Check> prefilter_;
    std::vector<LowOpClass> op_classes_;
    std::vector<LowBypass> bypasses_;
    /** Null in owned mode; keeps the mapped image alive otherwise. */
    std::shared_ptr<const void> backing_;
    ImageView view_;
};

} // namespace mdes::lmdes

#endif // MDES_LMDES_LOW_MDES_H
