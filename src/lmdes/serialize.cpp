#include <algorithm>
#include <atomic>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

#include "lmdes/image.h"
#include "lmdes/low_mdes.h"
#include "support/diagnostics.h"
#include "support/fnv.h"

/**
 * @file
 * Binary serialization of the low-level representation, so a translated
 * and optimized MDES can be shipped to and loaded by the compiler without
 * reparsing or reoptimizing (the paper's "minimize the time required to
 * load the MDES into memory").
 *
 * Format v7 (layout in image.h): a position-independent image -
 *
 *   [Header: magic "LMDS", version, image_bytes, checksum,
 *    scalars, section table]  [pad to 256]  [64-byte-aligned sections]
 *
 * with every POD pool at a fixed stride and all text in one string pool,
 * so the image can be attached in place (LowMdes::fromImage borrowing an
 * mmap'ed artifact) as well as deep-copied (LowMdes::load from a
 * stream). Earlier formats (v4-v6) were length-prefixed byte streams
 * that always required a full deserialization; they are read by no one -
 * the store silently recompiles on version mismatch.
 *
 * Attaching is paranoid in the same spirit v4's ByteReader was: the
 * image size is bounded up front, the section table is checked for
 * entries that overlap, fall outside the image, or are misaligned for
 * their element stride, every cross-reference between pools is
 * validated, and - new in v7 - Check contents themselves are validated
 * (mask bits within num_resources for the check's RU-map word, slots
 * inside the owning tree's summary window) so a checksum-valid but
 * crafted image can never drive the flat checker out of bounds. Every
 * error message states what was found versus what was expected.
 */

namespace mdes::lmdes {

namespace {

std::atomic<uint64_t> g_full_deserializations{0};

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx", (unsigned long long)v);
    return buf;
}

/** Render possibly-binary magic bytes for an error message. */
std::string
printableMagic(const char m[4])
{
    std::string out;
    for (int i = 0; i < 4; ++i) {
        unsigned char c = (unsigned char)m[i];
        if (c >= 0x20 && c < 0x7f) {
            out += char(c);
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", c);
            out += buf;
        }
    }
    return out;
}

/** Element stride of each section, indexed by v7::SectionId. */
constexpr size_t kElemSize[v7::kNumSections] = {
    sizeof(Check),         // kChecks
    sizeof(LowOption),     // kOptions
    sizeof(uint32_t),      // kOptionRefs
    sizeof(LowOrTree),     // kOrTrees
    sizeof(uint32_t),      // kOrRefs
    sizeof(LowTree),       // kTrees
    sizeof(LowBypass),     // kBypasses
    sizeof(TreeSummary),   // kTreeSummaries
    sizeof(Check),         // kPrefilter
    sizeof(v7::OpClassRec),// kOpClasses
    sizeof(v7::StrRef),    // kResourceNames
    1,                     // kStringPool
};

constexpr const char *kSectionNames[v7::kNumSections] = {
    "checks",        "options",   "option-refs",    "or-trees",
    "or-refs",       "trees",     "bypasses",       "tree-summaries",
    "prefilter",     "op-classes","resource-names", "string-pool",
};

template <typename T>
std::span<const T>
sectionSpan(const char *base, const v7::Section &s)
{
    return {reinterpret_cast<const T *>(base + s.offset),
            size_t(s.bytes) / sizeof(T)};
}

/**
 * ByteReader-style paranoia for the v7 section table: every entry must
 * lie inside [kDataStart, image_bytes), start on a kAlign boundary, be a
 * whole number of elements, and no two non-empty sections may overlap.
 * A corrupt entry is reported with the offending values, never used.
 */
void
validateSectionTable(const v7::Header &hdr)
{
    struct Extent
    {
        uint64_t off, end;
        uint32_t id;
    };
    std::vector<Extent> extents;
    for (uint32_t i = 0; i < v7::kNumSections; ++i) {
        const v7::Section &s = hdr.sections[i];
        if (s.offset % v7::kAlign != 0)
            throw MdesError(std::string("LMDES section '") +
                            kSectionNames[i] + "' is misaligned: offset " +
                            std::to_string(s.offset) + " is not a multiple "
                            "of " + std::to_string(v7::kAlign));
        if (s.offset < v7::kDataStart || s.offset > hdr.image_bytes ||
            s.bytes > hdr.image_bytes - s.offset)
            throw MdesError(std::string("LMDES section '") +
                            kSectionNames[i] + "' falls outside the image: "
                            "offset " + std::to_string(s.offset) + " + " +
                            std::to_string(s.bytes) + " bytes vs image of " +
                            std::to_string(hdr.image_bytes));
        if (s.bytes % kElemSize[i] != 0)
            throw MdesError(std::string("LMDES section '") +
                            kSectionNames[i] + "' has " +
                            std::to_string(s.bytes) + " bytes, not a "
                            "multiple of its " +
                            std::to_string(kElemSize[i]) +
                            "-byte element");
        if (s.bytes)
            extents.push_back({s.offset, s.offset + s.bytes, i});
    }
    std::sort(extents.begin(), extents.end(),
              [](const Extent &a, const Extent &b) {
                  return a.off < b.off;
              });
    for (size_t i = 1; i < extents.size(); ++i) {
        if (extents[i].off < extents[i - 1].end)
            throw MdesError(
                std::string("LMDES sections '") +
                kSectionNames[extents[i - 1].id] + "' and '" +
                kSectionNames[extents[i].id] + "' overlap (at offset " +
                std::to_string(extents[i].off) + ")");
    }
}

/**
 * The v7 half of the load-path bugfix: validate Check *contents*, not
 * just pool cross-references. A checksum-valid image whose checks carry
 * resource bits >= num_resources (for the check's RU-map word) or wild
 * slots would otherwise load cleanly and index out of range inside the
 * flat checker.
 */
void
validateCheckFields(std::span<const Check> list, const char *what,
                    uint32_t num_resources, uint32_t slot_words)
{
    const int32_t words = int32_t(slot_words);
    for (size_t i = 0; i < list.size(); ++i) {
        const Check &c = list[i];
        if (c.slot > v7::kMaxSlotMagnitude ||
            c.slot < -v7::kMaxSlotMagnitude)
            throw MdesError(std::string("LMDES ") + what + " entry " +
                            std::to_string(i) + " has implausible slot " +
                            std::to_string(c.slot));
        int32_t w = c.slot % words;
        if (w < 0)
            w += words;
        const uint32_t base_r = uint32_t(w) * 64;
        uint64_t allowed = 0;
        if (num_resources > base_r) {
            uint32_t nbits = std::min<uint32_t>(64, num_resources - base_r);
            allowed = nbits == 64 ? ~uint64_t(0)
                                  : (uint64_t(1) << nbits) - 1;
        }
        if (c.mask & ~allowed)
            throw MdesError(std::string("LMDES ") + what + " entry " +
                            std::to_string(i) + " mask " + hex(c.mask) +
                            " selects resources beyond the " +
                            std::to_string(num_resources) +
                            " declared (RU-map word " + std::to_string(w) +
                            ")");
    }
}

} // namespace

uint64_t
fullDeserializations()
{
    return g_full_deserializations.load(std::memory_order_relaxed);
}

void
LowMdes::save(std::ostream &os) const
{
    // Gather the variable-length text into one pool so every other
    // section has a fixed stride.
    std::string pool;
    auto intern = [&pool](const std::string &s) {
        v7::StrRef r{uint32_t(pool.size()), uint32_t(s.size())};
        pool += s;
        return r;
    };
    const v7::StrRef mname = intern(machine_name_);
    std::vector<v7::OpClassRec> class_recs;
    class_recs.reserve(op_classes_.size());
    for (const auto &oc : op_classes_) {
        v7::OpClassRec rec;
        const v7::StrRef n = intern(oc.name);
        const v7::StrRef c = intern(oc.comment);
        rec.name_off = n.off;
        rec.name_len = n.len;
        rec.tree = oc.tree;
        rec.cascade_tree = oc.cascade_tree;
        rec.latency = oc.latency;
        rec.comment_off = c.off;
        rec.comment_len = c.len;
        class_recs.push_back(rec);
    }
    std::vector<v7::StrRef> name_refs;
    name_refs.reserve(resource_names_.size());
    for (const auto &name : resource_names_)
        name_refs.push_back(intern(name));

    // Lay the sections out back to back, each starting on a kAlign
    // boundary. Accessors (not members) so a mapped object re-saves.
    v7::Header hdr{};
    std::memcpy(hdr.magic, v7::kMagic, 4);
    hdr.version = v7::kVersion;
    hdr.num_resources = num_resources_;
    hdr.slot_words = slot_words_;
    hdr.packed = packed_ ? 1 : 0;
    hdr.machine_name_off = mname.off;
    hdr.machine_name_len = mname.len;
    hdr.section_count = v7::kNumSections;
    uint64_t off = v7::kDataStart;
    auto place = [&](v7::SectionId id, uint64_t bytes) {
        hdr.sections[id] = {off, bytes};
        off = (off + bytes + v7::kAlign - 1) / v7::kAlign * v7::kAlign;
    };
    place(v7::kChecks, checks().size() * sizeof(Check));
    place(v7::kOptions, options().size() * sizeof(LowOption));
    place(v7::kOptionRefs, optionRefs().size() * sizeof(uint32_t));
    place(v7::kOrTrees, orTrees().size() * sizeof(LowOrTree));
    place(v7::kOrRefs, orRefs().size() * sizeof(uint32_t));
    place(v7::kTrees, trees().size() * sizeof(LowTree));
    place(v7::kBypasses, bypasses().size() * sizeof(LowBypass));
    place(v7::kTreeSummaries, treeSummaries().size() * sizeof(TreeSummary));
    place(v7::kPrefilter, prefilter().size() * sizeof(Check));
    place(v7::kOpClasses, class_recs.size() * sizeof(v7::OpClassRec));
    place(v7::kResourceNames, name_refs.size() * sizeof(v7::StrRef));
    place(v7::kStringPool, pool.size());
    hdr.image_bytes = off;

    // Sections are copied whole, so no record may carry indeterminate
    // padding bytes (see Check::pad).
    static_assert(std::has_unique_object_representations_v<Check> &&
                  std::has_unique_object_representations_v<LowOption> &&
                  std::has_unique_object_representations_v<LowOrTree> &&
                  std::has_unique_object_representations_v<LowTree> &&
                  std::has_unique_object_representations_v<LowBypass> &&
                  std::has_unique_object_representations_v<TreeSummary> &&
                  std::has_unique_object_representations_v<v7::OpClassRec> &&
                  std::has_unique_object_representations_v<v7::StrRef>);
    std::string img(size_t(off), '\0');
    auto put = [&](v7::SectionId id, const void *src, size_t bytes) {
        if (bytes)
            std::memcpy(img.data() + hdr.sections[id].offset, src, bytes);
    };
    // Records with a pad member are written with it cleared: an object
    // mapped from an image saved before the padding was explicit still
    // carries whatever bytes were there, and must re-save to the same
    // image as a fresh lowering.
    auto putPadded = [&]<class T>(v7::SectionId id, std::span<const T> recs) {
        char *dst = img.data() + hdr.sections[id].offset;
        for (T rec : recs) {
            rec.pad = 0;
            std::memcpy(dst, &rec, sizeof(rec));
            dst += sizeof(rec);
        }
    };
    putPadded(v7::kChecks, checks());
    putPadded(v7::kOptions, options());
    put(v7::kOptionRefs, optionRefs().data(),
        hdr.sections[v7::kOptionRefs].bytes);
    putPadded(v7::kOrTrees, orTrees());
    put(v7::kOrRefs, orRefs().data(), hdr.sections[v7::kOrRefs].bytes);
    putPadded(v7::kTrees, trees());
    put(v7::kBypasses, bypasses().data(),
        hdr.sections[v7::kBypasses].bytes);
    put(v7::kTreeSummaries, treeSummaries().data(),
        hdr.sections[v7::kTreeSummaries].bytes);
    putPadded(v7::kPrefilter, prefilter());
    put(v7::kOpClasses, class_recs.data(),
        hdr.sections[v7::kOpClasses].bytes);
    put(v7::kResourceNames, name_refs.data(),
        hdr.sections[v7::kResourceNames].bytes);
    put(v7::kStringPool, pool.data(), hdr.sections[v7::kStringPool].bytes);

    hdr.checksum =
        fnv1a64(img.data() + sizeof(hdr), img.size() - sizeof(hdr));
    std::memcpy(img.data(), &hdr, sizeof(hdr));
    os.write(img.data(), std::streamsize(img.size()));
}

LowMdes
LowMdes::fromImage(const void *vbase, size_t size, const ImageSource &src)
{
    const char *base = static_cast<const char *>(vbase);
    if (reinterpret_cast<uintptr_t>(vbase) % 8 != 0)
        throw MdesError("LMDES image base is not 8-byte aligned");
    if (size < sizeof(v7::Header))
        throw MdesError("truncated LMDES image: " + std::to_string(size) +
                        " bytes is smaller than the " +
                        std::to_string(sizeof(v7::Header)) +
                        "-byte header");
    v7::Header hdr;
    std::memcpy(&hdr, base, sizeof(hdr));
    if (std::memcmp(hdr.magic, v7::kMagic, 4) != 0)
        throw MdesError("not an LMDES image: magic is '" +
                        printableMagic(hdr.magic) + "', expected 'LMDS'");
    if (hdr.version != v7::kVersion)
        throw MdesVersionError("unsupported LMDES version " +
                               std::to_string(hdr.version) + ", expected " +
                               std::to_string(v7::kVersion));
    if (hdr.image_bytes != size)
        throw MdesError("LMDES image size mismatch: header claims " +
                        std::to_string(hdr.image_bytes) + " bytes, have " +
                        std::to_string(size));
    if (hdr.section_count != v7::kNumSections)
        throw MdesError("LMDES section count " +
                        std::to_string(hdr.section_count) + ", expected " +
                        std::to_string(v7::kNumSections));
    if (src.verify_checksum) {
        const uint64_t computed =
            fnv1a64(base + sizeof(hdr), size - sizeof(hdr));
        if (hdr.checksum != computed)
            throw MdesError("LMDES checksum mismatch: stored " +
                            hex(hdr.checksum) + ", computed " +
                            hex(computed));
    }
    if (hdr.slot_words == 0 || hdr.slot_words > 64)
        throw MdesError("implausible slot_words " +
                        std::to_string(hdr.slot_words) +
                        " in LMDES image (expected 1..64)");
    if (hdr.num_resources > hdr.slot_words * 64)
        throw MdesError("LMDES resource count " +
                        std::to_string(hdr.num_resources) +
                        " does not fit " + std::to_string(hdr.slot_words) +
                        " RU-map word(s)");
    validateSectionTable(hdr);

    LowMdes low;
    low.num_resources_ = hdr.num_resources;
    low.slot_words_ = hdr.slot_words;
    low.packed_ = hdr.packed != 0;
    low.view_.checks = sectionSpan<Check>(base, hdr.sections[v7::kChecks]);
    low.view_.options =
        sectionSpan<LowOption>(base, hdr.sections[v7::kOptions]);
    low.view_.option_refs =
        sectionSpan<uint32_t>(base, hdr.sections[v7::kOptionRefs]);
    low.view_.or_trees =
        sectionSpan<LowOrTree>(base, hdr.sections[v7::kOrTrees]);
    low.view_.or_refs =
        sectionSpan<uint32_t>(base, hdr.sections[v7::kOrRefs]);
    low.view_.trees = sectionSpan<LowTree>(base, hdr.sections[v7::kTrees]);
    low.view_.tree_summaries =
        sectionSpan<TreeSummary>(base, hdr.sections[v7::kTreeSummaries]);
    low.view_.prefilter =
        sectionSpan<Check>(base, hdr.sections[v7::kPrefilter]);
    low.view_.bypasses =
        sectionSpan<LowBypass>(base, hdr.sections[v7::kBypasses]);
    // Publish the spans through the accessors for validation below. In
    // the deep-copy case the backing is a non-owning alias of the
    // caller's buffer, dropped by materialize() before returning.
    low.backing_ = src.backing
                       ? src.backing
                       : std::shared_ptr<const void>(
                             std::shared_ptr<const void>(), vbase);

    // Materialize the text: a (off, len) slice of the pool per string.
    const std::span<const char> pool =
        sectionSpan<char>(base, hdr.sections[v7::kStringPool]);
    auto poolStr = [&pool](uint32_t off, uint32_t len, const char *what) {
        if (uint64_t(off) + len > pool.size())
            throw MdesError(std::string("LMDES ") + what +
                            " string reference [" + std::to_string(off) +
                            ", +" + std::to_string(len) +
                            ") falls outside the " +
                            std::to_string(pool.size()) +
                            "-byte string pool");
        return std::string(pool.data() + off, len);
    };
    low.machine_name_ =
        poolStr(hdr.machine_name_off, hdr.machine_name_len, "machine-name");
    const auto name_refs =
        sectionSpan<v7::StrRef>(base, hdr.sections[v7::kResourceNames]);
    if (name_refs.size() != low.num_resources_)
        throw MdesError("LMDES resource-name count " +
                        std::to_string(name_refs.size()) +
                        " does not match resource count " +
                        std::to_string(low.num_resources_));
    low.resource_names_.reserve(name_refs.size());
    for (const auto &r : name_refs)
        low.resource_names_.push_back(poolStr(r.off, r.len,
                                              "resource-name"));
    const auto class_recs =
        sectionSpan<v7::OpClassRec>(base, hdr.sections[v7::kOpClasses]);
    low.op_classes_.reserve(class_recs.size());
    for (const auto &rec : class_recs) {
        LowOpClass oc;
        oc.name = poolStr(rec.name_off, rec.name_len, "op-class name");
        oc.tree = rec.tree;
        oc.cascade_tree = rec.cascade_tree;
        oc.latency = rec.latency;
        oc.comment =
            poolStr(rec.comment_off, rec.comment_len, "op-class comment");
        low.op_classes_.push_back(std::move(oc));
    }

    // Validate every cross-reference so a corrupt image cannot cause
    // out-of-range indexing later.
    const auto checks = low.checks();
    const auto options = low.options();
    const auto option_refs = low.optionRefs();
    const auto or_trees = low.orTrees();
    const auto or_refs = low.orRefs();
    const auto trees = low.trees();
    const auto summaries = low.treeSummaries();
    const auto prefilter = low.prefilter();
    for (const auto &o : options) {
        if (size_t(o.first_check) + o.num_checks > checks.size())
            throw MdesError("LMDES option references bad check range");
    }
    for (const auto &t : or_trees) {
        if (size_t(t.first_option_ref) + t.num_options >
            option_refs.size())
            throw MdesError("LMDES OR-tree references bad option range");
    }
    for (uint32_t r : option_refs) {
        if (r >= options.size())
            throw MdesError("LMDES option reference out of range");
    }
    for (const auto &t : trees) {
        if (size_t(t.first_or_ref) + t.num_or_trees > or_refs.size())
            throw MdesError("LMDES tree references bad OR range");
    }
    for (uint32_t r : or_refs) {
        if (r >= or_trees.size())
            throw MdesError("LMDES OR reference out of range");
    }
    for (const auto &oc : low.op_classes_) {
        if (oc.tree >= trees.size())
            throw MdesError("LMDES op class references bad tree");
        if (oc.cascade_tree != kInvalidId &&
            oc.cascade_tree >= trees.size())
            throw MdesError("LMDES op class references bad cascade tree");
    }
    for (const auto &bp : low.bypasses()) {
        if (bp.from >= low.op_classes_.size() ||
            bp.to >= low.op_classes_.size())
            throw MdesError("LMDES bypass references bad operation");
    }
    if (summaries.size() != trees.size())
        throw MdesError("LMDES tree-summary count " +
                        std::to_string(summaries.size()) +
                        " does not match tree count " +
                        std::to_string(trees.size()));
    for (const auto &sum : summaries) {
        if (sum.min_slot > sum.max_slot)
            throw MdesError("LMDES tree summary has inverted slot "
                            "window");
        if (sum.min_slot < -v7::kMaxSlotMagnitude ||
            sum.max_slot > v7::kMaxSlotMagnitude)
            throw MdesError("LMDES tree summary has implausible slot "
                            "window [" + std::to_string(sum.min_slot) +
                            ", " + std::to_string(sum.max_slot) + "]");
        if (size_t(sum.first_prefilter) + sum.num_prefilter >
            prefilter.size())
            throw MdesError("LMDES tree summary references bad "
                            "prefilter range");
    }
    validateCheckFields(checks, "check", low.num_resources_,
                        low.slot_words_);
    validateCheckFields(prefilter, "prefilter", low.num_resources_,
                        low.slot_words_);
    // The checker's direct-index fast path assumes every slot reachable
    // from a tree lies inside its summary window; enforce it rather
    // than trusting the image.
    for (size_t t = 0; t < trees.size(); ++t) {
        const TreeSummary &sum = summaries[t];
        auto inWindow = [&](int32_t slot) {
            return slot >= sum.min_slot && slot <= sum.max_slot;
        };
        const LowTree &tr = trees[t];
        for (uint32_t s = 0; s < tr.num_or_trees; ++s) {
            const LowOrTree &ot = or_trees[or_refs[tr.first_or_ref + s]];
            for (uint32_t oi = 0; oi < ot.num_options; ++oi) {
                const LowOption &opt =
                    options[option_refs[ot.first_option_ref + oi]];
                for (uint32_t c = 0; c < opt.num_checks; ++c) {
                    if (!inWindow(checks[opt.first_check + c].slot))
                        throw MdesError(
                            "LMDES tree " + std::to_string(t) +
                            " reaches a check outside its summary slot "
                            "window");
                }
            }
        }
        for (uint32_t p = 0; p < sum.num_prefilter; ++p) {
            if (!inWindow(prefilter[sum.first_prefilter + p].slot))
                throw MdesError("LMDES tree " + std::to_string(t) +
                                " has a prefilter entry outside its "
                                "summary slot window");
        }
    }

    if (!src.backing)
        low.materialize();
    return low;
}

void
LowMdes::materialize()
{
    checks_.assign(view_.checks.begin(), view_.checks.end());
    options_.assign(view_.options.begin(), view_.options.end());
    option_refs_.assign(view_.option_refs.begin(),
                        view_.option_refs.end());
    or_trees_.assign(view_.or_trees.begin(), view_.or_trees.end());
    or_refs_.assign(view_.or_refs.begin(), view_.or_refs.end());
    trees_.assign(view_.trees.begin(), view_.trees.end());
    tree_summaries_.assign(view_.tree_summaries.begin(),
                           view_.tree_summaries.end());
    prefilter_.assign(view_.prefilter.begin(), view_.prefilter.end());
    bypasses_.assign(view_.bypasses.begin(), view_.bypasses.end());
    view_ = ImageView{};
    backing_.reset();
    g_full_deserializations.fetch_add(1, std::memory_order_relaxed);
}

LowMdes
LowMdes::load(std::istream &is)
{
    char magic[4] = {};
    is.read(magic, 4);
    if (!is)
        throw MdesError("not an LMDES stream: ends before the 4-byte "
                        "magic (expected 'LMDS')");
    if (std::memcmp(magic, v7::kMagic, 4) != 0)
        throw MdesError("not an LMDES stream: magic is '" +
                        printableMagic(magic) + "', expected 'LMDS'");

    uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is)
        throw MdesError("truncated LMDES stream: ends inside the "
                        "version field (expected version " +
                        std::to_string(v7::kVersion) + ")");
    if (version != v7::kVersion)
        throw MdesVersionError("unsupported LMDES version " +
                               std::to_string(version) + ", expected " +
                               std::to_string(v7::kVersion));

    uint64_t image_bytes = 0;
    is.read(reinterpret_cast<char *>(&image_bytes), sizeof(image_bytes));
    if (!is)
        throw MdesError("truncated LMDES stream: ends inside the "
                        "image-size field");
    if (image_bytes > v7::kMaxImageBytes)
        throw MdesError("implausible LMDES image size " +
                        std::to_string(image_bytes) + " bytes (limit " +
                        std::to_string(v7::kMaxImageBytes) + ")");
    if (image_bytes < sizeof(v7::Header))
        throw MdesError("implausible LMDES image size " +
                        std::to_string(image_bytes) +
                        " bytes: smaller than the " +
                        std::to_string(sizeof(v7::Header)) +
                        "-byte header");

    // uint64_t backing guarantees the 8-byte alignment fromImage needs.
    std::vector<uint64_t> buf((image_bytes + 7) / 8);
    char *bytes = reinterpret_cast<char *>(buf.data());
    std::memcpy(bytes, magic, 4);
    std::memcpy(bytes + 4, &version, 4);
    std::memcpy(bytes + 8, &image_bytes, 8);
    is.read(bytes + 16, std::streamsize(image_bytes - 16));
    if (size_t(is.gcount()) != image_bytes - 16)
        throw MdesError("truncated LMDES stream: image claims " +
                        std::to_string(image_bytes) +
                        " bytes, stream holds " +
                        std::to_string(16 + is.gcount()));

    return fromImage(bytes, size_t(image_bytes), ImageSource{});
}

} // namespace mdes::lmdes
