/**
 * @file
 * Low-level representation tests: lowering (scalar and bit-vector check
 * encodings), sharing, the memory-accounting model, and binary
 * serialization round-trips with corruption rejection.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <sstream>

#include "hmdes/compile.h"
#include "lmdes/image.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "support/fnv.h"
#include "support/rng.h"

namespace mdes {
namespace {

using lmdes::LowerOptions;
using lmdes::LowMdes;

Mdes
twoCycleMachine()
{
    // One option with usages at times 0, 0, 1 - the bit-vector encoding
    // must merge the two time-0 usages into one check word.
    Mdes m("two");
    ResourceId r = m.addResourceClass("R", 3);
    OptionId o = m.addOption({{{0, r}, {0, r + 1}, {1, r + 2}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 2, kInvalidId, "test"});
    return m;
}

TEST(Lower, ScalarOneCheckPerUsage)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    ASSERT_EQ(low.options().size(), 1u);
    EXPECT_EQ(low.options()[0].num_checks, 3u);
    EXPECT_FALSE(low.packed());
    EXPECT_EQ(low.checks()[0].mask, uint64_t(1) << 0);
    EXPECT_EQ(low.checks()[1].mask, uint64_t(1) << 1);
}

TEST(Lower, BitVectorMergesSameCycle)
{
    Mdes m = twoCycleMachine();
    LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    ASSERT_EQ(low.options().size(), 1u);
    EXPECT_EQ(low.options()[0].num_checks, 2u);
    EXPECT_TRUE(low.packed());
    EXPECT_EQ(low.checks()[0].slot, 0);
    EXPECT_EQ(low.checks()[0].mask, (uint64_t(1) << 0) | (uint64_t(1) << 1));
    EXPECT_EQ(low.checks()[1].slot, 1);
}

TEST(Lower, BitVectorPreservesFirstAppearanceOrder)
{
    // Usage order (post-sorting transform) must survive packing: the
    // first time seen keeps its position.
    Mdes m("o");
    ResourceId r = m.addResourceClass("R", 3);
    OptionId o = m.addOption({{{1, r}, {0, r + 1}, {1, r + 2}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 1, kInvalidId, ""});

    LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    ASSERT_EQ(low.options()[0].num_checks, 2u);
    EXPECT_EQ(low.checks()[low.options()[0].first_check].slot, 1);
    EXPECT_EQ(low.checks()[low.options()[0].first_check + 1].slot, 0);
}

TEST(Lower, SharedEntitiesStoredOnce)
{
    // Two tables referencing the same OR-tree share its lowered record
    // and its option-reference list.
    Mdes m("share");
    ResourceId r = m.addResourceClass("R", 2);
    std::vector<OptionId> opts = {m.addOption({{{0, r}}}),
                                  m.addOption({{{0, r + 1}}})};
    OrTreeId shared = m.addOrTree({"S", opts});
    TreeId t1 = m.addTree({"T1", {shared}});
    TreeId t2 = m.addTree({"T2", {shared}});
    m.addOpClass({"A", t1, 1, kInvalidId, ""});
    m.addOpClass({"B", t2, 1, kInvalidId, ""});

    LowMdes low = LowMdes::lower(m, {});
    EXPECT_EQ(low.orTrees().size(), 1u);
    EXPECT_EQ(low.optionRefs().size(), 2u);
    EXPECT_EQ(low.trees().size(), 2u);
    EXPECT_EQ(low.orRefs().size(), 2u);
}

TEST(Lower, MemoryAccountingModel)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    auto mem = low.memory();
    EXPECT_EQ(mem.check_bytes, 3u * 8);
    EXPECT_EQ(mem.option_bytes, 1u * 8);
    EXPECT_EQ(mem.option_ref_bytes, 1u * 4);
    EXPECT_EQ(mem.or_tree_bytes, 1u * 8);
    EXPECT_EQ(mem.or_ref_bytes, 1u * 4);
    EXPECT_EQ(mem.tree_bytes, 1u * 8);
    EXPECT_EQ(mem.total(), 24u + 8 + 4 + 8 + 4 + 8);
}

TEST(Lower, WideMachinesUseMultipleSlotWords)
{
    // 100 resource instances: two RU-map words per cycle; usages in
    // different words probe different slots even at the same time.
    Mdes m("wide");
    ResourceId r = m.addResourceClass("R", 100);
    OptionId o = m.addOption({{{0, r + 3}, {0, r + 70}, {1, r + 70}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 1, kInvalidId, ""});

    lmdes::LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    EXPECT_EQ(low.slotWords(), 2u);
    // Same time but different words: no merging across words.
    ASSERT_EQ(low.options()[0].num_checks, 3u);
    EXPECT_EQ(low.checks()[0].slot, 0); // time 0, word 0
    EXPECT_EQ(low.checks()[0].mask, uint64_t(1) << 3);
    EXPECT_EQ(low.checks()[1].slot, 1); // time 0, word 1
    EXPECT_EQ(low.checks()[1].mask, uint64_t(1) << (70 - 64));
    EXPECT_EQ(low.checks()[2].slot, 3); // time 1, word 1
}

TEST(Lower, CountsMatchStructuredModel)
{
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        LowMdes low = LowMdes::lower(m, {});
        ASSERT_EQ(low.trees().size(), m.trees().size());
        for (TreeId t = 0; t < m.trees().size(); ++t) {
            EXPECT_EQ(low.expandedOptionCount(t),
                      m.expandedOptionCount(t));
            EXPECT_EQ(low.leafOptionCount(t), m.leafOptionCount(t));
        }
        EXPECT_EQ(low.opClasses().size(), m.opClasses().size());
        EXPECT_EQ(low.findOpClass(m.opClasses()[0].name), 0u);
        EXPECT_EQ(low.findOpClass("NO_SUCH_OP"), kInvalidId);
    }
}

// ------------------------------------------------------------ Serialization

TEST(Serialize, RoundTripsEveryMachine)
{
    for (const auto *info : machines::all()) {
        for (bool packed : {false, true}) {
            SCOPED_TRACE(info->name + (packed ? "/bv" : "/scalar"));
            Mdes m = hmdes::compileOrThrow(info->source);
            LowerOptions opts;
            opts.pack_bit_vector = packed;
            LowMdes low = LowMdes::lower(m, opts);

            std::stringstream buf;
            low.save(buf);
            LowMdes loaded = LowMdes::load(buf);
            EXPECT_EQ(loaded, low);
        }
    }
}

TEST(Serialize, IndependentLoweringsSaveByteIdentically)
{
    // Two lowerings of one description are separate allocations with
    // separately built records; no byte of either image (padding
    // included) may depend on that, so images and checksums match.
    for (const auto *info : machines::all()) {
        for (bool packed : {false, true}) {
            SCOPED_TRACE(info->name + (packed ? "/bv" : "/scalar"));
            LowerOptions opts;
            opts.pack_bit_vector = packed;
            std::string images[2];
            for (std::string &image : images) {
                LowMdes low =
                    LowMdes::lower(hmdes::compileOrThrow(info->source),
                                   opts);
                std::stringstream buf;
                low.save(buf);
                image = buf.str();
            }
            ASSERT_EQ(images[0].size(), images[1].size());
            EXPECT_TRUE(images[0] == images[1]);
            lmdes::v7::Header a, b;
            std::memcpy(&a, images[0].data(), sizeof(a));
            std::memcpy(&b, images[1].data(), sizeof(b));
            EXPECT_EQ(a.checksum, b.checksum);
        }
    }
}

TEST(Serialize, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOPE additional data";
    EXPECT_THROW(LowMdes::load(buf), MdesError);
}

TEST(Serialize, RejectsTruncation)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    std::stringstream buf;
    low.save(buf);
    std::string data = buf.str();
    for (size_t cut : {size_t(3), data.size() / 2, data.size() - 2}) {
        std::stringstream cut_buf(data.substr(0, cut));
        EXPECT_THROW(LowMdes::load(cut_buf), MdesError) << "cut " << cut;
    }
}

TEST(Serialize, RejectsCorruptReferences)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    std::stringstream buf;
    low.save(buf);
    std::string data = buf.str();
    // Flip bytes throughout the stream; every mutation must either load
    // to a *valid* structure or throw - never crash.
    for (size_t i = 8; i < data.size(); i += 7) {
        std::string mutated = data;
        mutated[i] = char(mutated[i] ^ 0x5A);
        std::stringstream mbuf(mutated);
        try {
            LowMdes loaded = LowMdes::load(mbuf);
            // Loaded fine: all references must be in range.
            for (const auto &oc : loaded.opClasses())
                ASSERT_LT(oc.tree, loaded.trees().size());
        } catch (const MdesError &) {
            // Rejection is the expected outcome.
        }
    }
}

TEST(Serialize, BadMagicReportsFoundAndExpected)
{
    std::stringstream buf;
    buf << "NOPE additional data";
    try {
        LowMdes::load(buf);
        FAIL() << "bad magic accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("LMDS"), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, VersionMismatchReportsFoundAndExpected)
{
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();
    uint32_t bogus = 99;
    std::memcpy(&data[4], &bogus, sizeof(bogus));
    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "version 99 accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("99"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("7"), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, VersionMismatchIsDistinguishableFromCorruption)
{
    // The store decides stale-vs-quarantine on this distinction: an
    // otherwise intact image from another release must throw the
    // *version* error type, not plain MdesError.
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();
    uint32_t old_version = 6;
    std::memcpy(&data[4], &old_version, sizeof(old_version));
    std::stringstream patched(data);
    EXPECT_THROW(LowMdes::load(patched), lmdes::MdesVersionError);
}

TEST(Serialize, ChecksumMismatchReportsStoredAndComputed)
{
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();
    // Flip one payload byte (past the 16-byte header, before the
    // 8-byte checksum trailer): the checksum check must fire before
    // any structural parsing can get confused.
    data[20] = char(data[20] ^ 0xFF);
    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "corrupt payload accepted";
    } catch (const MdesError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("checksum"), std::string::npos) << what;
        EXPECT_NE(what.find("stored"), std::string::npos) << what;
        EXPECT_NE(what.find("computed"), std::string::npos) << what;
    }
}

/** Recompute and patch the header checksum of a (possibly mutated) v7
 * image so validation runs against checksum-*valid* crafted payloads. */
void
resealImage(std::string &data)
{
    ASSERT_GE(data.size(), sizeof(lmdes::v7::Header));
    uint64_t sum = fnv1a64(data.data() + sizeof(lmdes::v7::Header),
                           data.size() - sizeof(lmdes::v7::Header));
    std::memcpy(&data[offsetof(lmdes::v7::Header, checksum)], &sum,
                sizeof(sum));
}

TEST(Serialize, ImagesWithNonzeroPaddingStillLoad)
{
    // Images saved before the pad members were explicit carry arbitrary
    // bytes there. They must load, compare equal to a fresh lowering,
    // and save again to exactly the fresh lowering's image.
    LowMdes low = LowMdes::lower(
        hmdes::compileOrThrow(machines::k5().source), {});
    std::stringstream buf;
    low.save(buf);
    const std::string fresh = buf.str();
    std::string data = fresh;
    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    struct PadField
    {
        lmdes::v7::SectionId section;
        size_t stride, offset, bytes;
    };
    const PadField pads[] = {
        {lmdes::v7::kChecks, sizeof(lmdes::Check),
         offsetof(lmdes::Check, pad), sizeof(lmdes::Check::pad)},
        {lmdes::v7::kPrefilter, sizeof(lmdes::Check),
         offsetof(lmdes::Check, pad), sizeof(lmdes::Check::pad)},
        {lmdes::v7::kOptions, sizeof(lmdes::LowOption),
         offsetof(lmdes::LowOption, pad), sizeof(lmdes::LowOption::pad)},
        {lmdes::v7::kOrTrees, sizeof(lmdes::LowOrTree),
         offsetof(lmdes::LowOrTree, pad), sizeof(lmdes::LowOrTree::pad)},
        {lmdes::v7::kTrees, sizeof(lmdes::LowTree),
         offsetof(lmdes::LowTree, pad), sizeof(lmdes::LowTree::pad)},
    };
    for (const PadField &p : pads) {
        const auto &sec = hdr.sections[p.section];
        ASSERT_GT(sec.bytes, 0u) << "section " << p.section;
        for (uint64_t off = sec.offset; off < sec.offset + sec.bytes;
             off += p.stride)
            std::memset(&data[off + p.offset], 0xA5, p.bytes);
    }
    resealImage(data);
    std::stringstream patched(data);
    LowMdes loaded = LowMdes::load(patched);
    EXPECT_EQ(loaded, low);
    std::stringstream resaved;
    loaded.save(resaved);
    EXPECT_TRUE(resaved.str() == fresh);
}

TEST(Serialize, CraftedMaskBeyondDeclaredResourcesRejected)
{
    // A checksum-valid image whose check selects resource bits past
    // num_resources would index out of the checker's RU map. The
    // crafted payload must be rejected by content validation, not by
    // luck of the checksum.
    Mdes m = twoCycleMachine(); // 3 resources, one RU-map word
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();

    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    ASSERT_EQ(hdr.num_resources, 3u);
    const auto &sec = hdr.sections[lmdes::v7::kChecks];
    ASSERT_GE(sec.bytes, sizeof(lmdes::Check));
    lmdes::Check c;
    std::memcpy(&c, data.data() + sec.offset, sizeof(c));
    c.mask |= uint64_t(1) << 10; // resource 10 of 3
    std::memcpy(&data[sec.offset], &c, sizeof(c));
    resealImage(data);

    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "mask with undeclared resource bits accepted";
    } catch (const MdesError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("beyond"), std::string::npos) << what;
        EXPECT_NE(what.find("3 declared"), std::string::npos) << what;
    }
}

TEST(Serialize, CraftedImplausibleSlotRejected)
{
    // A wild slot (beyond any sane pipeline depth) must be rejected
    // before it can size an RU-map overlay in the checker.
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();

    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    const auto &sec = hdr.sections[lmdes::v7::kChecks];
    ASSERT_GE(sec.bytes, sizeof(lmdes::Check));
    lmdes::Check c;
    std::memcpy(&c, data.data() + sec.offset, sizeof(c));
    c.slot = int32_t(lmdes::v7::kMaxSlotMagnitude) + 1;
    std::memcpy(&data[sec.offset], &c, sizeof(c));
    resealImage(data);

    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "implausible slot accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("slot"), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, CraftedSlotOutsideSummaryWindowRejected)
{
    // A plausible-magnitude slot that escapes the owning tree's summary
    // window would defeat the checker's direct-index fast path.
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();

    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    const auto &sec = hdr.sections[lmdes::v7::kChecks];
    ASSERT_GE(sec.bytes, sizeof(lmdes::Check));
    lmdes::Check c;
    std::memcpy(&c, data.data() + sec.offset, sizeof(c));
    c.slot = 1000; // far past the two-cycle window, well under the cap
    std::memcpy(&data[sec.offset], &c, sizeof(c));
    resealImage(data);

    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "out-of-window slot accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("window"), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, MappedImageMatchesOwnedAndSkipsDeserialization)
{
    // The zero-copy contract: attaching an image via fromImage with a
    // backing yields the same description as a full load, borrows the
    // caller's bytes (mapped() == true), and does not count as a full
    // deserialization.
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        LowerOptions opts;
        opts.pack_bit_vector = true;
        LowMdes low = LowMdes::lower(m, opts);
        std::stringstream buf;
        low.save(buf);
        const std::string data = buf.str();

        auto backing =
            std::make_shared<std::vector<uint64_t>>((data.size() + 7) / 8);
        std::memcpy(backing->data(), data.data(), data.size());

        uint64_t before = lmdes::fullDeserializations();
        lmdes::ImageSource src;
        src.backing =
            std::shared_ptr<const void>(backing, backing->data());
        LowMdes mapped =
            LowMdes::fromImage(backing->data(), data.size(), src);
        EXPECT_EQ(lmdes::fullDeserializations(), before);
        EXPECT_TRUE(mapped.mapped());
        EXPECT_EQ(mapped, low);
        // The spans really point into the caller's buffer.
        const char *base = reinterpret_cast<const char *>(backing->data());
        if (!mapped.checks().empty()) {
            const char *p =
                reinterpret_cast<const char *>(mapped.checks().data());
            EXPECT_GE(p, base);
            EXPECT_LT(p, base + data.size());
        }

        // A mapped object re-saves byte-identically.
        std::stringstream resaved;
        mapped.save(resaved);
        EXPECT_EQ(resaved.str(), data);

        // The stream path deep-copies and counts the deserialization.
        std::stringstream again(data);
        LowMdes owned = LowMdes::load(again);
        EXPECT_EQ(lmdes::fullDeserializations(), before + 1);
        EXPECT_FALSE(owned.mapped());
        EXPECT_EQ(owned, mapped);
    }
}

TEST(Serialize, FuzzRoundTripNeverCrashes)
{
    // Random machines, random corruption: every truncation and every
    // bit flip must either throw MdesError or load to a structurally
    // valid description - never crash, never allocate absurdly.
    Rng rng(0xF00DF00Dull);
    for (int iter = 0; iter < 20; ++iter) {
        Mdes m = testing::randomMdes(rng);
        LowerOptions opts;
        opts.pack_bit_vector = rng.chance(0.5);
        LowMdes low = LowMdes::lower(m, opts);
        std::stringstream buf;
        low.save(buf);
        std::string data = buf.str();

        {
            std::stringstream clean(data);
            EXPECT_EQ(LowMdes::load(clean), low);
        }

        for (int mut = 0; mut < 24; ++mut) {
            std::string mutated = data;
            if (rng.chance(0.5)) {
                mutated.resize(rng.below(data.size()));
            } else {
                size_t at = rng.below(mutated.size());
                mutated[at] = char(uint8_t(mutated[at]) ^
                                   uint8_t(1u << rng.below(8)));
            }
            std::stringstream mbuf(mutated);
            try {
                LowMdes loaded = LowMdes::load(mbuf);
                for (const auto &oc : loaded.opClasses())
                    ASSERT_LT(oc.tree, loaded.trees().size());
            } catch (const MdesError &) {
                // Rejection is the expected outcome.
            }
        }
    }
}

} // namespace
} // namespace mdes
