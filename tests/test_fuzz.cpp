/**
 * @file
 * Randomized property tests over generated machine descriptions: the
 * paper's invariants must hold not just for the four shipped machines
 * but for *any* well-formed description.
 *
 *  - Disjoint-subtree machines: identical schedules across both
 *    representations, every transformation level, and both check
 *    encodings; all schedules legal under replay.
 *  - Overlapping-subtree machines: the greedy AND/OR evaluation stays
 *    safe (never produces an illegal schedule) and the semantics-
 *    preserving subset of transformations keeps schedules identical.
 *  - The lexer/parser never crash on mutated description text.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <sstream>

#include "core/collision.h"
#include "core/expand.h"
#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/image.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "rumap/checker.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"
#include "support/fnv.h"

namespace mdes {
namespace {

using testing_ns = ::mdes::testing::RandomMdesOptions;

std::vector<sched::BlockSchedule>
scheduleAll(const Mdes &model, const sched::Program &program,
            bool bit_vector, sched::SchedStats *stats_out = nullptr)
{
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = bit_vector;
    lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);
    sched::ListScheduler scheduler(low);
    sched::SchedStats stats;
    auto schedules = scheduler.scheduleProgram(program, stats);
    if (stats_out)
        *stats_out = stats;
    return schedules;
}

TEST(Fuzz, DisjointMachinesFullInvariance)
{
    Rng rng(0xF0221);
    for (int trial = 0; trial < 30; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Mdes base = mdes::testing::randomMdes(rng);
        ASSERT_EQ(base.validate(), "");

        // One workload for everything (generated off the AND/OR form).
        lmdes::LowMdes low0 = lmdes::LowMdes::lower(base, {});
        auto spec = mdes::testing::randomWorkloadSpec(
            base, 0x1234 + uint64_t(trial), 600);
        sched::Program program = workload::generate(spec, low0);

        std::vector<sched::BlockSchedule> baseline;
        bool first = true;

        for (bool expand : {false, true}) {
            for (bool transform : {false, true}) {
                for (bool bv : {false, true}) {
                    Mdes model = base;
                    if (expand)
                        model = expandToOrForm(model);
                    if (transform)
                        runPipeline(model, PipelineConfig::all());
                    ASSERT_EQ(model.validate(), "");
                    auto schedules =
                        scheduleAll(model, program, bv);
                    if (first) {
                        baseline = schedules;
                        first = false;
                    } else {
                        ASSERT_EQ(schedules.size(), baseline.size());
                        for (size_t b = 0; b < schedules.size(); ++b) {
                            ASSERT_EQ(schedules[b].cycles,
                                      baseline[b].cycles)
                                << "expand=" << expand
                                << " transform=" << transform
                                << " bv=" << bv << " block " << b;
                        }
                    }
                    // Legality replay on a sample of blocks.
                    lmdes::LowerOptions lopts;
                    lopts.pack_bit_vector = bv;
                    lmdes::LowMdes low =
                        lmdes::LowMdes::lower(model, lopts);
                    for (size_t b = 0; b < program.blocks.size();
                         b += 7) {
                        ASSERT_EQ(
                            sched::verifySchedule(program.blocks[b],
                                                  schedules[b], low),
                            "")
                            << "block " << b;
                    }
                }
            }
        }
    }
}

TEST(Fuzz, WideDisjointMachinesFullInvariance)
{
    // Machines wider than 64 resource instances (multi-word RU-map
    // slots) must satisfy the same invariants.
    Rng rng(0xF0227);
    for (int trial = 0; trial < 10; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        mdes::testing::RandomMdesOptions opts;
        opts.min_classes = 3;
        opts.max_classes = 4;
        opts.min_count = 20;
        opts.max_count = 30; // 60-120 instances
        Mdes base = mdes::testing::randomMdes(rng, opts);
        ASSERT_EQ(base.validate(), "");
        lmdes::LowMdes low0 = lmdes::LowMdes::lower(base, {});
        if (low0.slotWords() < 2)
            continue; // only exercise the wide path

        auto spec = mdes::testing::randomWorkloadSpec(
            base, 0x3111 + uint64_t(trial), 400);
        sched::Program program = workload::generate(spec, low0);

        std::vector<sched::BlockSchedule> baseline;
        bool first = true;
        for (bool expand : {false, true}) {
            for (bool transform : {false, true}) {
                for (bool bv : {false, true}) {
                    Mdes model = base;
                    if (expand)
                        model = expandToOrForm(model);
                    if (transform)
                        runPipeline(model, PipelineConfig::all());
                    auto schedules = scheduleAll(model, program, bv);
                    if (first) {
                        baseline = schedules;
                        first = false;
                    } else {
                        for (size_t b = 0; b < schedules.size(); ++b) {
                            ASSERT_EQ(schedules[b].cycles,
                                      baseline[b].cycles)
                                << "expand=" << expand
                                << " transform=" << transform
                                << " bv=" << bv << " block " << b;
                        }
                    }
                }
            }
        }
    }
}

TEST(Fuzz, OverlappingMachinesStaySafe)
{
    Rng rng(0xF0222);
    for (int trial = 0; trial < 30; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        mdes::testing::RandomMdesOptions opts;
        opts.disjoint_subtrees = false;
        opts.min_subtrees = 2;
        Mdes base = mdes::testing::randomMdes(rng, opts);
        ASSERT_EQ(base.validate(), "");

        lmdes::LowMdes low0 = lmdes::LowMdes::lower(base, {});

        // Overlapping subtrees can make a tree unsatisfiable even on an
        // empty machine (both subtrees demanding the same usage) - the
        // case the hmdes builder warns about. Keep only issueable
        // classes in the workload.
        auto spec = mdes::testing::randomWorkloadSpec(
            base, 0x777 + uint64_t(trial), 400);
        rumap::Checker probe(low0);
        std::erase_if(spec.classes, [&](const workload::ClassMix &mix) {
            uint32_t cls = low0.findOpClass(mix.op_class);
            rumap::RuMap empty;
            return !probe.wouldFit(low0.opClasses()[cls].tree, 0, empty);
        });
        if (spec.classes.empty())
            continue;
        sched::Program program = workload::generate(spec, low0);

        // The semantics-preserving subset for overlapping subtrees:
        // everything except the Section 8 reorderings.
        PipelineConfig safe;
        safe.cse = true;
        safe.redundant_options = true;
        safe.time_shift = true;
        safe.sort_usages = true;

        std::vector<sched::BlockSchedule> baseline;
        bool first = true;
        for (bool transform : {false, true}) {
            for (bool bv : {false, true}) {
                Mdes model = base;
                if (transform)
                    runPipeline(model, safe);
                auto schedules = scheduleAll(model, program, bv);
                if (first) {
                    baseline = schedules;
                    first = false;
                } else {
                    for (size_t b = 0; b < schedules.size(); ++b) {
                        ASSERT_EQ(schedules[b].cycles,
                                  baseline[b].cycles)
                            << "transform=" << transform << " bv=" << bv
                            << " block " << b;
                    }
                }
                lmdes::LowerOptions lopts;
                lopts.pack_bit_vector = bv;
                lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);
                for (size_t b = 0; b < program.blocks.size(); b += 5) {
                    ASSERT_EQ(sched::verifySchedule(program.blocks[b],
                                                    schedules[b], low),
                              "")
                        << "block " << b;
                }
            }
        }
    }
}

TEST(Fuzz, CseIsAlwaysIdempotentAndShrinking)
{
    Rng rng(0xF0223);
    for (int trial = 0; trial < 60; ++trial) {
        Mdes m = mdes::testing::randomMdes(rng);
        size_t before = m.options().size() + m.orTrees().size();
        eliminateRedundantInfo(m);
        ASSERT_EQ(m.validate(), "");
        size_t mid = m.options().size() + m.orTrees().size();
        EXPECT_LE(mid, before);
        auto again = eliminateRedundantInfo(m);
        EXPECT_EQ(again.merged_options + again.merged_or_trees +
                      again.merged_trees + again.removed_dead,
                  0u)
            << "trial " << trial;
    }
}

TEST(Fuzz, TimeShiftPreservesCollisionVectorsOnRandomMachines)
{
    Rng rng(0xF0224);
    for (int trial = 0; trial < 40; ++trial) {
        Mdes before = mdes::testing::randomMdes(rng);
        Mdes after = before;
        shiftUsageTimes(after);
        int32_t bound =
            std::max(maxUsageSpan(before), maxUsageSpan(after));
        for (OptionId a = 0; a < before.options().size(); ++a) {
            for (OptionId b = 0; b < before.options().size(); ++b) {
                ASSERT_EQ(collisionVector(before, a, b, bound),
                          collisionVector(after, a, b, bound))
                    << "trial " << trial << " pair " << a << "," << b;
            }
        }
    }
}

TEST(Fuzz, LexerAndParserNeverCrashOnMutatedText)
{
    // Take a real description, splice random mutations into it, and
    // require graceful diagnostics (or success), never a crash.
    std::string base = machines::superSparc().source;
    Rng rng(0xF0225);
    for (int trial = 0; trial < 200; ++trial) {
        std::string text = base;
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
        DiagnosticEngine diags;
        auto result = hmdes::compile(text, diags);
        if (result.has_value()) {
            EXPECT_EQ(result->validate(), "");
        }
    }
}

namespace {

/** Re-seal a mutated v7 image: recompute the header checksum so the
 * mutation reaches structural validation instead of dying at the
 * checksum gate. */
void
resealImage(std::string &data)
{
    uint64_t sum = fnv1a64(data.data() + sizeof(lmdes::v7::Header),
                           data.size() - sizeof(lmdes::v7::Header));
    std::memcpy(&data[offsetof(mdes::lmdes::v7::Header, checksum)], &sum,
                sizeof(sum));
}

/** Load @p data and require either an MdesError or a structurally valid
 * description - never a crash, never a dangling reference. */
void
expectThrowOrValid(const std::string &data)
{
    std::stringstream buf(data);
    try {
        lmdes::LowMdes loaded = lmdes::LowMdes::load(buf);
        for (const auto &oc : loaded.opClasses())
            ASSERT_LT(oc.tree, loaded.trees().size());
        for (const auto &o : loaded.options())
            ASSERT_LE(size_t(o.first_check) + o.num_checks,
                      loaded.checks().size());
    } catch (const MdesError &) {
        // Rejection is the expected outcome.
    }
}

} // namespace

TEST(Fuzz, SectionTableMutationsNeverEscapeValidation)
{
    // The v7 analogue of fuzzing v4's length prefixes: mutate the header
    // scalars and section table *behind a re-sealed checksum*, so every
    // mutation reaches the ByteReader-style table validation rather than
    // being deflected by the checksum gate.
    Rng rng(0xF0228);
    using mdes::lmdes::v7::Header;
    for (int trial = 0; trial < 12; ++trial) {
        Mdes m = mdes::testing::randomMdes(rng);
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = rng.chance(0.5);
        lmdes::LowMdes low = lmdes::LowMdes::lower(m, lopts);
        std::stringstream buf;
        low.save(buf);
        const std::string data = buf.str();

        for (int mut = 0; mut < 40; ++mut) {
            std::string mutated = data;
            // Target the header past the checksum field: scalars,
            // string refs, section count, and the section table.
            size_t at = offsetof(Header, num_resources) +
                        rng.below(sizeof(Header) -
                                  offsetof(Header, num_resources));
            if (rng.chance(0.5)) {
                mutated[at] = char(uint8_t(mutated[at]) ^
                                   uint8_t(1u << rng.below(8)));
            } else {
                // Whole-field rewrites reach offsets single bit flips
                // rarely produce (huge, unaligned, overlapping).
                uint64_t v = rng.below(2) ? rng.below(data.size() * 2)
                                          : (uint64_t(1) << 40) + 1;
                size_t n = std::min(sizeof(v), mutated.size() - at);
                std::memcpy(&mutated[at], &v, n);
            }
            resealImage(mutated);
            expectThrowOrValid(mutated);
        }
    }
}

TEST(Fuzz, SectionTableTargetedCorruptionRejected)
{
    // Deterministic table attacks a random sweep might miss; each is
    // re-sealed, so only table validation stands between the crafted
    // entry and an out-of-image span.
    using mdes::lmdes::v7::Header;
    using mdes::lmdes::v7::kChecks;
    using mdes::lmdes::v7::kOptions;
    Mdes m = hmdes::compileOrThrow(machines::superSparc().source);
    lmdes::LowMdes low = lmdes::LowMdes::lower(m, {});
    std::stringstream buf;
    low.save(buf);
    const std::string data = buf.str();

    Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    ASSERT_GT(hdr.sections[kChecks].bytes, 0u);

    auto patched = [&](auto mutate) {
        Header h = hdr;
        mutate(h);
        std::string out = data;
        std::memcpy(out.data(), &h, sizeof(h));
        resealImage(out);
        return out;
    };
    auto expectRejected = [&](const std::string &img, const char *needle) {
        std::stringstream in(img);
        try {
            lmdes::LowMdes::load(in);
            FAIL() << "accepted image crafted for '" << needle << "'";
        } catch (const MdesError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };

    // Misaligned section offset.
    expectRejected(patched([](Header &h) {
                       h.sections[kChecks].offset += 8;
                   }),
                   "misaligned");
    // Section escaping the end of the image.
    expectRejected(patched([&](Header &h) {
                       h.sections[kChecks].bytes =
                           hdr.image_bytes; // extends past the end
                   }),
                   "outside the image");
    // Section pointing into the header.
    expectRejected(patched([](Header &h) {
                       h.sections[kChecks].offset = 64;
                   }),
                   "outside the image");
    // Byte count that is not a whole number of elements.
    expectRejected(patched([](Header &h) {
                       h.sections[kChecks].bytes -= 1;
                   }),
                   "multiple");
    // Two sections aliasing the same bytes.
    expectRejected(patched([&](Header &h) {
                       h.sections[kOptions] = hdr.sections[kChecks];
                   }),
                   "overlap");
    // Section-count drift.
    expectRejected(patched([](Header &h) { h.section_count = 11; }),
                   "section count");
    // Image-size lie (stream delivers fewer bytes than the header
    // claims once re-parsed by fromImage).
    expectRejected(patched([&](Header &h) { h.image_bytes += 64; }),
                   "truncated");
}

TEST(Fuzz, RedundantOptionRemovalNeverChangesSchedules)
{
    Rng rng(0xF0226);
    for (int trial = 0; trial < 30; ++trial) {
        mdes::testing::RandomMdesOptions opts;
        opts.inject_duplicates = true;
        Mdes base = mdes::testing::randomMdes(rng, opts);

        lmdes::LowMdes low0 = lmdes::LowMdes::lower(base, {});
        auto spec = mdes::testing::randomWorkloadSpec(
            base, 0x999 + uint64_t(trial), 300);
        sched::Program program = workload::generate(spec, low0);

        auto before = scheduleAll(base, program, false);
        Mdes cleaned = base;
        removeRedundantOptions(cleaned);
        auto after = scheduleAll(cleaned, program, false);
        for (size_t b = 0; b < before.size(); ++b) {
            ASSERT_EQ(before[b].cycles, after[b].cycles)
                << "trial " << trial << " block " << b;
        }
    }
}

} // namespace
} // namespace mdes
