/**
 * @file
 * Workload-generator tests: determinism, mix fidelity, block structure,
 * register-operand shape, and error handling.
 */

#include <gtest/gtest.h>

#include <map>

#include "exp/runner.h"
#include "hmdes/compile.h"
#include "machines/machines.h"
#include "workload/workload.h"

namespace mdes {
namespace {

lmdes::LowMdes
lowFor(const machines::MachineInfo &info)
{
    Mdes m = hmdes::compileOrThrow(info.source);
    return lmdes::LowMdes::lower(m, {});
}

TEST(Workload, DeterministicForSameSeed)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto a = workload::generate(spec, low);
    auto b = workload::generate(spec, low);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        ASSERT_EQ(a.blocks[i].instrs.size(), b.blocks[i].instrs.size());
        for (size_t j = 0; j < a.blocks[i].instrs.size(); ++j) {
            EXPECT_EQ(a.blocks[i].instrs[j].op_class,
                      b.blocks[i].instrs[j].op_class);
            EXPECT_EQ(a.blocks[i].instrs[j].srcs,
                      b.blocks[i].instrs[j].srcs);
        }
    }
}

TEST(Workload, DifferentSeedsDiffer)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 2000;
    auto a = workload::generate(spec, low);
    spec.seed ^= 0xDEAD;
    auto b = workload::generate(spec, low);
    bool differ = a.blocks.size() != b.blocks.size();
    for (size_t i = 0; !differ && i < a.blocks.size(); ++i) {
        differ = a.blocks[i].instrs.size() != b.blocks[i].instrs.size();
        for (size_t j = 0; !differ && j < a.blocks[i].instrs.size(); ++j)
            differ = a.blocks[i].instrs[j].op_class !=
                     b.blocks[i].instrs[j].op_class;
    }
    EXPECT_TRUE(differ);
}

TEST(Workload, ReachesRequestedSize)
{
    auto low = lowFor(machines::pa7100());
    workload::WorkloadSpec spec = machines::pa7100().workload;
    spec.num_ops = 33333;
    auto program = workload::generate(spec, low);
    EXPECT_GE(program.numOps(), 33333u);
    EXPECT_LT(program.numOps(), 33333u + spec.max_block_size + 2u);
}

TEST(Workload, BlocksEndWithOneBranch)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    for (const auto &block : program.blocks) {
        ASSERT_FALSE(block.instrs.empty());
        EXPECT_TRUE(block.instrs.back().is_branch);
        for (size_t i = 0; i + 1 < block.instrs.size(); ++i)
            EXPECT_FALSE(block.instrs[i].is_branch);
    }
}

TEST(Workload, BlockSizesWithinBounds)
{
    auto low = lowFor(machines::k5());
    workload::WorkloadSpec spec = machines::k5().workload;
    spec.num_ops = 20000;
    auto program = workload::generate(spec, low);
    for (const auto &block : program.blocks) {
        // body in [min, max] plus the branch.
        EXPECT_GE(block.instrs.size(), size_t(spec.min_block_size) + 1);
        EXPECT_LE(block.instrs.size(), size_t(spec.max_block_size) + 1);
    }
}

TEST(Workload, OperandCountsFollowTheMix)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    std::map<std::string, std::pair<int, int>> expected;
    for (const auto &mix : spec.classes)
        expected[mix.op_class] = {mix.num_srcs, mix.num_dsts};
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            const auto &name = low.opClasses()[in.op_class].name;
            auto [srcs, dsts] = expected.at(name);
            EXPECT_EQ(in.srcs.size(), size_t(srcs)) << name;
            EXPECT_EQ(in.dsts.size(), size_t(dsts)) << name;
        }
    }
}

TEST(Workload, RegistersWithinRange)
{
    auto low = lowFor(machines::pentium());
    workload::WorkloadSpec spec = machines::pentium().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            for (int32_t r : in.srcs) {
                EXPECT_GE(r, 0);
                EXPECT_LT(r, spec.num_regs);
            }
            for (int32_t r : in.dsts) {
                EXPECT_GE(r, 0);
                EXPECT_LT(r, spec.num_regs);
            }
        }
    }
}

TEST(Workload, MixFrequenciesApproximatelyRespected)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 100000;
    auto program = workload::generate(spec, low);

    std::map<uint32_t, size_t> counts;
    size_t body_total = 0;
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            if (!in.is_branch) {
                ++counts[in.op_class];
                ++body_total;
            }
        }
    }
    double body_weight = 0;
    for (const auto &mix : spec.classes) {
        if (!mix.is_branch)
            body_weight += mix.weight;
    }
    for (const auto &mix : spec.classes) {
        if (mix.is_branch)
            continue;
        uint32_t cls = low.findOpClass(mix.op_class);
        double want = mix.weight / body_weight;
        double got = double(counts[cls]) / double(body_total);
        EXPECT_NEAR(got, want, 0.02) << mix.op_class;
    }
}

TEST(Workload, UnknownClassNameThrows)
{
    auto low = lowFor(machines::pa7100());
    workload::WorkloadSpec spec;
    spec.classes = {{"NO_SUCH_OP", 1.0, 1, 1, false, false}};
    EXPECT_THROW(workload::generate(spec, low), MdesError);
}

TEST(Workload, NoBodyClassesThrows)
{
    auto low = lowFor(machines::pa7100());
    workload::WorkloadSpec spec;
    spec.classes = {{"B", 1.0, 0, 0, false, true}};
    EXPECT_THROW(workload::generate(spec, low), MdesError);
}

TEST(Workload, CascadableFlagPropagates)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    uint32_t add_i = low.findOpClass("ADD_I");
    uint32_t sethi = low.findOpClass("SETHI");
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            if (in.op_class == add_i) {
                EXPECT_TRUE(in.cascadable);
            }
            if (in.op_class == sethi) {
                EXPECT_FALSE(in.cascadable);
            }
        }
    }
}

} // namespace
} // namespace mdes
