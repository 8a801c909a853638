#include "common.h"

#include <sys/resource.h>

#include <cstring>
#include <memory>
#include <sstream>

#include "core/expand.h"
#include "hmdes/compile.h"
#include "rumap/ru_map.h"
#include "sched/backward_scheduler.h"
#include "sched/verify.h"

namespace mdes::perfbench {

void
CompileLayers::report(Metrics &out) const
{
    const double n = compiles ? double(compiles) : 1.0;
    out["hmdes.compile_us"] = {hmdes_us / n, "us"};
    for (int i = 0; i < 6; ++i)
        out[std::string("core.pass_us.") + kPassNames[i]] = {
            pass_us[i] / n, "us"};
    out["lmdes.lower_us"] = {lower_us / n, "us"};
    out["lmdes.image_bytes"] = {image_bytes / n, "bytes"};
    out["lmdes.from_image_us"] = {from_image_us / n, "us"};
    out["core.applied.merged"] = {
        double(applied.cse.merged_options + applied.cse.merged_or_trees +
               applied.cse.merged_trees),
        "count"};
    out["core.applied.options_removed"] = {
        double(applied.redundant_options_removed), "count"};
    out["core.applied.resources_shifted"] = {
        double(applied.resources_shifted), "count"};
    out["core.applied.usages_hoisted"] = {double(applied.usages_hoisted),
                                          "count"};
    out["core.applied.trees_reordered"] = {
        double(applied.trees_reordered), "count"};
}

double
CompileLayers::meanUs() const
{
    if (!compiles)
        return 0;
    double sum = hmdes_us + lower_us;
    for (double p : pass_us)
        sum += p;
    return sum / double(compiles);
}

namespace {

/** The v7 image of @p low as bytes. */
std::string
imageOf(const lmdes::LowMdes &low)
{
    std::ostringstream os;
    low.save(os);
    return std::move(os).str();
}

} // namespace

lmdes::LowMdes
compileByLayer(std::string_view source, const PipelineConfig &config,
               bool bit_vector, exp::Rep rep, CompileLayers &acc)
{
    Clock::time_point t = Clock::now();
    Mdes model = hmdes::compileOrThrow(source);
    acc.hmdes_us += usSince(t);
    if (rep == exp::Rep::OrTree)
        model = expandToOrForm(model);

    const bool enabled[6] = {config.cse,        config.redundant_options,
                             config.time_shift, config.hoist,
                             config.sort_usages, config.sort_or_trees};
    for (int i = 0; i < 6; ++i) {
        if (!enabled[i])
            continue;
        PipelineConfig single = PipelineConfig::none();
        single.direction = config.direction;
        bool *flags[6] = {&single.cse,        &single.redundant_options,
                          &single.time_shift, &single.hoist,
                          &single.sort_usages, &single.sort_or_trees};
        *flags[i] = true;
        t = Clock::now();
        PipelineStats s = runPipeline(model, single);
        acc.pass_us[i] += usSince(t);
        acc.applied.cse.merged_options += s.cse.merged_options;
        acc.applied.cse.merged_or_trees += s.cse.merged_or_trees;
        acc.applied.cse.merged_trees += s.cse.merged_trees;
        acc.applied.cse.removed_dead += s.cse.removed_dead;
        acc.applied.redundant_options_removed +=
            s.redundant_options_removed;
        acc.applied.resources_shifted += s.resources_shifted;
        acc.applied.usages_hoisted += s.usages_hoisted;
        acc.applied.trees_reordered += s.trees_reordered;
    }

    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = bit_vector;
    t = Clock::now();
    lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);
    acc.lower_us += usSince(t);

    std::string image = imageOf(low);
    acc.image_bytes += double(image.size());
    // fromImage needs 8-byte alignment: copy into a uint64_t buffer that
    // the mapped LowMdes keeps alive, as the store's mmap backing does.
    auto words = std::make_shared<std::vector<uint64_t>>(
        (image.size() + 7) / 8);
    std::memcpy(words->data(), image.data(), image.size());
    lmdes::ImageSource src;
    src.backing = words;
    t = Clock::now();
    lmdes::LowMdes mapped =
        lmdes::LowMdes::fromImage(words->data(), image.size(), src);
    acc.from_image_us += usSince(t);

    // Content equality, not image bytes: v7 images carry the structs'
    // padding bytes uninitialized, so two lowerings of one description
    // can differ byte-wise (Check's 4 bytes after `slot`).
    if (!(exp::compileSourceToLow(source, config, bit_vector, rep) == low) ||
        !(mapped == low))
        ++acc.mismatches;
    ++acc.compiles;
    return low;
}

uint64_t
scheduleFingerprint(const std::vector<sched::BlockSchedule> &schedules)
{
    auto mix = [](uint64_t &h, uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    uint64_t h = 1469598103934665603ull;
    for (const auto &s : schedules) {
        mix(h, uint64_t(s.length));
        for (int32_t c : s.cycles)
            mix(h, uint64_t(uint32_t(c)));
        for (uint8_t u : s.used_cascade)
            mix(h, u);
    }
    return h;
}

bool
replaySchedules(const lmdes::LowMdes &low, const sched::Program &program,
                const std::vector<sched::BlockSchedule> &schedules,
                rumap::CheckStats &stats)
{
    if (schedules.size() != program.blocks.size())
        return false;
    rumap::Checker checker(low);
    stats.sizeFor(low);
    bool ok = true;
    for (size_t b = 0; b < schedules.size(); ++b) {
        const sched::Block &block = program.blocks[b];
        const sched::BlockSchedule &s = schedules[b];
        rumap::RuMap ru;
        for (uint32_t u : s.issue_order) {
            const lmdes::LowOpClass &cls =
                low.opClasses()[block.instrs[u].op_class];
            uint32_t tree = s.used_cascade[u] ? cls.cascade_tree : cls.tree;
            ok &= checker.tryReserve(tree, s.cycles[u], ru, stats);
        }
    }
    return ok;
}

std::vector<sched::BlockSchedule>
ScheduleLayers::add(const lmdes::LowMdes &low, const sched::Program &prog,
                    bool backward, bool verify, Tally &tally)
{
    Clock::time_point t = Clock::now();
    { rumap::Checker checker(low); }
    checker_us += usSince(t);

    // rebuild() on one graph, as the schedulers reuse theirs per block.
    sched::DepGraph graph;
    t = Clock::now();
    for (const sched::Block &b : prog.blocks)
        graph.rebuild(b, low);
    dep_ns += usSince(t) * 1e3;

    sched::SchedStats stats;
    std::vector<sched::BlockSchedule> schedules;
    t = Clock::now();
    if (backward) {
        schedules =
            sched::BackwardListScheduler(low).scheduleProgram(prog, stats);
    } else {
        schedules = sched::ListScheduler(low).scheduleProgram(prog, stats);
        list_ns += usSince(t) * 1e3;
        list_ops += stats.ops_scheduled;
        checks.merge(stats.checks);
    }

    rumap::CheckStats replay_stats;
    t = Clock::now();
    tally.check(replaySchedules(low, prog, schedules, replay_stats));
    replay_ns += usSince(t) * 1e3;

    if (verify) {
        bool ok = true;
        t = Clock::now();
        for (size_t b = 0; b < prog.blocks.size(); ++b)
            ok &= sched::verifyScheduleEx(prog.blocks[b], schedules[b], low)
                      .ok();
        verify_ns += usSince(t) * 1e3;
        verify_ops += stats.ops_scheduled;
        tally.check(ok);
    }
    ++programs;
    ops += stats.ops_scheduled;
    blocks += prog.blocks.size();
    return schedules;
}

void
ScheduleLayers::addGenerated(const lmdes::LowMdes &low,
                             const workload::WorkloadSpec &spec,
                             bool backward, bool verify, Tally &tally)
{
    Clock::time_point t = Clock::now();
    sched::Program prog = workload::generate(spec, low);
    generate_us += usSince(t);
    ++generated;
    add(low, prog, backward, verify, tally);
}

void
ScheduleLayers::merge(const ScheduleLayers &o)
{
    programs += o.programs;
    generated += o.generated;
    ops += o.ops;
    blocks += o.blocks;
    list_ops += o.list_ops;
    verify_ops += o.verify_ops;
    generate_us += o.generate_us;
    checker_us += o.checker_us;
    dep_ns += o.dep_ns;
    replay_ns += o.replay_ns;
    list_ns += o.list_ns;
    verify_ns += o.verify_ns;
    checks.merge(o.checks);
}

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

void
ScheduleLayers::reportRep(Metrics &out, const std::string &rep) const
{
    const double lops = double(list_ops);
    out["rumap.attempts_per_op." + rep] = {ratio(double(checks.attempts),
                                                 lops),
                                           "count"};
    out["rumap.options_per_attempt." + rep] = {checks.avgOptionsPerAttempt(),
                                               "count"};
    out["rumap.checks_per_attempt." + rep] = {checks.avgChecksPerAttempt(),
                                              "count"};
    out["rumap.prefilter_hit_rate." + rep] = {
        ratio(double(checks.prefilter_hits), double(checks.attempts)),
        "ratio"};
    const double replay = ratio(replay_ns, double(ops));
    const double list = ratio(list_ns, lops);
    out["rumap.replay_ns_per_op." + rep] = {replay, "ns"};
    out["sched.list_ns_per_op." + rep] = {list, "ns"};
    // The ready-list and loop estimate: list minus dep graph minus replay.
    out["sched.residual_ns_per_op." + rep] = {
        list - ratio(dep_ns, double(ops)) - replay, "ns"};
}

void
ScheduleLayers::reportShared(Metrics &out) const
{
    out["workload.generate_us"] = {ratio(generate_us, double(generated)),
                                   "us"};
    out["rumap.checker_build_us"] = {ratio(checker_us, double(programs)),
                                     "us"};
    out["sched.dep_graph_ns_per_op"] = {ratio(dep_ns, double(ops)), "ns"};
    out["sched.verify_ns_per_op"] = {ratio(verify_ns, double(verify_ops)),
                                     "ns"};
    out["sched.ops_per_block"] = {ratio(double(ops), double(blocks)), "ops"};
}

double
ScheduleLayers::meanUs() const
{
    return ratio(generate_us + checker_us +
                     (dep_ns + replay_ns + verify_ns) * 1e-3,
                 double(programs));
}

std::vector<const machines::MachineInfo *>
builtinMachines()
{
    std::vector<const machines::MachineInfo *> all = machines::all();
    for (const machines::MachineInfo *m : machines::extensions())
        all.push_back(m);
    return all;
}

Probe::Probe()
{
    for (uint32_t i = 0; i < 65536; ++i)
        map_.emplace(next(), i);
}

uint32_t
Probe::next()
{
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return uint32_t(state_ >> 16);
}

double
Probe::speed()
{
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) {
        auto it = map_.lower_bound(next());
        if (it == map_.end())
            it = map_.begin();
        // Move the entry to a new key: one erase and one allocating
        // insert, so the map keeps its size and keeps churning.
        uint32_t key = it->first ^ 0x5bd1e995u, value = it->second;
        map_.erase(it);
        map_.emplace(key, value);
    }
    return double(kOps) / secondsSince(t0) / kReferenceRate;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace mdes::perfbench
