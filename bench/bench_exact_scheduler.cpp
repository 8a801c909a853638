/**
 * @file
 * Exact-scheduler quality bench: proven-optimal rate and schedule
 * length vs. plain list scheduling.
 *
 * For each machine, schedules the standard synthetic workload with the
 * list scheduler, then hands every block (with its list schedule as the
 * incumbent) to the branch-and-bound exact scheduler at the service's
 * default per-block budget (50 ms, 2^20 nodes). Reports how many blocks
 * the search proves optimal, the average optimality gap of the rest,
 * and the total-cycle improvement the exact schedules buy.
 *
 * Per machine, two values must stay inside the bands pinned in
 * bench/baseline_perf.json, or the bench exits non-zero:
 * exact/<machine>/proven_rate over the blocks of <= 12 operations (the
 * search must keep proving >= 80% of them; the K5's standard workload
 * also has 13-22-op blocks, reported separately) and
 * exact/<machine>/len_ratio (exact total cycles / list total cycles;
 * <= 1 by construction since the incumbent is never discarded). Both
 * entries also pin the *list* scheduler's fingerprint of this workload,
 * which test_pinned recomputes.
 */

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/transforms.h"
#include "exact/exact_scheduler.h"
#include "hmdes/compile.h"
#include "workload/workload.h"

int
main()
{
    using namespace mdes;
    using namespace mdes::bench;

    const std::vector<Pin> pins = loadPins();
    bool ok = true;

    printHeader("exact scheduler (branch and bound)",
                "proven-optimal rate and schedule-length improvement "
                "vs. list scheduling at 50 ms/block");

    TextTable table;
    table.setHeader({"MDES", "Blocks", "Proven", "Rate", "Rate<=12op",
                     "Avg Gap", "List Cycles", "Exact Cycles",
                     "Improved", "Nodes/Block"});

    static const char *kMachines[] = {"SuperSPARC", "K5", "PA7100"};
    for (const char *name : kMachines) {
        const machines::MachineInfo *info = machines::byName(name);
        Mdes m = hmdes::compileOrThrow(info->source);
        runPipeline(m, PipelineConfig::all());
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = true;
        lmdes::LowMdes low = lmdes::LowMdes::lower(m, lopts);

        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 1500;
        sched::Program program = workload::generate(spec, low);

        sched::ListScheduler list(low);
        sched::SchedStats list_stats;
        std::vector<sched::BlockSchedule> list_scheds =
            list.scheduleProgram(program, list_stats);

        exact::ExactScheduler search(low);
        uint64_t proven = 0, improved = 0, nodes = 0, gap_cycles = 0;
        uint64_t list_total = 0, exact_total = 0;
        uint64_t small = 0, small_proven = 0;
        for (size_t b = 0; b < program.blocks.size(); ++b) {
            sched::SchedStats stats;
            exact::ExactOptions opts;
            opts.time_budget_us = 50000;
            opts.incumbent = &list_scheds[b];
            exact::ExactResult er =
                search.scheduleBlock(program.blocks[b], stats, opts);
            proven += er.proven_optimal ? 1 : 0;
            improved += er.improved ? 1 : 0;
            nodes += er.nodes;
            gap_cycles += uint64_t(er.gap());
            list_total += uint64_t(list_scheds[b].length);
            exact_total += uint64_t(er.schedule.length);
            if (program.blocks[b].instrs.size() <= 12) {
                ++small;
                small_proven += er.proven_optimal ? 1 : 0;
            }
        }

        size_t blocks = program.blocks.size();
        double rate = blocks ? double(proven) / double(blocks) : 1.0;
        double small_rate =
            small ? double(small_proven) / double(small) : 1.0;
        double len_ratio =
            list_total ? double(exact_total) / double(list_total) : 1.0;
        uint64_t unproven = uint64_t(blocks) - proven;
        table.addRow({
            name,
            std::to_string(blocks),
            std::to_string(proven),
            TextTable::num(100.0 * rate, 1) + "%",
            TextTable::num(100.0 * small_rate, 1) + "%",
            unproven ? TextTable::num(double(gap_cycles)
                                          / double(unproven),
                                      2)
                     : "-",
            std::to_string(list_total),
            std::to_string(exact_total),
            std::to_string(improved),
            std::to_string(blocks ? nodes / blocks : 0),
        });

        std::string pin = std::string("exact/") + name;
        ok &= inPinnedBand(pins, pin + "/proven_rate", small_rate);
        ok &= inPinnedBand(pins, pin + "/len_ratio", len_ratio);
    }
    std::printf("%s", table.toString().c_str());
    std::printf(
        "\nMeasured characterization: within the service's default\n"
        "50 ms/block budget the branch-and-bound search proves the list\n"
        "schedule optimal (or finds and proves a shorter one) for the\n"
        "overwhelming majority of basic blocks; the canonical issue-order\n"
        "enumeration plus the critical-path/resource-height bounds do\n"
        "the pruning, and wouldFit() probing sharpens earliest starts\n"
        "without touching the RU map.\n");
    printFootnote();
    return ok ? 0 : 1;
}
