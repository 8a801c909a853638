#ifndef MDES_MACHINES_MACHINES_H
#define MDES_MACHINES_MACHINES_H

/**
 * @file
 * The four machine descriptions evaluated by the paper - HP PA7100,
 * Intel Pentium, Sun SuperSPARC, AMD K5 - written in the high-level MDES
 * language, each paired with the synthetic-workload parameters that
 * stand in for its SPEC CINT92 assembly stream.
 *
 * The descriptions deliberately contain the kind of decay the paper's
 * Section 5 targets: copy-pasted OR-trees ("it is typically easier to
 * just make a local copy than to do the careful analysis required to
 * safely modify existing information") and leftover unused tables from
 * earlier description generations. The PA7100 additionally carries the
 * historical duplicated memory-operation option (Table 8).
 *
 * Option-count breakdowns match the paper's Tables 1-4 exactly; the
 * machine-description tests assert this.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace mdes::machines {

/** A machine description plus its workload parameters. */
struct MachineInfo
{
    std::string name;
    /** High-level MDES source text. */
    const char *source = nullptr;
    /** fnv1a64(source), computed once with the registry: artifact keys
     * continue from it (store::artifactKeyFromSourceHash) instead of
     * rehashing the source on every request. */
    uint64_t source_hash = 0;
    /** Synthetic workload tuned to the paper's published mix. */
    workload::WorkloadSpec workload;
};

/** Sun SuperSPARC (3-issue in-order; Table 1, prepass scheduling). */
const MachineInfo &superSparc();

/** HP PA7100 (2-issue in-order; Table 2, prepass scheduling). */
const MachineInfo &pa7100();

/** Intel Pentium (2-pipe in-order x86; Table 3, postpass scheduling). */
const MachineInfo &pentium();

/** AMD K5 (4-issue x86, decode/dispatch buffering; Table 4, postpass). */
const MachineInfo &k5();

/**
 * Intel Pentium Pro - not evaluated in the paper, but named in its
 * conclusion as the machine class the K5 results should generalize to;
 * shipped here as the forward-looking extension (see
 * bench_extension_pentiumpro).
 */
const MachineInfo &pentiumPro();

/**
 * HP PA8000 - the other machine named by the paper's closing
 * prediction; modeled out-of-order core as a buffered in-order front
 * end, like the K5.
 */
const MachineInfo &pa8000();

/** The two forward-looking extension machines (PentiumPro, PA8000). */
std::vector<const MachineInfo *> extensions();

/** All four machines in the paper's table order
 * (PA7100, Pentium, SuperSPARC, K5). */
std::vector<const MachineInfo *> all();

/** Look up a machine by name; nullptr when unknown. */
const MachineInfo *byName(const std::string &name);

} // namespace mdes::machines

#endif // MDES_MACHINES_MACHINES_H
