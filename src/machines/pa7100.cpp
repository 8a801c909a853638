#include "machines/machines.h"
#include "support/fnv.h"

/**
 * @file
 * HP PA7100 machine description (paper Section 4, Tables 2 and 8).
 *
 * Two-issue in-order superscalar: one integer-or-memory operation may
 * execute in parallel with one floating-point operation, and the relative
 * order of the two does not matter, so most operations have two options
 * (one per decoder). Branches are modeled as using the last decoder only
 * (nothing may issue after a branch), giving them a single option.
 *
 * Historical detail reproduced from the paper: this description was
 * derived from an earlier HP PA description, and during the retargeting
 * two reservation-table options of the memory operations became
 * identical. The MDES author never noticed, because the compiler output
 * stayed correct; the redundant-option transformation removes the
 * duplicate (Table 8).
 */

namespace mdes::machines {

namespace {

const char *const kSource = R"MDES(
machine "PA7100" {
    resource Decoder[2];
    resource INT;            // integer/memory issue slot
    resource MEM;            // data cache port
    resource FPU;            // FP issue slot
    resource FDIVU;          // FP divide/sqrt unit

    let DEC = -1;

    ortree AnyDecoder {
        for d in 0 .. 1 { option { use Decoder[d] at DEC; } }
    }
    ortree LastDecoder { option { use Decoder[1] at DEC; } }
    ortree IntUnit { option { use INT at 0; } }
    ortree FpUnit { option { use FPU at 0; } }
    ortree FpDivUnit {
        option { for t in 0 .. 7 { use FDIVU at t; } }
    }

    // Memory pipe options enumerated long-hand in the PA-RISC ancestor
    // of this description; the second and third became identical when
    // the PA7100 dropped the ancestor's second cache port, and nobody
    // noticed because correct schedules were still produced (Table 8).
    ortree MemPipe {
        option { use Decoder[0] at DEC; use INT at 0; use MEM at 0; }
        option { use Decoder[1] at DEC; use INT at 0; use MEM at 0; }
        option { use Decoder[1] at DEC; use INT at 0; use MEM at 0; }
    }

    // Copy-paste decay: a private duplicate of IntUnit made while tuning
    // shift-and-add sequences.
    ortree IntUnitShift { option { use INT at 0; } }

    table Branch = and(IntUnit, LastDecoder);        // 1 option
    table Ialu   = and(IntUnit, AnyDecoder);         // 2 options
    table Shift  = and(IntUnitShift, AnyDecoder);    // 2 options
    table Mem    = MemPipe;                          // 3 (2 + duplicate)
    table Fp     = and(FpUnit, AnyDecoder);          // 2 options
    table FpDiv  = and(FpUnit, FpDivUnit, AnyDecoder);

    // Unused leftovers from the ancestor description: the PA7100 has no
    // second memory pipe, but the tables were never deleted.
    ortree SecondMemPipe {
        option { use Decoder[0] at DEC; use MEM at 0; }
        option { use Decoder[1] at DEC; use MEM at 0; }
    }
    table LegacyMem2 = and(IntUnit, SecondMemPipe);

    operation B      { table Branch; latency 1; note "Branch ops"; }
    operation BL     { table Branch; latency 1; note "Branch ops"; }
    operation COMBT  { table Branch; latency 1; note "Branch ops"; }

    operation ADD    { table Ialu; latency 1; note "Ops that can use either decoder"; }
    operation SUB    { table Ialu; latency 1; note "Ops that can use either decoder"; }
    operation OR     { table Ialu; latency 1; note "Ops that can use either decoder"; }
    operation AND    { table Ialu; latency 1; note "Ops that can use either decoder"; }
    operation XOR    { table Ialu; latency 1; note "Ops that can use either decoder"; }
    operation LDO    { table Ialu; latency 1; note "Ops that can use either decoder"; }
    operation SHLADD { table Shift; latency 1; note "Ops that can use either decoder"; }
    operation EXTRU  { table Shift; latency 1; note "Ops that can use either decoder"; }

    operation LDW    { table Mem; latency 2; note "Ops that can use either decoder"; }
    operation LDH    { table Mem; latency 2; note "Ops that can use either decoder"; }
    operation LDB    { table Mem; latency 2; note "Ops that can use either decoder"; }
    operation STW    { table Mem; latency 1; note "Ops that can use either decoder"; }
    operation STH    { table Mem; latency 1; note "Ops that can use either decoder"; }

    operation FADD   { table Fp; latency 2; note "Ops that can use either decoder"; }
    operation FSUB   { table Fp; latency 2; note "Ops that can use either decoder"; }
    operation FMUL   { table Fp; latency 2; note "Ops that can use either decoder"; }
    operation FDIV   { table FpDiv; latency 8; note "Ops that can use either decoder"; }

    // The PA7100's FMAC pipeline forwards a multiply result into a
    // dependent add one cycle early (footnote-1 bypass modeling).
    bypass FMUL FADD latency 1;
    bypass FMUL FSUB latency 1;
}
)MDES";

MachineInfo
makeInfo()
{
    MachineInfo info;
    info.name = "PA7100";
    info.source = kSource;
    info.source_hash = fnv1a64(kSource);

    workload::WorkloadSpec &w = info.workload;
    w.seed = 0x7A711996;
    w.num_ops = 201011; // paper: 201011 static PA7100 operations
    w.num_regs = 32;    // prepass scheduling
    w.min_block_size = 2;
    w.max_block_size = 6;
    w.src_locality = 0.7;
    w.classes = {
        {"B", 1.2, 0, 0, false, true},
        {"BL", 0.5, 0, 0, false, true},
        {"COMBT", 1.3, 2, 0, false, true},
        {"ADD", 14.0, 2, 1, false, false},
        {"SUB", 7.0, 2, 1, false, false},
        {"OR", 6.0, 2, 1, false, false},
        {"AND", 4.0, 2, 1, false, false},
        {"XOR", 2.0, 2, 1, false, false},
        {"LDO", 12.0, 1, 1, false, false},
        {"SHLADD", 6.0, 2, 1, false, false},
        {"EXTRU", 4.0, 2, 1, false, false},
        {"LDW", 12.0, 1, 1, false, false},
        {"LDH", 3.0, 1, 1, false, false},
        {"LDB", 2.0, 1, 1, false, false},
        {"STW", 6.0, 2, 0, false, false},
        {"STH", 1.5, 2, 0, false, false},
        {"FADD", 0.4, 2, 1, false, false},
        {"FSUB", 0.2, 2, 1, false, false},
        {"FMUL", 0.3, 2, 1, false, false},
        {"FDIV", 0.05, 2, 1, false, false},
    };
    return info;
}

} // namespace

const MachineInfo &
pa7100()
{
    static const MachineInfo info = makeInfo();
    return info;
}

} // namespace mdes::machines
