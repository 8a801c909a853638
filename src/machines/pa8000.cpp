#include "machines/machines.h"
#include "support/fnv.h"

/**
 * @file
 * HP PA8000 machine description - the second machine named by the
 * paper's closing prediction ("the Intel Pentium Pro and the HP
 * PA8000"). Like the K5 and the P6 description, the out-of-order core
 * is modeled as an in-order front end with buffering:
 *
 *  - 4-wide fetch/insert: an operation takes one of 4 instruction
 *    positions and one of 4 reorder-buffer insert slots (the 56-entry
 *    IRB is split between ALU and memory sides; memory operations hold
 *    an extra address-reorder-buffer token);
 *  - execution units: 2 integer ALUs, 2 shift/merge units, 2 FP
 *    multiply-accumulate units, 2 divide/sqrt units (busy multi-cycle),
 *    2 load/store ports feeding a dual-ported cache;
 *  - retirement: 4 slots per cycle, two cycles after execute.
 *
 * All trees are AND/OR-factored; the flat OR form of this description
 * explodes the same way the K5's does, which is the prediction under
 * test in bench_extension_pentiumpro.
 */

namespace mdes::machines {

namespace {

const char *const kSource = R"MDES(
machine "PA8000" {
    resource Pos[4];         // fetch positions
    resource Ins[4];         // IRB insert slots
    resource IALU[2];
    resource SMU[2];         // shift/merge units
    resource FMAC[2];
    resource DIV[2];         // divide/sqrt, busy 8 cycles
    resource LSP[2];         // load/store ports
    resource ARB;            // address-reorder-buffer token
    resource Ret[4];         // retire slots

    let FETCH = -1;
    let RET = 2;

    ortree AnyPos {
        for p in 0 .. 3 { option { use Pos[p] at FETCH; } }
    }
    ortree LastPos { option { use Pos[3] at FETCH; } }
    ortree AnyIns {
        for i in 0 .. 3 { option { use Ins[i] at 0; } }
    }
    ortree AnyIalu {
        for u in 0 .. 1 { option { use IALU[u] at 0; } }
    }
    ortree AnySmu {
        for u in 0 .. 1 { option { use SMU[u] at 0; } }
    }
    ortree AnyFmac {
        for u in 0 .. 1 { option { use FMAC[u] at 0; } }
    }
    ortree AnyDiv {
        for u in 0 .. 1 {
            option { for t in 0 .. 7 { use DIV[u] at t; } }
        }
    }
    ortree AnyLsp {
        for u in 0 .. 1 { option { use LSP[u] at 0; } }
    }
    ortree ArbTok { option { use ARB at 0; } }
    ortree AnyRet {
        for r in 0 .. 3 { option { use Ret[r] at RET; } }
    }

    table Ialu  = and(AnyPos, AnyIns, AnyIalu, AnyRet);   // 4*4*2*4=128
    table Shift = and(AnyPos, AnyIns, AnySmu, AnyRet);    // 128
    table Fp    = and(AnyPos, AnyIns, AnyFmac, AnyRet);   // 128
    table FpDiv = and(AnyPos, AnyIns, AnyDiv, AnyRet);    // 128
    table Mem   = and(AnyPos, AnyIns, ArbTok, AnyLsp, AnyRet); // 128
    table Br    = and(LastPos, AnyIns, AnyIalu, AnyRet);  // 32

    operation ADD   { table Ialu; latency 1; note "integer ALU"; }
    operation SUB   { table Ialu; latency 1; note "integer ALU"; }
    operation LDO   { table Ialu; latency 1; note "integer ALU"; }
    operation SHLADD { table Shift; latency 1; note "shift/merge"; }
    operation EXTRU { table Shift; latency 1; note "shift/merge"; }
    operation FMPYADD { table Fp; latency 3; note "FP multiply-accumulate"; }
    operation FADD  { table Fp; latency 3; note "FP multiply-accumulate"; }
    operation FDIV  { table FpDiv; latency 17; note "FP divide/sqrt"; }
    operation LDW   { table Mem; latency 2; note "memory"; }
    operation STW   { table Mem; latency 1; note "memory"; }
    operation COMBT { table Br; latency 1; note "branch"; }

    // The FMAC forwards a multiply result into a dependent accumulate.
    bypass FMPYADD FADD latency 2;
}
)MDES";

MachineInfo
makeInfo()
{
    MachineInfo info;
    info.name = "PA8000";
    info.source = kSource;
    info.source_hash = fnv1a64(kSource);

    workload::WorkloadSpec &w = info.workload;
    w.seed = 0x8A001996;
    w.num_ops = 200000;
    w.num_regs = 48; // prepass, plentiful virtual registers
    w.min_block_size = 8;
    w.max_block_size = 18;
    w.src_locality = 0.3;
    w.classes = {
        {"COMBT", 1.0, 2, 0, false, true},
        {"ADD", 22.0, 2, 1, false, false},
        {"SUB", 10.0, 2, 1, false, false},
        {"LDO", 12.0, 1, 1, false, false},
        {"SHLADD", 8.0, 2, 1, false, false},
        {"EXTRU", 5.0, 2, 1, false, false},
        {"FMPYADD", 4.0, 2, 1, false, false},
        {"FADD", 3.0, 2, 1, false, false},
        {"FDIV", 0.2, 2, 1, false, false},
        {"LDW", 20.0, 1, 1, false, false},
        {"STW", 9.0, 2, 0, false, false},
    };
    return info;
}

} // namespace

const MachineInfo &
pa8000()
{
    static const MachineInfo info = makeInfo();
    return info;
}

} // namespace mdes::machines
