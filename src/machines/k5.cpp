#include "machines/machines.h"
#include "support/fnv.h"

/**
 * @file
 * AMD K5 machine description (paper Section 4, Table 4).
 *
 * Four-issue out-of-order x86, modeled (as in the paper) as an in-order
 * processor that can buffer operations between decode and execution: an
 * x86 operation occupies one of 4 decode positions the cycle before
 * dispatch, converts into 1-3 Rops, and each Rop takes a dispatch slot
 * (4 per cycle) plus an execution unit (two per Rop type) in its dispatch
 * cycle. Multi-Rop operations whose Rops do not fit in one cycle dispatch
 * over two cycles - the AnyDisp1/unit-Late OR-trees probe the *next*
 * cycle's slots. Compare+branch pairs are bundled, and the bundle's
 * reservation table models all Rops of the bundle.
 *
 * Option counts per group match Table 4 exactly:
 *   16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 768.
 */

namespace mdes::machines {

namespace {

const char *const kSource = R"MDES(
machine "K5" {
    resource Dec[4];         // x86 decode positions
    resource Disp[4];        // Rop dispatch slots (per cycle)
    resource ALU[2];
    resource LSU[2];         // load/store units
    resource AGU[2];         // address-generation units
    resource BRU;
    resource FPU;
    resource DBuf;           // decode->dispatch spill-buffer token

    let DEC = -1;

    // ---- Decode and dispatch -----------------------------------------
    ortree AnyDec {
        for d in 0 .. 3 { option { use Dec[d] at DEC; } }
    }
    ortree AnyDisp0 {
        for s in 0 .. 3 { option { use Disp[s] at 0; } }
    }
    // A second-cycle dispatch also holds the decode/dispatch spill
    // buffer; every option needs the same token, which the Section 8
    // hoisting transformation factors out (its rule-1 case).
    ortree AnyDisp1 {
        for s in 0 .. 3 { option { use Disp[s] at 1; use DBuf at 1; } }
    }
    ortree DispPair0 {
        for a in 0 .. 3 { for b in a + 1 .. 3 {
            option { use Disp[a] at 0; use Disp[b] at 0; }
        } }
    }
    // Three of the four slots in one cycle (4 unordered triples).
    ortree DispTriple0 {
        option { use Disp[0] at 0; use Disp[1] at 0; use Disp[2] at 0; }
        option { use Disp[0] at 0; use Disp[1] at 0; use Disp[3] at 0; }
        option { use Disp[0] at 0; use Disp[2] at 0; use Disp[3] at 0; }
        option { use Disp[1] at 0; use Disp[2] at 0; use Disp[3] at 0; }
    }

    // ---- Execution units ----------------------------------------------
    ortree AnyAlu {
        for i in 0 .. 1 { option { use ALU[i] at 0; } }
    }
    ortree AnyAluLate {
        for i in 0 .. 1 { option { use ALU[i] at 1; } }
    }
    ortree AnyLsu {
        for i in 0 .. 1 { option { use LSU[i] at 0; } }
    }
    ortree AnyAguLate {
        for i in 0 .. 1 { option { use AGU[i] at 1; } }
    }
    ortree Alu0 { option { use ALU[0] at 0; } }
    ortree Lsu0 { option { use LSU[0] at 0; } }
    ortree BrUnit { option { use BRU at 0; } }
    ortree BrLate { option { use BRU at 1; } }
    ortree FpUnit { option { use FPU at 0; } }
    // A second-cycle Rop that may go to either ALU or to LSU[0]
    // (the paper's "subset of" variant of the two-unit-choice tables).
    ortree AluOrLsu0Late {
        option { use ALU[0] at 1; }
        option { use ALU[1] at 1; }
        option { use LSU[0] at 1; }
    }

    // Copy-paste decay: the ALU-op tables were retuned late and got a
    // private duplicate of the decode OR-tree.
    ortree AnyDecAlu {
        for d in 0 .. 3 { option { use Dec[d] at DEC; } }
    }

    // ---- Reservation tables (expanded option count in comments) -------
    table Rop1Fp      = and(AnyDec, AnyDisp0, FpUnit);              // 16
    table Rop1Mul     = and(AnyDec, AnyDisp0, Alu0);                // 16
    table Rop2Xchg    = and(AnyDec, DispPair0, Alu0, Lsu0);         // 24
    table Rop1Alu     = and(AnyDecAlu, AnyDisp0, AnyAlu);           // 32
    table Rop1Load    = and(AnyDec, AnyDisp0, AnyLsu);              // 32
    table Rop1Store   = and(AnyDec, AnyDisp0, AnyLsu);              // 32 (dup of Rop1Load)
    table CmpBr2      = and(AnyDec, DispPair0, AnyAlu, BrUnit);     // 48
    table CmpMBr3     = and(AnyDec, DispTriple0, AnyAlu, AnyLsu, BrUnit); // 64
    table LoadOp2     = and(AnyDec, DispPair0, AnyAlu, AnyLsu);     // 96
    table CmpBr2Far   = and(AnyDec, AnyDisp0, AnyDisp1, AnyAlu, BrLate); // 128
    table PushMem2    = and(AnyDec, AnyDisp0, AnyDisp1, Alu0, AluOrLsu0Late); // 192
    table LoadOpW2    = and(AnyDec, AnyDisp0, AnyDisp1, AnyLsu, AnyAluLate); // 256
    table CmpMBr3Far  = and(AnyDec, DispPair0, AnyDisp1, AnyAlu, AnyLsu, BrLate); // 384
    table Rmw3        = and(AnyDec, DispPair0, AnyDisp1, AnyAlu, AnyLsu, AnyAguLate); // 768

    // Unused leftover: a prototype table for 4-Rop string operations
    // that were ultimately handled by microcode expansion instead.
    table LegacyString4 = and(AnyDec, DispTriple0, AnyDisp1, AnyAlu, AnyLsu);

    // ---- Operations ----------------------------------------------------
    operation FADD_X87 { table Rop1Fp; latency 3;
                         note "1-Rop ops with 1 unit choice"; }
    operation FMUL_X87 { table Rop1Fp; latency 3;
                         note "1-Rop ops with 1 unit choice"; }
    operation IMUL     { table Rop1Mul; latency 4;
                         note "1-Rop ops with 1 unit choice"; }
    operation XCHG     { table Rop2Xchg; latency 2;
                         note "2-Rop ops dispatched in 1 cycle (1 unit choice)"; }
    operation MOV_RR   { table Rop1Alu; latency 1;
                         note "1-Rop ops with 2 unit choices"; }
    operation ALU_RR   { table Rop1Alu; latency 1;
                         note "1-Rop ops with 2 unit choices"; }
    operation ALU_RI   { table Rop1Alu; latency 1;
                         note "1-Rop ops with 2 unit choices"; }
    operation INC      { table Rop1Alu; latency 1;
                         note "1-Rop ops with 2 unit choices"; }
    operation TEST     { table Rop1Alu; latency 1;
                         note "1-Rop ops with 2 unit choices"; }
    operation MOV_RM   { table Rop1Load; latency 2;
                         note "1-Rop ops with 2 unit choices"; }
    operation MOV_MR   { table Rop1Store; latency 1;
                         note "1-Rop ops with 2 unit choices"; }
    operation CMP_BR   { table CmpBr2; latency 1;
                         note "2-Rop bundled cmp+br dispatched in 1 cycle"; }
    operation CMPM_BR  { table CmpMBr3; latency 1;
                         note "3-Rop bundled cmp+br dispatched in 1 cycle"; }
    operation LOAD_OP  { table LoadOp2; latency 2;
                         note "2-Rop ops dispatched in 1 cycle (2 unit choices)"; }
    operation CMP_BR_FAR { table CmpBr2Far; latency 2;
                         note "2-Rop bundled cmp+br dispatched over 2 cycles"; }
    operation PUSH_MEM { table PushMem2; latency 2;
                         note "2-Rop ops dispatched over 2 cycles (subset of)"; }
    operation LOAD_OP_W { table LoadOpW2; latency 3;
                         note "2-Rop ops dispatched over 2 cycles (2 unit choices)"; }
    operation CMPM_BR_FAR { table CmpMBr3Far; latency 2;
                         note "3-Rop bundled cmp+br dispatched over 2 cycles"; }
    operation RMW      { table Rmw3; latency 3;
                         note "3-Rop ops dispatched over 2 cycles (subset of)"; }

    // Load data forwards directly into a dependent store's data Rop a
    // cycle before the architectural result is ready.
    bypass MOV_RM MOV_MR latency 1;
}
)MDES";

MachineInfo
makeInfo()
{
    MachineInfo info;
    info.name = "K5";
    info.source = kSource;
    info.source_hash = fnv1a64(kSource);

    workload::WorkloadSpec &w = info.workload;
    w.seed = 0xAD051996; // deterministic stream seed
    w.num_ops = 203094; // paper: 203094 static K5 operations
    // Postpass x86 names: 0-7 model the architectural registers, the
    // rest stand for disambiguated stack/memory slots - most values in
    // register-starved x86 code live in memory, and independent memory
    // references carry no dependence the scheduler must honor.
    w.num_regs = 32;
    w.min_block_size = 10;
    w.max_block_size = 22;
    w.src_locality = 0.18;
    w.classes = {
        {"CMP_BR", 5.91, 2, 0, false, true},
        {"CMPM_BR", 2.56, 2, 0, false, true},
        {"CMP_BR_FAR", 0.66, 2, 0, false, true},
        {"CMPM_BR_FAR", 0.43, 2, 0, false, true},
        {"FADD_X87", 6.5, 2, 1, false, false},
        {"FMUL_X87", 3.5, 2, 1, false, false},
        {"IMUL", 4.7, 2, 1, false, false},
        {"XCHG", 0.14, 2, 2, false, false},
        {"MOV_RR", 15.0, 1, 1, false, false},
        {"ALU_RR", 15.0, 2, 1, false, false},
        {"ALU_RI", 10.0, 1, 1, false, false},
        {"INC", 3.0, 1, 1, false, false},
        {"TEST", 2.0, 2, 0, false, false},
        {"MOV_RM", 20.0, 1, 1, false, false},
        {"MOV_MR", 9.7, 2, 0, false, false},
        {"LOAD_OP", 0.19, 2, 1, false, false},
        {"PUSH_MEM", 0.15, 1, 0, false, false},
        {"LOAD_OP_W", 0.37, 2, 1, false, false},
        {"RMW", 0.15, 2, 0, false, false},
    };
    return info;
}

} // namespace

const MachineInfo &
k5()
{
    static const MachineInfo info = makeInfo();
    return info;
}

} // namespace mdes::machines
