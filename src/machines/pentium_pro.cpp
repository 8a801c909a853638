#include "machines/machines.h"
#include "support/fnv.h"

/**
 * @file
 * Intel Pentium Pro machine description - the paper's forward-looking
 * extension. Section 9 closes: "We expect the K5 MDES results to be
 * representative of the latest generation of microprocessors, such as
 * the Intel Pentium Pro and the HP PA8000." This description tests that
 * prediction with the same modeling approach used for the K5.
 *
 * Modeled structure (P6 core, scheduled as in-order decode/dispatch like
 * the paper models the K5's buffering):
 *  - 3 decoders with the 4-1-1 template: decoder 0 handles any x86
 *    operation; decoders 1 and 2 only single-uop operations;
 *  - uops dispatch through 5 ports: port0/port1 ALUs (port0 also hosts
 *    the multiplier and shifter), port2 load, port3 store-address,
 *    port4 store-data;
 *  - the retirement stage accepts 3 uops per cycle (3 retire slots);
 *  - multi-uop operations may split their dispatch across two cycles,
 *    holding the uop-queue token, exactly like the K5's two-cycle
 *    tables.
 *
 * The description leans on AND/OR factoring throughout - the paper's
 * point is precisely that this machine class explodes in OR form.
 */

namespace mdes::machines {

namespace {

const char *const kSource = R"MDES(
machine "PentiumPro" {
    resource Dec0;           // complex decoder (any x86 op)
    resource DecS[2];        // simple decoders (single-uop ops only)
    resource P01[2];         // ALU dispatch ports 0 and 1
    resource P0X;            // port-0 multiplier/shifter pipeline
    resource P2;             // load port
    resource P3;             // store-address port
    resource P4;             // store-data port
    resource RAT[3];         // rename/allocate slots (3 uops per cycle)
    resource Ret[3];         // retirement slots
    resource UQ;             // uop-queue token for split dispatch

    let DEC = -1;
    let RET = 2;

    // Single-uop operations may use any decoder; multi-uop operations
    // are restricted to the complex decoder (the 4-1-1 template).
    ortree AnyDec {
        option { use Dec0 at DEC; }
        for d in 0 .. 1 { option { use DecS[d] at DEC; } }
    }
    ortree ComplexDec { option { use Dec0 at DEC; } }
    ortree AnyAluPort {
        for p in 0 .. 1 { option { use P01[p] at 0; } }
    }
    ortree Port0Mul { option { use P01[0] at 0; use P0X at 0; } }
    ortree LoadPort { option { use P2 at 0; } }
    ortree StaPort { option { use P3 at 0; } }
    ortree StdPort { option { use P4 at 0; } }
    ortree StaPortLate { option { use P3 at 1; } }
    ortree StdPortLate { option { use P4 at 1; } }
    ortree AnyAluLate {
        for p in 0 .. 1 { option { use P01[p] at 1; } }
    }
    ortree AnyRat {
        for r in 0 .. 2 { option { use RAT[r] at 0; } }
    }
    ortree RatPair {
        for a in 0 .. 2 { for b in a + 1 .. 2 {
            option { use RAT[a] at 0; use RAT[b] at 0; }
        } }
    }
    ortree RatAll {
        option { use RAT[0] at 0; use RAT[1] at 0; use RAT[2] at 0; }
    }
    ortree AnyRet {
        for r in 0 .. 2 { option { use Ret[r] at RET; } }
    }
    ortree RetPair {
        for a in 0 .. 2 { for b in a + 1 .. 2 {
            option { use Ret[a] at RET; use Ret[b] at RET; }
        } }
    }
    ortree QueueTok { option { use UQ at 0; use UQ at 1; } }

    // ---- Tables (expanded option counts in comments) -------------------
    table Alu1      = and(AnyDec, AnyRat, AnyAluPort, AnyRet);  // 3*3*2*3=54
    table Mul1      = and(AnyDec, AnyRat, Port0Mul, AnyRet);    // 3*3*1*3=27
    table Load1     = and(AnyDec, AnyRat, LoadPort, AnyRet);    // 27
    table Store2    = and(ComplexDec, RatPair, StaPort, StdPort,
                          RetPair);                             // 1*3*1*1*3=9
    table LoadOp2   = and(ComplexDec, RatPair, LoadPort, AnyAluLate,
                          RetPair);                             // 3*2*3=18
    table Rmw4      = and(ComplexDec, RatAll, QueueTok, LoadPort,
                          AnyAluLate, StaPortLate, StdPortLate,
                          RetPair);                             // 2*3=6
    table CmpBr2    = and(ComplexDec, RatPair, AnyAluPort, RetPair); // 18
    table FpMul1    = and(AnyDec, AnyRat, Port0Mul, AnyRet);    // 27

    // ---- Operations -----------------------------------------------------
    operation MOV_RR { table Alu1; latency 1; note "1-uop ALU"; }
    operation ALU_RR { table Alu1; latency 1; note "1-uop ALU"; }
    operation ALU_RI { table Alu1; latency 1; note "1-uop ALU"; }
    operation LEA    { table Alu1; latency 1; note "1-uop ALU"; }
    operation SHL    { table Mul1; latency 1; note "1-uop port-0 only"; }
    operation IMUL   { table Mul1; latency 4; note "1-uop port-0 only"; }
    operation FMUL_X87 { table FpMul1; latency 5; note "1-uop port-0 only"; }
    operation MOV_RM { table Load1; latency 3; note "1-uop load"; }
    operation MOV_MR { table Store2; latency 1; note "2-uop store (sta+std)"; }
    operation LOAD_OP { table LoadOp2; latency 4; note "2-uop load+alu"; }
    operation RMW    { table Rmw4; latency 5;
                       note "4-uop read-modify-write, split dispatch"; }
    operation CMP_BR { table CmpBr2; latency 1; note "fused cmp+branch"; }

    bypass MOV_RM MOV_MR latency 2;
}
)MDES";

MachineInfo
makeInfo()
{
    MachineInfo info;
    info.name = "PentiumPro";
    info.source = kSource;
    info.source_hash = fnv1a64(kSource);

    workload::WorkloadSpec &w = info.workload;
    w.seed = 0x6A1996;
    w.num_ops = 200000;
    w.num_regs = 32; // registers + disambiguated memory slots (postpass)
    w.min_block_size = 8;
    w.max_block_size = 18;
    w.src_locality = 0.25;
    w.classes = {
        {"CMP_BR", 1.0, 2, 0, false, true},
        {"MOV_RR", 14.0, 1, 1, false, false},
        {"ALU_RR", 16.0, 2, 1, false, false},
        {"ALU_RI", 11.0, 1, 1, false, false},
        {"LEA", 5.0, 1, 1, false, false},
        {"SHL", 6.0, 1, 1, false, false},
        {"IMUL", 1.3, 2, 1, false, false},
        {"FMUL_X87", 1.0, 2, 1, false, false},
        {"MOV_RM", 22.0, 1, 1, false, false},
        {"MOV_MR", 12.0, 2, 0, false, false},
        {"LOAD_OP", 7.0, 2, 1, false, false},
        {"RMW", 3.0, 2, 0, false, false},
    };
    return info;
}

} // namespace

const MachineInfo &
pentiumPro()
{
    static const MachineInfo info = makeInfo();
    return info;
}

} // namespace mdes::machines
