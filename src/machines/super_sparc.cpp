#include "machines/machines.h"
#include "support/fnv.h"

/**
 * @file
 * Sun SuperSPARC machine description (paper Section 2, Table 1).
 *
 * Modeled resources: 3 decoders, 4 integer register read ports, 2 integer
 * register write ports, 2 IALUs (IALU[1] also executes cascaded
 * operations), a barrel shifter, one memory unit (its dedicated address
 * generation unit has private register ports and is not modeled), one
 * branch unit, and one floating-point issue slot per cycle. Branches are
 * modeled as always using the last decoder to maximize scheduling freedom
 * (nothing may issue after a branch).
 *
 * Option counts per operation group (= paper Table 1):
 *   branches/serial 1, FP 3, loads 6, stores 12, shift/cascade 1-src 24,
 *   shift/cascade 2-src 36, IALU 1-src 48, IALU 2-src 72.
 */

namespace mdes::machines {

namespace {

const char *const kSource = R"MDES(
machine "SuperSPARC" {
    // ---- Modeled resources -------------------------------------------
    resource Decoder[3];
    resource RP[4];          // integer register-file read ports
    resource WrPt[2];        // integer register-file write ports
    resource IALU[2];        // IALU[1] also executes cascaded operations
    resource Shifter;
    resource M;              // memory unit (AGU ports are dedicated)
    resource BR;
    resource FPU;            // FP issue slot (1 FP op per cycle)
    resource FDIVU;          // FP divide unit (busy for the whole divide)

    let DEC = -1;            // decode stage precedes execute (time 0)
    let WB  = 1;             // integer results write back a cycle later

    // ---- Shared OR-trees ---------------------------------------------
    ortree AnyDecoder {
        for d in 0 .. 2 { option { use Decoder[d] at DEC; } }
    }
    ortree LastDecoder { option { use Decoder[2] at DEC; } }
    ortree AnyWrPt {
        for w in 0 .. 1 { option { use WrPt[w] at WB; } }
    }
    ortree OneRP {
        for r in 0 .. 3 { option { use RP[r] at 0; } }
    }
    ortree TwoRP {
        for r in 0 .. 3 { for s in r + 1 .. 3 {
            option { use RP[r] at 0; use RP[s] at 0; }
        } }
    }
    ortree AnyIalu {
        for i in 0 .. 1 { option { use IALU[i] at 0; } }
    }
    ortree CascadeIalu { option { use IALU[1] at 0; } }
    ortree ShiftUnit { option { use Shifter at 0; } }
    ortree MemUnit { option { use M at 0; } }
    ortree BrUnit { option { use BR at 0; } }
    ortree FpUnit { option { use FPU at 0; } }
    ortree FpDivUnit {
        option { for t in 0 .. 5 { use FDIVU at t; } }
    }

    // Serializing operations block the whole issue group.
    ortree SerialAll {
        option {
            for d in 0 .. 2 { use Decoder[d] at DEC; }
            for i in 0 .. 1 { use IALU[i] at 0; }
            use Shifter at 0; use M at 0; use BR at 0;
        }
    }

    // Copy-pasted duplicate of AnyDecoder left behind while the shift
    // tables were being debugged; redundant until CSE merges it.
    ortree AnyDecoderShift {
        for d in 0 .. 2 { option { use Decoder[d] at DEC; } }
    }

    // ---- Reservation tables ------------------------------------------
    table Branch   = and(BrUnit, LastDecoder);                     // 1
    table Serial   = SerialAll;                                    // 1
    table Fp       = and(FpUnit, AnyDecoder);                      // 3
    table FpDiv    = and(FpUnit, FpDivUnit, AnyDecoder);           // 3
    table Load     = and(MemUnit, AnyWrPt, AnyDecoder);            // 6
    table Store    = and(MemUnit, OneRP, AnyDecoder);              // 12
    table Shift1   = and(OneRP, ShiftUnit, AnyWrPt, AnyDecoderShift);
    table Shift2   = and(TwoRP, ShiftUnit, AnyWrPt, AnyDecoderShift);
    table Cascade1 = and(OneRP, CascadeIalu, AnyWrPt, AnyDecoder); // 24
    table Cascade2 = and(TwoRP, CascadeIalu, AnyWrPt, AnyDecoder); // 36
    table Ialu1    = and(OneRP, AnyIalu, AnyWrPt, AnyDecoder);     // 48
    table Ialu2    = and(TwoRP, AnyIalu, AnyWrPt, AnyDecoder);     // 72

    // Leftover from the pre-tapeout description: loads briefly needed a
    // read port for speculative address checks. Never referenced.
    table LegacyLoad = and(MemUnit, OneRP, AnyWrPt, AnyDecoder);

    // ---- Operations ---------------------------------------------------
    operation BA    { table Branch; latency 1; note "Branches and serial ops"; }
    operation BPCC  { table Branch; latency 1; note "Branches and serial ops"; }
    operation CALL  { table Branch; latency 1; note "Branches and serial ops"; }
    operation JMPL  { table Branch; latency 1; note "Branches and serial ops"; }
    operation LDSTUB { table Serial; latency 2; note "Branches and serial ops"; }
    operation SWAP   { table Serial; latency 2; note "Branches and serial ops"; }

    operation FADD  { table Fp; latency 3; note "Floating-point ops"; }
    operation FSUB  { table Fp; latency 3; note "Floating-point ops"; }
    operation FMUL  { table Fp; latency 3; note "Floating-point ops"; }
    operation FDIV  { table FpDiv; latency 6; note "Floating-point ops"; }

    operation LD    { table Load; latency 1; note "Load ops"; }
    operation LDUB  { table Load; latency 1; note "Load ops"; }
    operation LDSH  { table Load; latency 1; note "Load ops"; }

    operation ST    { table Store; latency 1; note "Store ops"; }
    operation STB   { table Store; latency 1; note "Store ops"; }
    operation STH   { table Store; latency 1; note "Store ops"; }

    operation SLL_I { table Shift1; latency 1;
                      note "Shifts and cascaded IALU ops, 1 read port"; }
    operation SRL_I { table Shift1; latency 1;
                      note "Shifts and cascaded IALU ops, 1 read port"; }
    operation SLL_R { table Shift2; latency 1;
                      note "Shifts and cascaded IALU ops, 2 read ports"; }
    operation SRA_R { table Shift2; latency 1;
                      note "Shifts and cascaded IALU ops, 2 read ports"; }

    operation ADD_I { table Ialu1; latency 1; cascade Cascade1;
                      note "IALU ops that use 1 read port"; }
    operation SUB_I { table Ialu1; latency 1; cascade Cascade1;
                      note "IALU ops that use 1 read port"; }
    operation AND_I { table Ialu1; latency 1; cascade Cascade1;
                      note "IALU ops that use 1 read port"; }
    operation OR_I  { table Ialu1; latency 1; cascade Cascade1;
                      note "IALU ops that use 1 read port"; }
    operation XOR_I { table Ialu1; latency 1; cascade Cascade1;
                      note "IALU ops that use 1 read port"; }
    operation SETHI { table Ialu1; latency 1;
                      note "IALU ops that use 1 read port"; }

    operation ADD_R { table Ialu2; latency 1; cascade Cascade2;
                      note "IALU ops that use 2 read ports"; }
    operation SUB_R { table Ialu2; latency 1; cascade Cascade2;
                      note "IALU ops that use 2 read ports"; }
    operation AND_R { table Ialu2; latency 1; cascade Cascade2;
                      note "IALU ops that use 2 read ports"; }
    operation OR_R  { table Ialu2; latency 1; cascade Cascade2;
                      note "IALU ops that use 2 read ports"; }
}
)MDES";

MachineInfo
makeInfo()
{
    MachineInfo info;
    info.name = "SuperSPARC";
    info.source = kSource;
    info.source_hash = fnv1a64(kSource);

    workload::WorkloadSpec &w = info.workload;
    w.seed = 0x55AA1996;
    w.num_ops = 200000;
    w.num_regs = 48; // prepass: virtual registers still plentiful
    w.min_block_size = 4;
    w.max_block_size = 11;
    w.src_locality = 0.5;
    // Weights follow Table 1's per-group scheduling-attempt shares,
    // split evenly across each group's member opcodes.
    w.classes = {
        {"BA", 1.0, 0, 0, false, true},
        {"BPCC", 1.5, 1, 0, false, true},
        {"CALL", 0.8, 0, 0, false, true},
        {"JMPL", 0.4, 1, 0, false, true},
        {"LDSTUB", 1.4, 1, 1, false, false},
        {"SWAP", 0.9, 2, 1, false, false},
        {"FADD", 0.25, 2, 1, false, false},
        {"FSUB", 0.15, 2, 1, false, false},
        {"FMUL", 0.25, 2, 1, false, false},
        {"FDIV", 0.07, 2, 1, false, false},
        {"LD", 8.0, 1, 1, false, false},
        {"LDUB", 3.5, 1, 1, false, false},
        {"LDSH", 2.9, 1, 1, false, false},
        {"ST", 2.8, 2, 0, false, false},
        {"STB", 1.2, 2, 0, false, false},
        {"STH", 0.9, 2, 0, false, false},
        {"SLL_I", 4.5, 1, 1, false, false},
        {"SRL_I", 3.6, 1, 1, false, false},
        {"SLL_R", 1.5, 2, 1, false, false},
        {"SRA_R", 1.1, 2, 1, false, false},
        {"ADD_I", 17.0, 1, 1, true, false},
        {"SUB_I", 9.0, 1, 1, true, false},
        {"AND_I", 7.0, 1, 1, true, false},
        {"OR_I", 6.5, 1, 1, true, false},
        {"XOR_I", 4.0, 1, 1, true, false},
        {"SETHI", 7.0, 0, 1, false, false},
        {"ADD_R", 1.6, 2, 1, true, false},
        {"SUB_R", 1.0, 2, 1, true, false},
        {"AND_R", 0.8, 2, 1, true, false},
        {"OR_R", 0.7, 2, 1, true, false},
    };
    return info;
}

} // namespace

const MachineInfo &
superSparc()
{
    static const MachineInfo info = makeInfo();
    return info;
}

} // namespace mdes::machines
