#include "machines/machines.h"
#include "support/fnv.h"

/**
 * @file
 * Intel Pentium machine description (paper Section 4, Table 3).
 *
 * Two-pipe in-order x86: the detailed pairing rules boil down to three
 * shapes - operations that may execute in either pipe (two options),
 * operations restricted to the U pipe but still pairable (one option),
 * and non-pairable operations that issue alone (one option using both
 * issue slots). The compiler bundles each branch with its
 * condition-code-setting operation; the bundle's reservation table models
 * the resources of both operations.
 *
 * As the paper notes, the Pentium's execution constraints lack the
 * flexibility that benefits from AND/OR-trees, so every table's AND level
 * points at a single OR-tree - and this description shows the long-hand,
 * per-opcode copy-pasted style such descriptions accrete (each opcode
 * family enumerating its own identical OR-tree), which is why the
 * Pentium benefits most from the Section 5 redundancy elimination.
 */

namespace mdes::machines {

namespace {

const char *const kSource = R"MDES(
machine "Pentium" {
    resource D1;             // first (U) issue slot
    resource D2;             // second (V) issue slot
    resource U;              // U pipe
    resource V;              // V pipe
    resource UALU;
    resource VALU;
    resource DC[2];          // data-cache ports
    resource WB[2];          // writeback slots

    let DEC = -1;
    let WBT = 1;

    // Register-to-register moves: either pipe.
    ortree MovRRPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use WB[1] at WBT; }
    }
    // Loads: either pipe plus a cache port.
    ortree MovRMPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use DC[0] at 0;
                 use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use DC[1] at 0;
                 use WB[1] at WBT; }
    }
    // Stores: copy-pasted from the load OR-tree when stores were split
    // out; structurally identical to MovRMPipe.
    ortree MovMRPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use DC[0] at 0;
                 use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use DC[1] at 0;
                 use WB[1] at WBT; }
    }
    // ALU reg,reg - another verbatim copy of the MOV shape.
    ortree AluRRPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use WB[1] at WBT; }
    }
    // ALU reg,imm - and another.
    ortree AluRIPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use WB[1] at WBT; }
    }
    // LEA computes in the address path, leaving the ALU free.
    ortree LeaPipe {
        option { use D1 at DEC; use U at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use WB[1] at WBT; }
    }
    // Stack operations touch memory: copy of the load shape.
    ortree StackPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use DC[0] at 0;
                 use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use DC[1] at 0;
                 use WB[1] at WBT; }
    }

    // ALU with carry and unary ALU forms - each family re-enumerated
    // its own identical OR-tree when it was added.
    ortree AdcSbbPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use WB[1] at WBT; }
    }
    ortree UnaryAluPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use WB[1] at WBT; }
    }
    // Compares set flags only - no writeback slot.
    ortree CmpPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; }
        option { use D2 at DEC; use V at 0; use VALU at 0; }
    }
    ortree MovExtPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use WB[1] at WBT; }
    }
    // ALU with a memory operand: copy of the load shape.
    ortree AluRMPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use DC[0] at 0;
                 use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use VALU at 0; use DC[1] at 0;
                 use WB[1] at WBT; }
    }

    // Shifts and rotates: U pipe only (still pairable with a V-pipe op).
    ortree ShiftPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
    }
    ortree RotPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
    }
    ortree SetccPipe {
        option { use D1 at DEC; use U at 0; use UALU at 0; use WB[0] at WBT; }
    }

    // Non-pairable operations issue alone: both slots, both pipes.
    ortree AlonePipe {
        option { use D1 at DEC; use D2 at DEC; use U at 0; use V at 0;
                 use UALU at 0; use VALU at 0;
                 use WB[0] at WBT; use WB[1] at WBT; }
    }
    // Calls and returns issue alone and touch the stack cache port.
    ortree CallRetPipe {
        option { use D1 at DEC; use D2 at DEC; use U at 0; use V at 0;
                 use UALU at 0; use VALU at 0; use DC[0] at 0;
                 use WB[0] at WBT; use WB[1] at WBT; }
    }
    // Frame setup/teardown: alone, both cache ports for several moves.
    ortree FramePipe {
        option { use D1 at DEC; use D2 at DEC; use U at 0; use V at 0;
                 use UALU at 0; use VALU at 0; use DC[0] at 0;
                 use DC[1] at 0; use WB[0] at WBT; use WB[1] at WBT; }
    }
    // Multiply keeps the U ALU busy while it iterates.
    ortree MulPipe {
        option { use D1 at DEC; use D2 at DEC; use U at 0; use V at 0;
                 use VALU at 0; for t in 0 .. 3 { use UALU at t; }
                 use WB[0] at WBT; use WB[1] at WBT; }
    }
    // Divide keeps it busy much longer.
    ortree DivPipe {
        option { use D1 at DEC; use D2 at DEC; use U at 0; use V at 0;
                 use VALU at 0; for t in 0 .. 9 { use UALU at t; }
                 use WB[0] at WBT; use WB[1] at WBT; }
    }
    // Bundled compare+branch: models the resources of both operations
    // (the cmp pairs in U, the branch in V).
    ortree CmpBrPipe {
        option { use D1 at DEC; use D2 at DEC; use U at 0; use V at 0;
                 use UALU at 0; use VALU at 0;
                 use WB[0] at WBT; use WB[1] at WBT; }
    }

    // Unused leftover: an experimental FPU pairing table from when FXCH
    // scheduling was being prototyped. No operation references it.
    ortree FxchPipe {
        option { use D1 at DEC; use U at 0; use WB[0] at WBT; }
        option { use D2 at DEC; use V at 0; use WB[1] at WBT; }
    }
    table LegacyFxch = FxchPipe;

    table AdcSbb = AdcSbbPipe;
    table Unary  = UnaryAluPipe;
    table Cmp    = CmpPipe;
    table MovExt = MovExtPipe;
    table AluRM  = AluRMPipe;
    table Setcc  = SetccPipe;
    table CallRet = CallRetPipe;
    table Frame  = FramePipe;
    table MovRR  = MovRRPipe;
    table MovRM  = MovRMPipe;
    table MovMR  = MovMRPipe;
    table AluRR  = AluRRPipe;
    table AluRI  = AluRIPipe;
    table Lea    = LeaPipe;
    table Stack  = StackPipe;
    table Shift  = ShiftPipe;
    table Rot    = RotPipe;
    table Alone  = AlonePipe;
    table Mul    = MulPipe;
    table Div    = DivPipe;
    table CmpBr  = CmpBrPipe;

    operation MOV_RR { table MovRR; latency 1; note "Ops that can execute in either pipe"; }
    operation MOV_RM { table MovRM; latency 2; note "Ops that can execute in either pipe"; }
    operation MOV_MR { table MovMR; latency 1; note "Ops that can execute in either pipe"; }
    operation ALU_RR { table AluRR; latency 1; note "Ops that can execute in either pipe"; }
    operation ALU_RI { table AluRI; latency 1; note "Ops that can execute in either pipe"; }
    operation LEA    { table Lea; latency 1; note "Ops that can execute in either pipe"; }
    operation PUSH   { table Stack; latency 1; note "Ops that can execute in either pipe"; }
    operation POP    { table Stack; latency 2; note "Ops that can execute in either pipe"; }
    operation INC    { table AluRR; latency 1; note "Ops that can execute in either pipe"; }
    operation TEST   { table AluRR; latency 1; note "Ops that can execute in either pipe"; }

    operation SHL    { table Shift; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation SHR    { table Shift; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation ROL    { table Rot; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation XCHG   { table Alone; latency 2; note "Ops that can execute in only 1 pipe"; }
    operation CDQ    { table Alone; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation IMUL   { table Mul; latency 4; note "Ops that can execute in only 1 pipe"; }
    operation IDIV   { table Div; latency 10; note "Ops that can execute in only 1 pipe"; }
    operation MOVS   { table Alone; latency 2; note "Ops that can execute in only 1 pipe"; }

    operation ADC    { table AdcSbb; latency 1; note "Ops that can execute in either pipe"; }
    operation SBB    { table AdcSbb; latency 1; note "Ops that can execute in either pipe"; }
    operation NEG    { table Unary; latency 1; note "Ops that can execute in either pipe"; }
    operation NOT    { table Unary; latency 1; note "Ops that can execute in either pipe"; }
    operation CMP_RR { table Cmp; latency 1; note "Ops that can execute in either pipe"; }
    operation CMP_RI { table Cmp; latency 1; note "Ops that can execute in either pipe"; }
    operation MOVZX  { table MovExt; latency 1; note "Ops that can execute in either pipe"; }
    operation MOVSX  { table MovExt; latency 1; note "Ops that can execute in either pipe"; }
    operation ALU_RM { table AluRM; latency 2; note "Ops that can execute in either pipe"; }
    operation ALU_MR { table AluRM; latency 2; note "Ops that can execute in either pipe"; }

    operation SAR    { table Shift; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation RCL    { table Rot; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation SETCC  { table Setcc; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation CALL   { table CallRet; latency 1; note "Ops that can execute in only 1 pipe"; }
    operation RET    { table CallRet; latency 2; note "Ops that can execute in only 1 pipe"; }
    operation ENTER  { table Frame; latency 3; note "Ops that can execute in only 1 pipe"; }
    operation LEAVE  { table Frame; latency 2; note "Ops that can execute in only 1 pipe"; }
    operation LODS   { table Alone; latency 2; note "Ops that can execute in only 1 pipe"; }
    operation STOS   { table Alone; latency 2; note "Ops that can execute in only 1 pipe"; }
    operation CBW    { table Unary; latency 1; note "Ops that can execute in either pipe"; }

    operation CMP_BR { table CmpBr; latency 1; note "Ops that can execute in only 1 pipe"; }
}
)MDES";

MachineInfo
makeInfo()
{
    MachineInfo info;
    info.name = "Pentium";
    info.source = kSource;
    info.source_hash = fnv1a64(kSource);

    workload::WorkloadSpec &w = info.workload;
    w.seed = 0x5861996;
    w.num_ops = 207341; // paper: 207341 static Pentium operations
    w.num_regs = 8;     // postpass x86: architectural registers only
    w.min_block_size = 3;
    w.max_block_size = 9;
    w.src_locality = 0.45;
    w.classes = {
        {"CMP_BR", 1.0, 2, 0, false, true},
        {"MOV_RR", 9.0, 1, 1, false, false},
        {"MOV_RM", 13.0, 1, 1, false, false},
        {"MOV_MR", 8.0, 2, 0, false, false},
        {"ALU_RR", 12.0, 2, 1, false, false},
        {"ALU_RI", 10.0, 1, 1, false, false},
        {"LEA", 4.0, 1, 1, false, false},
        {"PUSH", 4.5, 1, 0, false, false},
        {"POP", 3.5, 0, 1, false, false},
        {"INC", 3.5, 1, 1, false, false},
        {"TEST", 3.0, 2, 0, false, false},
        {"SHL", 11.0, 1, 1, false, false},
        {"SHR", 7.0, 1, 1, false, false},
        {"ROL", 2.0, 1, 1, false, false},
        {"XCHG", 3.0, 2, 2, false, false},
        {"CDQ", 2.5, 1, 2, false, false},
        {"IMUL", 1.2, 2, 1, false, false},
        {"IDIV", 0.4, 2, 2, false, false},
        {"MOVS", 1.4, 2, 1, false, false},
        {"ADC", 1.5, 2, 1, false, false},
        {"SBB", 0.8, 2, 1, false, false},
        {"NEG", 1.0, 1, 1, false, false},
        {"NOT", 0.7, 1, 1, false, false},
        {"CMP_RR", 3.0, 2, 0, false, false},
        {"CMP_RI", 2.5, 1, 0, false, false},
        {"MOVZX", 1.5, 1, 1, false, false},
        {"MOVSX", 0.8, 1, 1, false, false},
        {"ALU_RM", 3.0, 2, 1, false, false},
        {"ALU_MR", 1.8, 2, 0, false, false},
        {"SAR", 2.5, 1, 1, false, false},
        {"RCL", 0.6, 1, 1, false, false},
        {"SETCC", 1.8, 0, 1, false, false},
        {"CALL", 2.2, 0, 0, false, false},
        {"RET", 1.8, 0, 0, false, false},
        {"ENTER", 0.4, 0, 1, false, false},
        {"LEAVE", 0.5, 0, 1, false, false},
        {"LODS", 0.4, 1, 1, false, false},
        {"STOS", 0.4, 2, 0, false, false},
        {"CBW", 0.6, 1, 1, false, false},
    };
    return info;
}

} // namespace

const MachineInfo &
pentium()
{
    static const MachineInfo info = makeInfo();
    return info;
}

} // namespace mdes::machines
