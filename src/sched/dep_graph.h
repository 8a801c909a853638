#ifndef MDES_SCHED_DEP_GRAPH_H
#define MDES_SCHED_DEP_GRAPH_H

/**
 * @file
 * Dependence-graph construction for one basic block.
 *
 * Edges:
 *  - RAW (flow): consumer no earlier than producer + producer latency.
 *    When the consumer is cascadable and the producer is a single-cycle
 *    operation, the edge may *relax to distance zero* provided the
 *    consumer is scheduled with its cascade reservation table (the
 *    SuperSPARC's cascaded-IALU feature; the paper selects the table
 *    "based on an operation's incoming dependence distances").
 *  - WAR (anti): writer no earlier than reader (distance 0).
 *  - WAW (output): writer no earlier than previous writer + 1.
 *  - Control: a block-terminating branch is kept last (distance 0 from
 *    every other operation).
 *
 * Layout: the graph is flat per-block storage that stops allocating once
 * it has seen its largest block. Edges are created in program order of
 * their successor (every edge made while visiting instruction i targets
 * i; the control edges target the branch, last), so a duplicate
 * (pred, succ) pair is found in O(1) by stamping each predecessor with
 * the instruction being visited. Adjacency is stored in compressed
 * sparse rows; register state lives in an epoch-stamped table indexed
 * by register id.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "lmdes/low_mdes.h"
#include "sched/ir.h"

namespace mdes::sched {

/** One dependence edge. */
struct DepEdge
{
    uint32_t pred = 0;
    uint32_t succ = 0;
    /** Minimum scheduled-cycle distance succ - pred. */
    int32_t min_dist = 0;
    /** RAW edge that shrinks to 0 when the successor cascades. */
    bool cascade_relax = false;
};

/** Per-instruction rows of edge indices in compressed sparse rows:
 * row u is items[offsets[u], offsets[u + 1]). */
class EdgeRows
{
  public:
    std::span<const uint32_t>
    operator[](size_t u) const
    {
        return {items_ + offsets_[u], items_ + offsets_[u + 1]};
    }

  private:
    friend class DepGraph;
    EdgeRows(const uint32_t *offsets, const uint32_t *items)
        : offsets_(offsets), items_(items)
    {
    }

    const uint32_t *offsets_;
    const uint32_t *items_;
};

/** The dependence graph of one basic block. */
class DepGraph
{
  public:
    /** Build the graph for @p block using latencies from @p low. */
    static DepGraph build(const Block &block, const lmdes::LowMdes &low);

    /**
     * Rebuild this graph for @p block in place, reusing all storage from
     * earlier builds. Schedulers keep one DepGraph per scheduler and
     * rebuild it per block (blocks are small, so allocations would
     * dominate a from-scratch build).
     */
    void rebuild(const Block &block, const lmdes::LowMdes &low);

    const std::vector<DepEdge> &edges() const { return edges_; }

    /** Edge indices entering each instruction, in edge order. Valid
     * until the next rebuild(). */
    EdgeRows
    predEdges() const
    {
        return {pred_offsets_.data(), edge_ids_.data()};
    }

    /** Edge indices leaving each instruction, in edge order. */
    EdgeRows
    succEdges() const
    {
        return {succ_offsets_.data(), succ_items_.data()};
    }

    /**
     * Critical-path priority of each instruction: the longest distance
     * (by min_dist, plus the op's own latency at the leaves) to any
     * graph sink. Higher schedules first.
     */
    const std::vector<int32_t> &priorities() const { return priorities_; }

  private:
    static constexpr uint32_t kNone = 0xFFFFFFFF;
    /** Register ids in [0, kDenseRegs) index the table directly (at
     * most 64 KiB of state); any other id - negative, or up to sasm's
     * 100000 and beyond - takes a per-block overflow entry. */
    static constexpr uint32_t kDenseRegs = 1u << 12;

    /** Last writer and readers-since-last-write of one register. The
     * readers are a list linked through reader_pool_, in read order. */
    struct RegState
    {
        uint32_t stamp = 0; // == block_epoch_ when live in this block
        uint32_t last_writer = kNone;
        uint32_t first_reader = kNone;
        uint32_t last_reader = kNone;
    };
    struct Reader
    {
        uint32_t instr;
        uint32_t next;
    };
    struct FarReg
    {
        int32_t reg;
        RegState state;
    };

    RegState &regState(int32_t r);
    RegState &farRegState(int32_t r);
    void addEdge(uint32_t pred, uint32_t succ, int32_t dist, bool relax);
    void fillSuccRows();

    std::vector<DepEdge> edges_;
    size_t rows_ = 0;
    std::vector<uint32_t> pred_offsets_;
    std::vector<uint32_t> edge_ids_; // 0, 1, 2, ...: the pred rows' items
    std::vector<uint32_t> succ_offsets_, succ_items_;
    std::vector<int32_t> priorities_;

    // Build scratch. One epoch counter stamps both tables: each rebuild
    // takes a block epoch for regs_, and each visited instruction takes
    // a fresh epoch that marks its predecessors in edge_stamp_.
    uint32_t epoch_ = 0;
    uint32_t block_epoch_ = 0;
    uint32_t visit_epoch_ = 0;
    std::vector<RegState> regs_;    // indexed by register id
    std::vector<FarReg> far_regs_;  // ids outside [0, kDenseRegs)
    std::vector<Reader> reader_pool_;
    std::vector<uint32_t> edge_stamp_; // per pred: visit epoch
    std::vector<uint32_t> edge_to_;    // per pred: edge into the visit
};

} // namespace mdes::sched

#endif // MDES_SCHED_DEP_GRAPH_H
