#include "sched/dep_graph.h"

#include <algorithm>
#include <limits>

namespace mdes::sched {

DepGraph
DepGraph::build(const Block &block, const lmdes::LowMdes &low)
{
    DepGraph g;
    g.rebuild(block, low);
    return g;
}

DepGraph::RegState &
DepGraph::farRegState(int32_t r)
{
    // Negative or very large ids are rare: a linear scan over the
    // block's few such registers keeps the table bounded.
    auto it = std::find_if(far_regs_.begin(), far_regs_.end(),
                           [r](const FarReg &f) { return f.reg == r; });
    if (it == far_regs_.end())
        it = far_regs_.insert(far_regs_.end(), FarReg{r, {}});
    return it->state;
}

inline DepGraph::RegState &
DepGraph::regState(int32_t r)
{
    RegState *st;
    if (uint32_t(r) < kDenseRegs) {
        if (uint32_t(r) >= regs_.size())
            regs_.resize(size_t(r) + 1);
        st = &regs_[size_t(r)];
    } else {
        st = &farRegState(r);
    }
    if (st->stamp != block_epoch_)
        *st = {block_epoch_, kNone, kNone, kNone};
    return *st;
}

void
DepGraph::addEdge(uint32_t pred, uint32_t succ, int32_t dist, bool relax)
{
    // An instruction never depends on itself (e.g. a double write to one
    // register, or reading a register it also writes).
    if (pred == succ)
        return;
    // Every edge of this visit targets `succ`, so a predecessor stamped
    // with the visit epoch already has its (pred, succ) edge. Keep only
    // the strongest edge per pair; a non-relaxable edge dominates a
    // relaxable one of equal length.
    if (edge_stamp_[pred] == visit_epoch_) {
        DepEdge &edge = edges_[edge_to_[pred]];
        if (dist > edge.min_dist) {
            edge.min_dist = dist;
            edge.cascade_relax = relax;
        } else if (dist == edge.min_dist && !relax) {
            edge.cascade_relax = false;
        }
        return;
    }
    edge_stamp_[pred] = visit_epoch_;
    edge_to_[pred] = uint32_t(edges_.size());
    edges_.push_back({pred, succ, dist, relax});
    ++succ_offsets_[pred + 1];
}

void
DepGraph::fillSuccRows()
{
    // addEdge counted each row into succ_offsets_[u + 1]; a stable
    // counting-sort fill keeps each row in edge order.
    for (size_t u = 0; u < rows_; ++u)
        succ_offsets_[u + 1] += succ_offsets_[u];
    succ_items_.resize(edges_.size());
    for (uint32_t i = 0; i < edges_.size(); ++i)
        succ_items_[succ_offsets_[edges_[i].pred]++] = i;
    // The fill advanced each row start to the next row's start.
    for (size_t u = rows_; u > 0; --u)
        succ_offsets_[u] = succ_offsets_[u - 1];
    succ_offsets_[0] = 0;
}

void
DepGraph::rebuild(const Block &block, const lmdes::LowMdes &low)
{
    const size_t n = block.instrs.size();
    rows_ = n;
    edges_.clear();
    far_regs_.clear();
    reader_pool_.clear();
    pred_offsets_.resize(n + 1);
    succ_offsets_.assign(n + 1, 0);
    if (edge_stamp_.size() < n) {
        edge_stamp_.resize(n, 0);
        edge_to_.resize(n);
    }
    // This build takes n + 1 epochs; restart the stamps before the
    // counter would wrap.
    if (uint64_t(epoch_) + n + 1 > std::numeric_limits<uint32_t>::max()) {
        for (RegState &st : regs_)
            st.stamp = 0;
        std::fill(edge_stamp_.begin(), edge_stamp_.end(), 0);
        epoch_ = 0;
    }
    block_epoch_ = ++epoch_;

    for (uint32_t i = 0; i < n; ++i) {
        visit_epoch_ = ++epoch_;
        pred_offsets_[i] = uint32_t(edges_.size());
        const Instr &in = block.instrs[i];
        for (int32_t r : in.srcs) {
            RegState &st = regState(r);
            if (st.last_writer != kNone) {
                const Instr &producer = block.instrs[st.last_writer];
                int32_t lat =
                    low.flowLatency(producer.op_class, in.op_class);
                bool relax = in.cascadable && lat == 1;
                addEdge(st.last_writer, i, lat, relax);
            }
            uint32_t link = uint32_t(reader_pool_.size());
            reader_pool_.push_back({i, kNone});
            if (st.last_reader == kNone)
                st.first_reader = link;
            else
                reader_pool_[st.last_reader].next = link;
            st.last_reader = link;
        }
        for (int32_t r : in.dsts) {
            RegState &st = regState(r);
            if (st.last_writer != kNone)
                addEdge(st.last_writer, i, 1, false); // WAW
            for (uint32_t k = st.first_reader; k != kNone;
                 k = reader_pool_[k].next)
                addEdge(reader_pool_[k].instr, i, 0, false); // WAR
            st.first_reader = st.last_reader = kNone;
            st.last_writer = i;
        }
    }

    // Control: the terminating branch issues no earlier than anything.
    // These edges target the last instruction, whose visit epoch is
    // still current, so they merge with its data edges.
    if (n > 0 && block.instrs[n - 1].is_branch) {
        for (uint32_t i = 0; i + 1 < n; ++i)
            addEdge(i, uint32_t(n - 1), 0, false);
    }

    // Edges were created in successor order, so instruction u's
    // incoming edges are the index range [pred_offsets_[u],
    // pred_offsets_[u + 1]) and the pred rows index an identity table.
    const uint32_t num_edges = uint32_t(edges_.size());
    pred_offsets_[n] = num_edges;
    for (uint32_t e = uint32_t(edge_ids_.size()); e < num_edges; ++e)
        edge_ids_.push_back(e);
    fillSuccRows();

    // Critical-path priorities, computed backwards (the IR is a DAG in
    // program order, so a reverse scan sees all successors first).
    priorities_.assign(n, 0);
    const EdgeRows succ = succEdges();
    for (size_t i = n; i > 0; --i) {
        uint32_t u = uint32_t(i - 1);
        int32_t h = low.opClasses()[block.instrs[u].op_class].latency;
        for (uint32_t e : succ[u]) {
            const DepEdge &edge = edges_[e];
            h = std::max(h, edge.min_dist + priorities_[edge.succ]);
        }
        priorities_[u] = h;
    }
}

} // namespace mdes::sched
