#include "sched/modulo_scheduler.h"

#include "sched/pressure.h"

#include <algorithm>
#include <map>

#include "support/diagnostics.h"
#include "support/trace.h"

namespace mdes::sched {

LoopDepGraph
LoopDepGraph::build(const Block &body, const lmdes::LowMdes &low)
{
    LoopDepGraph g;
    const size_t n = body.instrs.size();

    auto addEdge = [&](uint32_t pred, uint32_t succ, int32_t latency,
                       int32_t omega) {
        if (pred == succ && omega == 0)
            return;
        g.edges_.push_back({pred, succ, latency, omega});
    };

    // Per-register bookkeeping over one iteration of the body.
    std::map<int32_t, std::vector<uint32_t>> writers, readers;
    for (uint32_t i = 0; i < n; ++i) {
        for (int32_t r : body.instrs[i].srcs)
            readers[r].push_back(i);
        for (int32_t r : body.instrs[i].dsts)
            writers[r].push_back(i);
    }
    auto flowLat = [&](uint32_t producer, uint32_t consumer) {
        return low.flowLatency(body.instrs[producer].op_class,
                               body.instrs[consumer].op_class);
    };

    for (const auto &[reg, ws] : writers) {
        const auto &rs = readers.count(reg) ? readers.at(reg)
                                            : std::vector<uint32_t>{};
        // Intra-iteration RAW: each read from the nearest earlier write.
        for (uint32_t read : rs) {
            uint32_t best = UINT32_MAX;
            for (uint32_t w : ws) {
                if (w < read)
                    best = w;
            }
            if (best != UINT32_MAX)
                addEdge(best, read, flowLat(best, read), 0);
        }
        // Loop-carried RAW: reads at or before the last write consume
        // the previous iteration's value.
        uint32_t last_w = ws.back();
        for (uint32_t read : rs) {
            if (read <= last_w)
                addEdge(last_w, read, flowLat(last_w, read), 1);
        }
        // WAR: a write must not overtake this iteration's earlier reads
        // (omega 0) and the next write must wait for this iteration's
        // later reads (omega 1).
        uint32_t first_w = ws.front();
        for (uint32_t read : rs) {
            uint32_t next_w = UINT32_MAX;
            for (uint32_t w : ws) {
                if (w > read) {
                    next_w = w;
                    break;
                }
            }
            if (next_w != UINT32_MAX)
                addEdge(read, next_w, 0, 0);
            else
                addEdge(read, first_w, 0, 1);
        }
        // WAW within and across iterations.
        for (size_t k = 0; k + 1 < ws.size(); ++k)
            addEdge(ws[k], ws[k + 1], 1, 0);
        addEdge(last_w, first_w, 1, 1);
    }
    return g;
}

int32_t
ModuloScheduler::resMii(const Block &body) const
{
    // The per-iteration resource demand bound is exactly the
    // resource-pressure analysis other MDES clients use; see
    // sched/pressure.h for the demand definition.
    return std::max(analyzePressure(body, low_).resource_bound, 1);
}

int32_t
ModuloScheduler::recMii(const Block &body, const LoopDepGraph &graph,
                        int32_t max_ii) const
{
    const size_t n = body.instrs.size();
    // Smallest II such that no dependence cycle has positive total
    // weight under edge weight (latency - II*omega): checked with
    // Bellman-Ford-style longest-path relaxation; still relaxing after
    // n rounds means a positive cycle exists.
    auto feasible = [&](int32_t ii) {
        std::vector<int64_t> dist(n, 0);
        for (size_t round = 0; round <= n; ++round) {
            bool changed = false;
            for (const auto &e : graph.edges()) {
                int64_t w = int64_t(e.latency) - int64_t(ii) * e.omega;
                if (dist[e.pred] + w > dist[e.succ]) {
                    dist[e.succ] = dist[e.pred] + w;
                    changed = true;
                }
            }
            if (!changed)
                return true;
        }
        return false;
    };
    int32_t lo = 1, hi = max_ii;
    if (feasible(lo))
        return lo;
    while (lo < hi) {
        int32_t mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

ModuloSchedule
ModuloScheduler::schedule(const Block &body, SchedStats &stats,
                          int32_t max_ii, int budget_ratio)
{
    const size_t n = body.instrs.size();
    ModuloSchedule result;
    LoopDepGraph graph = LoopDepGraph::build(body, low_);
    result.res_mii = resMii(body);
    result.rec_mii = recMii(body, graph, max_ii);
    if (n == 0) {
        result.success = true;
        result.ii = 1;
        return result;
    }

    // Probe hook: per-op attempt counts across every II tried, live only
    // under an active span (see SchedStats::attempts_per_op).
    trace::ScopedSpan span("sched/modulo");
    std::vector<uint32_t> op_attempts;
    if (span.active())
        op_attempts.assign(n, 0);
    stats.checks.sizeFor(low_);

    std::vector<std::vector<uint32_t>> pred_edges(n), succ_edges(n);
    for (uint32_t e = 0; e < graph.edges().size(); ++e) {
        pred_edges[graph.edges()[e].succ].push_back(e);
        succ_edges[graph.edges()[e].pred].push_back(e);
    }

    constexpr int32_t kUnscheduled = INT32_MIN;

    for (int32_t ii = std::max(result.res_mii, result.rec_mii);
         ii <= max_ii; ++ii) {
        const int32_t words = int32_t(low_.slotWords());
        rumap::RuMap ru(ii * words); // modulo over whole cycles
        std::vector<int32_t> times(n, kUnscheduled);
        std::vector<int32_t> prev_time(n, kUnscheduled);
        std::vector<std::vector<rumap::Reservation>> reservations(n);

        // Height priority under this II (converges: recMii <= ii).
        std::vector<int64_t> height(n, 0);
        for (size_t round = 0; round <= n; ++round) {
            bool changed = false;
            for (const auto &e : graph.edges()) {
                int64_t h = height[e.succ] + e.latency -
                            int64_t(ii) * e.omega;
                if (h > height[e.pred]) {
                    height[e.pred] = h;
                    changed = true;
                }
            }
            if (!changed)
                break;
        }

        auto nextOp = [&]() -> uint32_t {
            uint32_t best = kInvalidId;
            for (uint32_t u = 0; u < n; ++u) {
                if (times[u] != kUnscheduled)
                    continue;
                if (best == kInvalidId || height[u] > height[best])
                    best = u;
            }
            return best;
        };

        auto unschedule = [&](uint32_t u) {
            // Reservation cycles are already map-normalized slots.
            for (const auto &r : reservations[u])
                ru.releaseSlot(r.cycle, r.mask);
            reservations[u].clear();
            times[u] = kUnscheduled;
            ++result.evictions;
        };

        int64_t budget = int64_t(budget_ratio) * int64_t(n);
        bool ok = true;
        for (;;) {
            uint32_t u = nextOp();
            if (u == kInvalidId)
                break; // everything placed
            if (--budget < 0) {
                ok = false;
                break;
            }
            const auto &cls = low_.opClasses()[body.instrs[u].op_class];

            int32_t estart = 0;
            for (uint32_t e : pred_edges[u]) {
                const LoopEdge &edge = graph.edges()[e];
                if (edge.succ != u || times[edge.pred] == kUnscheduled)
                    continue;
                estart = std::max(estart, times[edge.pred] +
                                              edge.latency -
                                              ii * edge.omega);
            }

            bool placed = false;
            for (int32_t t = estart; t < estart + ii && !placed; ++t) {
                if (span.active())
                    ++op_attempts[u];
                if (checker_.tryReserve(cls.tree, t, ru, stats.checks,
                                        nullptr, &reservations[u])) {
                    times[u] = t;
                    placed = true;
                }
            }
            if (!placed) {
                // Force placement, displacing whatever conflicts: first
                // choice combination (highest-priority option of every
                // OR subtree), as the reservation-table unscheduling the
                // paper describes.
                int32_t t_force =
                    (prev_time[u] == kUnscheduled ||
                     estart > prev_time[u])
                        ? estart
                        : prev_time[u] + 1;
                std::vector<rumap::Reservation> needed;
                const lmdes::LowTree &tree = low_.trees()[cls.tree];
                for (uint32_t s = 0; s < tree.num_or_trees; ++s) {
                    const lmdes::LowOrTree &ot =
                        low_.orTrees()
                            [low_.orRefs()[tree.first_or_ref + s]];
                    const lmdes::LowOption &opt =
                        low_.options()
                            [low_.optionRefs()[ot.first_option_ref]];
                    for (uint32_t c = 0; c < opt.num_checks; ++c) {
                        const lmdes::Check &check =
                            low_.checks()[opt.first_check + c];
                        needed.push_back(
                            {ru.normalize(t_force * words + check.slot),
                             check.mask});
                    }
                }
                // If the combination conflicts with itself at this II
                // (two usages landing on the same modulo slot and
                // resource), the operation cannot execute at this II at
                // all - abandon it and move to the next II.
                bool self_conflict = false;
                for (size_t x = 0; x < needed.size(); ++x) {
                    for (size_t y = x + 1; y < needed.size(); ++y) {
                        self_conflict |=
                            needed[x].cycle == needed[y].cycle &&
                            (needed[x].mask & needed[y].mask) != 0;
                    }
                }
                if (self_conflict) {
                    ok = false;
                    break;
                }
                for (uint32_t v = 0; v < n; ++v) {
                    if (v == u || times[v] == kUnscheduled)
                        continue;
                    bool conflicts = false;
                    for (const auto &rv : reservations[v]) {
                        for (const auto &rn : needed) {
                            conflicts |= rv.cycle == rn.cycle &&
                                         (rv.mask & rn.mask) != 0;
                        }
                    }
                    if (conflicts)
                        unschedule(v);
                }
                for (const auto &rn : needed)
                    ru.reserveSlot(rn.cycle, rn.mask);
                reservations[u] = needed;
                times[u] = t_force;
            }
            prev_time[u] = times[u];

            // Displace scheduled successors whose dependence from u is
            // now violated (they will be rescheduled later).
            for (uint32_t e : succ_edges[u]) {
                const LoopEdge &edge = graph.edges()[e];
                uint32_t v = edge.succ;
                if (v == u || times[v] == kUnscheduled)
                    continue;
                if (times[v] <
                    times[u] + edge.latency - ii * edge.omega) {
                    unschedule(v);
                }
            }
        }

        if (ok) {
            result.success = true;
            result.ii = ii;
            result.times = std::move(times);
            result.reservations = std::move(reservations);
            // Normalize so the earliest time is zero.
            int32_t min_t = *std::min_element(result.times.begin(),
                                              result.times.end());
            for (auto &t : result.times)
                t -= min_t;
            stats.ops_scheduled += n;
            stats.total_schedule_length += uint64_t(ii);
            if (span.active()) {
                for (uint32_t a : op_attempts)
                    stats.attempts_per_op.add(a);
                span.counter("ops", n);
                span.counter("ii", uint64_t(ii));
                span.counter("res_mii", uint64_t(result.res_mii));
                span.counter("rec_mii", uint64_t(result.rec_mii));
                span.counter("evictions", result.evictions);
            }
            return result;
        }
    }
    return result; // success == false: no II within max_ii worked
}

std::string
verifyModuloSchedule(const Block &body, const LoopDepGraph &graph,
                     const ModuloSchedule &sched)
{
    if (!sched.success)
        return "schedule did not succeed";
    const size_t n = body.instrs.size();
    if (sched.times.size() != n || sched.reservations.size() != n)
        return "schedule size mismatch";
    if (sched.ii < std::max(sched.res_mii, sched.rec_mii))
        return "II below its lower bounds";

    for (const auto &e : graph.edges()) {
        if (sched.times[e.succ] - sched.times[e.pred] <
            e.latency - sched.ii * e.omega) {
            return "dependence violated between operations " +
                   std::to_string(e.pred) + " and " +
                   std::to_string(e.succ);
        }
    }
    // No two operations may collide in the modulo reservation table.
    for (uint32_t a = 0; a < n; ++a) {
        for (uint32_t b = a + 1; b < n; ++b) {
            for (const auto &ra : sched.reservations[a]) {
                for (const auto &rb : sched.reservations[b]) {
                    if (ra.cycle == rb.cycle &&
                        (ra.mask & rb.mask) != 0) {
                        return "modulo resource collision between "
                               "operations " +
                               std::to_string(a) + " and " +
                               std::to_string(b);
                    }
                }
            }
        }
    }
    return "";
}

} // namespace mdes::sched
