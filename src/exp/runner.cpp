#include "exp/runner.h"

#include <new>

#include "core/expand.h"
#include "hmdes/compile.h"
#include "support/diagnostics.h"
#include "support/faultsim.h"
#include "support/trace.h"
#include "workload/workload.h"

namespace mdes::exp {

const char *
repName(Rep rep)
{
    return rep == Rep::OrTree ? "OR-tree" : "AND/OR-tree";
}

Mdes
compileMachine(const machines::MachineInfo &machine)
{
    return hmdes::compileOrThrow(machine.source);
}

Mdes
buildModel(const RunConfig &config)
{
    Mdes model = compileMachine(*config.machine);
    if (config.rep == Rep::OrTree)
        model = expandToOrForm(model);
    runPipeline(model, config.transforms);
    return model;
}

lmdes::LowMdes
compileSourceToLow(std::string_view source,
                   const PipelineConfig &transforms, bool bit_vector,
                   Rep rep, PipelineStats *pipeline_stats,
                   bool *degraded, const std::function<bool()> &cancel)
{
    Mdes model;
    {
        trace::ScopedSpan span("compile/hmdes");
        model = hmdes::compileOrThrow(source);
        span.label("machine", model.name());
    }
    if (rep == Rep::OrTree)
        model = expandToOrForm(model);
    PipelineStats stats;
    try {
        stats = runPipeline(model, transforms, cancel);
    } catch (const CancelledError &) {
        throw;
    } catch (const std::exception &e) {
        if (!degraded)
            throw;
        // Graceful degradation: a transform pass is an optimization, not
        // a requirement - every transform preserves scheduling semantics
        // (the Section 4 invariant), so the untransformed description is
        // a correct, merely slower, substitute. A pass may have left the
        // model half-rewritten, so recompile the source from scratch.
        trace::ScopedSpan span("compile/degraded");
        span.label("cause", e.what());
        model = hmdes::compileOrThrow(source);
        if (rep == Rep::OrTree)
            model = expandToOrForm(model);
        stats = PipelineStats{};
        *degraded = true;
    }
    if (pipeline_stats)
        *pipeline_stats = stats;
    trace::ScopedSpan span("compile/lower");
    if (faultsim::probe(faultsim::Site::CompileAllocFail).fired)
        throw std::bad_alloc();
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = bit_vector;
    lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);
    span.counter("checks", low.checks().size());
    return low;
}

RunResult
run(const RunConfig &config)
{
    RunResult result;
    result.mid = compileMachine(*config.machine);
    if (config.rep == Rep::OrTree)
        result.mid = expandToOrForm(result.mid);
    result.pipeline = runPipeline(result.mid, config.transforms);

    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = config.bit_vector;
    lopts.prefilter = config.prefilter;
    result.low = lmdes::LowMdes::lower(result.mid, lopts);
    result.memory = result.low.memory();

    if (config.schedule) {
        workload::WorkloadSpec spec = config.machine->workload;
        if (config.num_ops_override != 0)
            spec.num_ops = config.num_ops_override;
        sched::Program program = workload::generate(spec, result.low);
        sched::ListScheduler scheduler(result.low);
        result.schedules =
            scheduler.scheduleProgram(program, result.stats);
    }
    return result;
}

RunConfig
originalConfig(const machines::MachineInfo &machine, Rep rep)
{
    RunConfig config;
    config.machine = &machine;
    config.rep = rep;
    config.transforms = PipelineConfig::none();
    config.bit_vector = false;
    return config;
}

RunConfig
optimizedConfig(const machines::MachineInfo &machine, Rep rep)
{
    RunConfig config;
    config.machine = &machine;
    config.rep = rep;
    config.transforms = PipelineConfig::all();
    config.bit_vector = true;
    return config;
}

} // namespace mdes::exp
