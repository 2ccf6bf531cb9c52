/**
 * @file
 * FlowService implementation.
 *
 * Each verb is one straight-line function that fills its response
 * stage by stage and returns early on the first failure, so every
 * stage that did complete stays in the response. The async and batch
 * paths run the same function as one scheduler task per request:
 * the promise-backed `StageCaches` dedupe identical in-flight work
 * whatever the task shape, so splitting a request into µs-scale
 * stage tasks would only add hand-offs.
 */

#include "flow/flow.hh"

#include "core/rissp.hh"
#include "serv/serv_model.hh"
#include "store/disk_store.hh"
#include "util/logging.hh"
#include "workloads/workloads.hh"

namespace rissp::flow
{

namespace
{

void
fillCompileStage(CompileStage &stage,
                 const minic::CompileResult &compiled,
                 minic::OptLevel opt)
{
    stage.run = true;
    stage.opt = opt;
    stage.staticInstructions = compiled.staticInstructions();
    stage.textBytes = compiled.program.textSize;
    stage.helpers.assign(compiled.helpers.begin(),
                         compiled.helpers.end());
}

/** Execute @p program on a RISSP implementing @p subset. */
ExecStage
execute(const InstrSubset &subset, const Program &program,
        uint64_t max_steps)
{
    Rissp chip(subset, "RISSP");
    chip.reset(program);
    const RunResult run = chip.run(max_steps);
    ExecStage exec;
    exec.run = true;
    exec.reason = run.reason;
    exec.stopPc = run.stopPc;
    exec.cycles = run.instret;
    exec.exitCode = run.exitCode;
    exec.outputWords = chip.outputWords();
    exec.outputText = chip.outputText();
    return exec;
}

} // namespace

const Status &
responseStatus(const Response &response)
{
    return std::visit(
        [](const auto &r) -> const Status & { return r.status; },
        response);
}

FlowService::FlowService(std::shared_ptr<StageCaches> caches,
                         unsigned scheduler_threads)
    : stageCaches(caches ? std::move(caches)
                         : std::make_shared<StageCaches>()),
      schedulerThreads(scheduler_threads)
{
}

FlowService::FlowService(const ServiceOptions &options,
                         std::shared_ptr<StageCaches> caches)
    : FlowService(std::move(caches), options.schedulerThreads)
{
    std::shared_ptr<store::ArtifactStore> artifacts =
        options.artifacts;
    if (!artifacts && !options.cacheDir.empty()) {
        Result<std::shared_ptr<store::DiskStore>> opened =
            store::DiskStore::open(options.cacheDir);
        if (opened.isOk())
            artifacts = opened.take();
        else
            warn("flow: persistent cache disabled: %s",
                 opened.status().toString().c_str());
    }
    if (artifacts && !stageCaches->artifacts)
        stageCaches->artifacts = std::move(artifacts);
}

exec::Scheduler &
FlowService::scheduler() const
{
    std::call_once(schedulerOnce, [this] {
        stageScheduler =
            std::make_unique<exec::Scheduler>(schedulerThreads);
    });
    return *stageScheduler;
}

Result<minic::CompileResult>
FlowService::compileSource(const SourceRef &source,
                           minic::OptLevel opt,
                           const minic::MachineOptions &machine) const
{
    const std::string *text = &source.text;
    const std::string *label = &source.label;
    if (!source.workload.empty()) {
        const Workload *wl = findWorkload(source.workload);
        if (!wl)
            return Status::errorf(ErrorCode::NotFound,
                                  "unknown workload '%s'",
                                  source.workload.c_str());
        text = &wl->source;
        label = &wl->name;
    }
    const uint64_t key =
        sourceKey(*label, *text, opt, machine.customMul);
    return stageCaches->compileLookup(key, [&] {
        return minic::tryCompile(*text, opt, machine);
    });
}

// --------------------------------------------------- characterize

CharacterizeResponse
FlowService::characterize(const CharacterizeRequest &request) const
{
    CharacterizeResponse response;
    const Result<minic::CompileResult> compiled =
        compileSource(request.source, request.opt, request.machine);
    if (!compiled) {
        response.status = compiled.status();
        return response;
    }
    fillCompileStage(response.compile, compiled.value(),
                     request.opt);
    response.subset.run = true;
    response.subset.subset =
        InstrSubset::fromProgram(compiled.value().program);
    return response;
}

// ------------------------------------------------------------ run

RunResponse
FlowService::run(const RunRequest &request) const
{
    RunResponse response;
    const Result<minic::CompileResult> compiled =
        compileSource(request.source, request.opt);
    if (!compiled) {
        response.status = compiled.status();
        return response;
    }
    const Program &program = compiled.value().program;
    fillCompileStage(response.compile, compiled.value(), request.opt);
    response.subset.run = true;
    response.subset.subset = request.subsetOverride
        ? *request.subsetOverride
        : InstrSubset::fromProgram(program);

    response.exec =
        execute(response.subset.subset, program, request.maxSteps);
    const ExecStage &exec = response.exec;
    if (exec.reason == StopReason::Trapped) {
        response.status = Status::errorf(
            ErrorCode::Trap,
            "trapped at pc=0x%x: instruction outside the subset",
            exec.stopPc);
        return response;
    }
    if (exec.reason == StopReason::StepLimit) {
        response.status = Status::errorf(
            ErrorCode::StepLimit,
            "step limit of %llu cycles reached at pc=0x%x",
            static_cast<unsigned long long>(request.maxSteps),
            exec.stopPc);
        return response;
    }
    if (!request.verify)
        return response;

    // cosimulate() re-executes DUT and reference from reset, like
    // the Figure 4 flow it mirrors; it runs only on a halted exec.
    // Taking the exec stage from the cosim pass would save little:
    // the plain run is ~1/10 of the cosim's cost, and a run that
    // traps or hits the step limit is never verified.
    CosimOptions options;
    options.maxSteps = request.maxSteps;
    options.fault = request.injectFault ? &*request.injectFault
                                        : nullptr;
    const CosimReport cosim =
        cosimulate(program, response.subset.subset, options);
    CosimStage &stage = response.cosim;
    stage.run = true;
    stage.passed = cosim.passed;
    stage.instret = cosim.instret;
    stage.rvfiEventsChecked = cosim.monitor.eventsChecked;
    stage.firstDivergence = cosim.firstDivergence;
    if (!cosim.passed) {
        response.status = Status::error(
            ErrorCode::CosimMismatch,
            "co-simulation diverged: " + cosim.firstDivergence);
    }
    return response;
}

// ---------------------------------------------------------- synth

SynthResponse
FlowService::synth(const SynthRequest &request) const
{
    SynthResponse response;
    response.subset.run = true;
    if (request.subsetOverride) {
        response.subset.subset = *request.subsetOverride;
    } else {
        const Result<minic::CompileResult> compiled =
            compileSource(request.source, request.opt);
        if (!compiled) {
            response.status = compiled.status();
            return response;
        }
        fillCompileStage(response.compile, compiled.value(),
                         request.opt);
        response.subset.subset =
            InstrSubset::fromProgram(compiled.value().program);
    }

    const Technology &tech = request.tech.tech;
    const InstrSubset &subset = response.subset.subset;
    Result<SynthReport> app = stageCaches->synthReportLookup(
        synthReportKey(request.name,
                       explore::subsetFingerprint(subset),
                       explore::techFingerprint(tech)),
        [&] {
            return SynthesisModel(tech).trySynthesize(subset,
                                                      request.name);
        });
    if (!app) {
        response.status = app.status();
        return response;
    }
    SynthStage &synth = response.synth;
    synth.run = true;
    synth.tech = tech.name;
    // The lookup returns a detached copy of the cache entry: move
    // the sweep vectors out.
    synth.app = app.take();

    if (request.baselines) {
        const InstrSubset full = InstrSubset::fullRv32e();
        Result<SynthReport> fullIsa = stageCaches->synthReportLookup(
            synthReportKey("RISSP-RV32E",
                           explore::subsetFingerprint(full),
                           explore::techFingerprint(tech)),
            [&] {
                return SynthesisModel(tech).trySynthesize(
                    full, "RISSP-RV32E");
            });
        if (!fullIsa) {
            // The corner is so hostile even the baseline fails; the
            // app numbers above still stand.
            response.status = fullIsa.status();
            return response;
        }
        synth.baselinesRun = true;
        synth.fullIsa = fullIsa.take();
        synth.serv = ServModel(tech).synthReport();
    }

    if (request.physical) {
        response.phys.run = true;
        response.phys.report =
            PhysicalModel(tech).implement(synth.app, request.rfStyle);
    }
    return response;
}

// ------------------------------------------------------- retarget

RetargetResponse
FlowService::retarget(const RetargetRequest &request) const
{
    RetargetResponse response;
    const Result<minic::CompileResult> compiled =
        compileSource(request.source, request.opt);
    if (!compiled) {
        response.status = compiled.status();
        return response;
    }
    const Program &program = compiled.value().program;
    fillCompileStage(response.compile, compiled.value(), request.opt);

    const InstrSubset target =
        request.target ? *request.target : Retargeter::minimalSubset();
    const Status valid = Retargeter::validateTarget(target);
    if (!valid) {
        response.status = valid;
        return response;
    }
    response.retarget.run = true;
    response.retarget.result = Retargeter(target).retarget(program);
    const RetargetResult &result = response.retarget.result;
    if (!result.ok) {
        response.status =
            Status::error(ErrorCode::RetargetError, result.error);
        return response;
    }
    if (!request.verifyEquivalence)
        return response;

    RefSim golden;
    golden.reset(program);
    const RunResult want = golden.run(request.maxSteps);
    Rissp chip(target, "retarget-dut");
    chip.reset(result.program);
    const RunResult got = chip.run(request.maxSteps);

    EquivalenceStage &eq = response.equivalence;
    eq.run = true;
    eq.refReason = want.reason;
    eq.dutReason = got.reason;
    eq.refExit = want.exitCode;
    eq.dutExit = got.exitCode;
    eq.matched = want.reason == got.reason &&
        want.exitCode == got.exitCode &&
        golden.outputWords() == chip.outputWords();
    if (!eq.matched) {
        response.status = Status::error(
            ErrorCode::CosimMismatch,
            "retargeted program diverges from the original");
    }
    return response;
}

// -------------------------------------------------------- explore

ExploreResponse
FlowService::explore(const ExploreRequest &request) const
{
    ExploreResponse response;
    if (request.plan) {
        response.plan = *request.plan;
    } else {
        Result<explore::ExplorationPlan> parsed =
            explore::ExplorationPlan::parse(request.planText);
        if (!parsed) {
            response.status = parsed.status();
            return response;
        }
        response.plan = parsed.take();
    }
    const Status valid = response.plan.validate();
    if (!valid) {
        response.status = valid;
        return response;
    }

    explore::Explorer explorer(request.options, stageCaches);
    response.table = explorer.explore(response.plan);
    response.stats = explorer.stats();
    return response;
}

// -------------------------------------------------- async / batch

Response
FlowService::dispatch(const Request &request) const
{
    return std::visit(
        [this](const auto &r) -> Response {
            using R = std::decay_t<decltype(r)>;
            if constexpr (std::is_same_v<R, CharacterizeRequest>)
                return characterize(r);
            else if constexpr (std::is_same_v<R, RunRequest>)
                return run(r);
            else if constexpr (std::is_same_v<R, SynthRequest>)
                return synth(r);
            else if constexpr (std::is_same_v<R, RetargetRequest>)
                return retarget(r);
            else
                return explore(r);
        },
        request);
}

std::future<Response>
FlowService::submitAsync(Request request) const
{
    auto promise = std::make_shared<std::promise<Response>>();
    std::future<Response> future = promise->get_future();
    scheduler().submit(
        [this, promise, request = std::move(request)] {
            try {
                promise->set_value(dispatch(request));
            } catch (...) {
                promise->set_exception(std::current_exception());
            }
        },
        {}, "flow:request");
    return future;
}

std::vector<Response>
FlowService::runBatch(const std::vector<Request> &requests) const
{
    std::vector<std::future<Response>> futures;
    futures.reserve(requests.size());
    for (const Request &request : requests)
        futures.push_back(submitAsync(request));
    std::vector<Response> responses;
    responses.reserve(futures.size());
    for (std::future<Response> &future : futures)
        responses.push_back(future.get());
    return responses;
}

explore::ExplorerStats
FlowService::stats() const
{
    explore::ExplorerStats s;
    s.compileHits = stageCaches->compile.hits();
    s.compileMisses = stageCaches->compile.misses();
    s.simHits = stageCaches->sim.hits();
    s.simMisses = stageCaches->sim.misses();
    s.synthHits = stageCaches->synth.hits();
    s.synthMisses = stageCaches->synth.misses();
    return s;
}

} // namespace rissp::flow
