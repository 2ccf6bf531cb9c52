/**
 * @file
 * app_flow: the paper's per-application generation plus the §5
 * update, on cold caches. One caller thread walks a seeded order over
 * every bundled workload. A pass walks that order kGenerateRepeats
 * times; each walk runs characterize → run (verify) → synth (baselines
 * + P&R) per app, each on a fresh FlowService, and the last walk then
 * runs retarget (minimal subset, equivalence on) on the app's service.
 * Passes are always whole, so the percentiles cover the same
 * 25 apps whatever the seed. They are taken over each app's fastest
 * repeat (AppFlowResult::fastest).
 *
 * The traced run then replays each app through the layers' public
 * calls in service order, checks the replay against the verbs'
 * responses, and charges what the layer spans do not cover to
 * `flow.overhead_ms`.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <sched.h>
#include <set>

#include "compiler/driver.hh"
#include "core/rissp.hh"
#include "physimpl/physical.hh"
#include "phases.hh"
#include "retarget/retargeter.hh"
#include "serv/serv_model.hh"
#include "sim/refsim.hh"
#include "synth/synthesis.hh"
#include "trace.hh"
#include "verify/integration_verify.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace rissp;

namespace
{

constexpr uint64_t kMaxSteps = 2'000'000'000ull; // the verbs' default

/** Generate runs per app per pass. A pass is mostly retarget, so four
 *  generate samples per pass cost little, and the fastest of more
 *  samples moves less with the host's other load. A pass walks the
 *  apps once per repeat, so an app's repeats lie ~1 s apart rather
 *  than back to back, and one burst of load slows at most one of
 *  them. */
constexpr size_t kGenerateRepeats = 4;

/** Moves the calling thread from CPU to CPU, and gives it back its
 *  original CPU set when destroyed. A single caller thread otherwise
 *  stays on one vCPU, and while another tenant of the host loads that
 *  vCPU's core, every repeat on it is slow: on 4 vCPUs that made whole
 *  runs 30-50 % slower with every repeat equally slow. With the repeats
 *  of an app spread over the vCPUs, its fastest repeat finds an
 *  undisturbed one. */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original);
        if (sched_getaffinity(0, sizeof original, &original) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &original))
                    cpus.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (!cpus.empty())
            sched_setaffinity(0, sizeof original, &original);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Run on the (@p slot mod n)-th of the n original CPUs. */
    void
    pin(size_t slot) const
    {
        if (cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[slot % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original;
    std::vector<int> cpus;
};

/** The per-pass layer counts and overhead the replay accumulates. */
struct ReplayTotals
{
    uint64_t apps = 0;
    uint64_t execInstret = 0;
    uint64_t cosimInstret = 0;
    uint64_t rvfiEvents = 0;
    uint64_t sweepPoints = 0;
    uint64_t macros = 0;
    uint64_t attempts = 0;
    double verbMs = 0;  ///< the four verbs, wall time
    double layerMs = 0; ///< the replayed layer calls, wall time
};

bool
sameImage(const Program &a, const Program &b)
{
    if (a.entry != b.entry || a.textBase != b.textBase ||
        a.textSize != b.textSize || a.segments.size() != b.segments.size())
        return false;
    for (size_t i = 0; i < a.segments.size(); ++i)
        if (a.segments[i].base != b.segments[i].base ||
            a.segments[i].bytes != b.segments[i].bytes)
            return false;
    return true;
}

/** Replay one app through the layers, in the order the verbs run
 *  them, and check the replay reproduces the verbs' answers. */
void
replayApp(const std::string &app, const flow::CharacterizeResponse &ch,
          const flow::RunResponse &run, const flow::SynthResponse &syn,
          const flow::RetargetResponse &ret, ReplayTotals &totals,
          Outcome &out)
{
    const rissp::Workload &workload = workloadByName(app);
    double layerMs = 0;

    std::set<std::string> helpers;
    std::string appAsm;
    {
        Span span("compiler.to_asm");
        appAsm = minic::compileToAsm(workload.source, minic::OptLevel::O2,
                                     &helpers);
        layerMs += span.stop();
    }
    Program program;
    {
        Span span("assembler.link");
        program = minic::linkProgram(appAsm, helpers);
        layerMs += span.stop();
    }
    InstrSubset subset;
    {
        Span span("core.subset");
        subset = InstrSubset::fromProgram(program);
        layerMs += span.stop();
    }
    {
        RefSim sim;
        Span span("sim.reset");
        sim.reset(program);
        span.stop();
    }
    RunResult exec;
    {
        Span span("core.exec");
        Rissp chip(subset, "RISSP");
        chip.reset(program);
        exec = chip.run(kMaxSteps);
        layerMs += span.stop();
    }
    CosimReport cosim;
    {
        Span span("verify.cosim");
        CosimOptions options;
        options.maxSteps = kMaxSteps;
        cosim = cosimulate(program, subset, options);
        layerMs += span.stop();
    }
    const Technology tech;
    Result<SynthReport> appReport = Status::error(ErrorCode::Internal, "");
    {
        Span span("synth.synthesize");
        const SynthesisModel model(tech);
        appReport = model.trySynthesize(subset, "RISSP-app");
        const Result<SynthReport> full =
            model.trySynthesize(InstrSubset::fullRv32e(), "RISSP-RV32E");
        const SynthReport serv = ServModel(tech).synthReport();
        if (appReport && full)
            totals.sweepPoints += appReport.value().sweep.size() +
                full.value().sweep.size() + serv.sweep.size();
        layerMs += span.stop();
    }
    PhysReport phys;
    if (appReport) {
        Span span("physimpl.implement");
        phys = PhysicalModel(tech).implement(appReport.value(),
                                             RfStyle::LatchArray);
        layerMs += span.stop();
    }
    const InstrSubset target = Retargeter::minimalSubset();
    RetargetResult rewritten;
    {
        Span span("retarget.rewrite");
        Retargeter tool(target);
        rewritten = tool.retarget(program);
        layerMs += span.stop();
    }
    RunResult want, got;
    {
        Span span("retarget.equivalence");
        RefSim golden;
        golden.reset(program);
        want = golden.run(kMaxSteps);
        Rissp chip(target, "retarget-dut");
        chip.reset(rewritten.program);
        got = chip.run(kMaxSteps);
        layerMs += span.stop();
    }

    if (subset != ch.subset.subset)
        out.fail(app + ": replayed subset differs from characterize");
    if (exec.instret != run.exec.cycles ||
        exec.exitCode != run.exec.exitCode)
        out.fail(app + ": replayed cycles/exit code differ from run");
    if (!cosim.passed || cosim.instret != run.cosim.instret)
        out.fail(app + ": replayed cosim differs from run");
    if (!appReport ||
        appReport.value().fmaxKhz != syn.synth.app.fmaxKhz ||
        phys.dieAreaMm2 != syn.phys.report.dieAreaMm2)
        out.fail(app + ": replayed synthesis differs from synth");
    if (!rewritten.ok ||
        !sameImage(rewritten.program, ret.retarget.result.program))
        out.fail(app + ": replayed retarget bytes differ from retarget");
    if (want.exitCode != got.exitCode || want.reason != got.reason)
        out.fail(app + ": replayed equivalence failed");

    ++totals.apps;
    totals.execInstret += exec.instret;
    totals.cosimInstret += cosim.instret;
    totals.rvfiEvents += cosim.monitor.eventsChecked;
    totals.macros += rewritten.macros.size();
    for (const MacroExpansion &m : rewritten.macros)
        totals.attempts += m.attempts;
    totals.layerMs += layerMs;
}

/** The simulated statistics of one app, for the digest. */
uint64_t
appDigest(const std::string &app, const flow::CharacterizeResponse &ch,
          const flow::RunResponse &run, const flow::SynthResponse &syn,
          const flow::RetargetResponse &ret)
{
    Digest d;
    d.add(app);
    d.add(ch.subset.subset.describe());
    d.add(run.exec.cycles);
    d.add(static_cast<uint64_t>(run.exec.exitCode));
    for (const uint32_t word : run.exec.outputWords)
        d.add(static_cast<uint64_t>(word));
    d.add(run.cosim.instret);
    d.add(syn.synth.app.fmaxKhz);
    d.add(syn.synth.app.avgAreaGe);
    d.add(syn.synth.app.avgPowerMw);
    d.add(syn.phys.report.dieAreaMm2);
    d.add(syn.phys.report.powerMw);
    d.add(static_cast<uint64_t>(ret.retarget.result.retargetedTextBytes));
    d.add(static_cast<uint64_t>(ret.equivalence.dutExit));
    return d.value();
}

/** One generate (characterize → run verify → synth) on a fresh
 *  service, so every cache is cold; the service is kept for the
 *  retarget that may follow. */
struct Generated
{
    std::unique_ptr<flow::FlowService> service;
    flow::CharacterizeResponse ch;
    flow::RunResponse run;
    flow::SynthResponse syn;
    double ms = 0;
};

Generated
generate(const std::string &app, Outcome &out)
{
    const flow::SourceRef source = flow::SourceRef::bundled(app);
    flow::CharacterizeRequest chReq;
    chReq.source = source;
    flow::RunRequest runReq;
    runReq.source = source;
    runReq.verify = true;
    flow::SynthRequest synReq;
    synReq.source = source;

    Generated g;
    g.service = std::make_unique<flow::FlowService>();
    const Clock::time_point t0 = Clock::now();
    {
        Span span("flow.characterize");
        g.ch = g.service->characterize(chReq);
    }
    {
        Span span("flow.run");
        g.run = g.service->run(runReq);
    }
    {
        Span span("flow.synth");
        g.syn = g.service->synth(synReq);
    }
    g.ms = msBetween(t0, Clock::now());

    const uint64_t bad = !g.ch.status.isOk() + !g.run.status.isOk() +
        !g.syn.status.isOk();
    out.count(3, bad);
    if (bad)
        out.fail(app + ": a verb returned an error status");
    if (!g.run.cosim.run || !g.run.cosim.passed)
        out.fail(app + ": co-simulation did not pass");
    return g;
}

} // namespace

std::vector<double>
AppFlowResult::fastest(
    const std::map<std::string, std::vector<double>> &perApp)
{
    std::vector<double> best;
    for (const auto &[app, ms] : perApp)
        best.push_back(percentile(ms, 0));
    return best;
}

std::string
AppFlowResult::digest() const
{
    Digest all;
    for (const auto &[app, d] : digests)
        all.add(d);
    return all.hex();
}

void
runAppFlow(Inputs &inputs, double budget_s, bool traced, Outcome &out,
           AppFlowResult &acc)
{
    ReplayTotals totals;
    uint64_t compileHits = 0, compileMisses = 0;
    uint64_t synthHits = 0, synthMisses = 0;
    size_t passes = 0;
    const CpuRotation rotation;

    std::vector<std::string> &order = inputs.appOrder;
    const Clock::time_point start = Clock::now();
    while (passes == 0 || secondsSince(start) < budget_s) {
        const size_t pass = inputs.appPasses++;
        if (pass > 0)
            shuffle(order, inputs.appRng);
        // Generate is short next to retarget, so every walk but the
        // last only generates; the last one also retargets on the
        // service its generate used. On 4 CPUs an app's generate
        // repeats visit every CPU in every pass, and its retargets land
        // on as many CPUs as there are passes.
        for (size_t walk = 0; walk + 1 < kGenerateRepeats; ++walk)
            for (size_t i = 0; i < order.size(); ++i) {
                rotation.pin(pass * kGenerateRepeats + walk + i);
                acc.generateMs[order[i]].push_back(
                    generate(order[i], out).ms);
            }
        for (size_t i = 0; i < order.size(); ++i) {
            const std::string &app = order[i];
            rotation.pin(pass * kGenerateRepeats + kGenerateRepeats - 1 + i);
            const Generated g = generate(app, out);
            acc.generateMs[app].push_back(g.ms);
            const std::unique_ptr<flow::FlowService> &service = g.service;
            const flow::CharacterizeResponse &ch = g.ch;
            const flow::RunResponse &run = g.run;
            const flow::SynthResponse &syn = g.syn;

            flow::RetargetRequest retReq;
            retReq.source = flow::SourceRef::bundled(app);
            flow::RetargetResponse ret;
            rotation.pin(pass + i);
            const Clock::time_point r0 = Clock::now();
            {
                Span span("flow.retarget");
                ret = service->retarget(retReq);
            }
            const Clock::time_point t2 = Clock::now();
            acc.retargetMs[app].push_back(msBetween(r0, t2));

            out.count(1, !ret.status.isOk());
            if (!ret.status.isOk())
                out.fail(app + ": retarget returned an error status");
            if (!ret.equivalence.run || !ret.equivalence.matched)
                out.fail(app + ": retarget equivalence did not match");

            const uint64_t d = appDigest(app, ch, run, syn, ret);
            const auto [it, fresh] = acc.digests.emplace(app, d);
            if (!fresh && it->second != d)
                out.fail(app + ": simulated statistics changed between "
                         "passes");

            const explore::ExplorerStats stats = service->stats();
            compileHits += stats.compileHits;
            compileMisses += stats.compileMisses;
            synthHits += service->caches()->synthReport.hits();
            synthMisses += service->caches()->synthReport.misses();

            if (traced) {
                totals.verbMs += g.ms + msBetween(r0, t2);
                replayApp(app, ch, run, syn, ret, totals, out);
            }
        }
        ++passes;
    }
    acc.passes += passes;

    if (traced && totals.apps > 0) {
        const std::map<std::string, SpanStats> spans = trace::aggregate();
        const double apps = static_cast<double>(totals.apps);
        const double perPass = static_cast<double>(passes);
        auto selfMs = [&](const char *name) {
            const auto it = spans.find(name);
            return it == spans.end() ? 0.0 : it->second.selfMs;
        };
        setLayer(out, "compiler.to_asm_ms", selfMs("compiler.to_asm") / apps);
        setLayer(out, "assembler.link_ms", selfMs("assembler.link") / apps);
        setLayer(out, "core.subset_us", 1e3 * selfMs("core.subset") / apps);
        setLayer(out, "core.exec_ms", selfMs("core.exec") / apps);
        setLayer(out, "core.exec_instret_per_s",
                 static_cast<double>(totals.execInstret) /
                     (selfMs("core.exec") / 1e3));
        setLayer(out, "sim.reset_us", 1e3 * selfMs("sim.reset") / apps);
        setLayer(out, "verify.cosim_ms", selfMs("verify.cosim") / apps);
        setLayer(out, "verify.cosim_instret_per_s",
                 static_cast<double>(totals.cosimInstret) /
                     (selfMs("verify.cosim") / 1e3));
        setLayer(out, "verify.rvfi_events",
                 static_cast<double>(totals.rvfiEvents) / perPass);
        setLayer(out, "synth.synthesize_ms",
                 selfMs("synth.synthesize") / apps);
        setLayer(out, "synth.sweep_points",
                 static_cast<double>(totals.sweepPoints) / perPass);
        setLayer(out, "physimpl.implement_ms",
                 selfMs("physimpl.implement") / apps);
        setLayer(out, "retarget.rewrite_ms",
                 selfMs("retarget.rewrite") / apps);
        setLayer(out, "retarget.equivalence_ms",
                 selfMs("retarget.equivalence") / apps);
        setLayer(out, "retarget.macros",
                 static_cast<double>(totals.macros) / perPass);
        setLayer(out, "retarget.attempts",
                 static_cast<double>(totals.attempts) / perPass);
        setLayer(out, "retarget.verified_ratio",
                 totals.attempts == 0
                     ? 0.0
                     : static_cast<double>(totals.macros) /
                         static_cast<double>(totals.attempts));
        setLayer(out, "flow.cache_hit_ratio.compile",
                 hitRatio(compileHits, compileMisses));
        setLayer(out, "flow.cache_hit_ratio.synth",
                 hitRatio(synthHits, synthMisses));
        setLayer(out, "flow.overhead_ms",
                 (totals.verbMs - totals.layerMs) / apps);
        std::printf("app_flow replay: %llu apps; verbs %.1f ms/app, "
                    "layer spans %.1f ms/app, unaccounted %.3f ms/app\n",
                    static_cast<unsigned long long>(totals.apps),
                    totals.verbMs / apps, totals.layerMs / apps,
                    (totals.verbMs - totals.layerMs) / apps);
    }
}

} // namespace perfbench
