/**
 * @file
 * The exploration engine: point execution, memoization, scheduling.
 */

#include "explore/explorer.hh"

#include <optional>
#include <unordered_map>

#include "core/rissp.hh"
#include "exec/scheduler.hh"
#include "explore/fingerprint.hh"
#include "isa/instr.hh"
#include "verify/integration_verify.hh"
#include "workloads/workloads.hh"

namespace rissp::explore
{

namespace
{

/** Tech used when a plan names none: the registry default. */
const TechSpec &
defaultTechSpec()
{
    static const TechSpec spec{};
    return spec;
}

/** Functional signature of a run: exit code plus all MMIO output. */
uint64_t
runSignature(uint32_t exit_code,
             const std::vector<uint32_t> &out_words,
             const std::string &out_text)
{
    uint64_t hash = fnv1a(&exit_code, sizeof exit_code);
    for (uint32_t w : out_words)
        hash = fnv1a(&w, sizeof w, hash);
    return fnv1a(out_text, hash);
}

/** The subset whose fingerprint is @p mask. */
InstrSubset
subsetOfMask(uint64_t mask)
{
    std::set<Op> ops;
    for (unsigned i = 0; i < kNumOps; ++i)
        if (mask >> i & 1)
            ops.insert(static_cast<Op>(i));
    return InstrSubset(std::move(ops));
}

} // namespace

Explorer::Explorer(ExplorerOptions options,
                   std::shared_ptr<flow::StageCaches> shared_caches,
                   exec::Scheduler *scheduler)
    : opts(options),
      caches(shared_caches ? std::move(shared_caches)
                           : std::make_shared<flow::StageCaches>()),
      shared(scheduler)
{
}

uint64_t
Explorer::workloadKey(const std::string &name, minic::OptLevel level)
{
    return flow::sourceKey(name, workloadByName(name).source, level);
}

bool
Explorer::noteCompileLookup(uint64_t key)
{
    LockGuard lock(statsMu);
    const bool repeat = !seenCompile.insert(key).second;
    ++(repeat ? tallies.compileHits : tallies.compileMisses);
    return repeat;
}

bool
Explorer::noteSimLookup(const FingerprintPair &key)
{
    LockGuard lock(statsMu);
    const bool repeat = !seenSim.insert(key).second;
    ++(repeat ? tallies.simHits : tallies.simMisses);
    return repeat;
}

bool
Explorer::noteSynthLookup(const FingerprintPair &key)
{
    LockGuard lock(statsMu);
    const bool repeat = !seenSynth.insert(key).second;
    ++(repeat ? tallies.synthHits : tallies.synthMisses);
    return repeat;
}

minic::CompileResult
Explorer::compileWorkload(const std::string &name,
                          minic::OptLevel level)
{
    const uint64_t key = workloadKey(name, level);
    noteCompileLookup(key);
    return compileCached(name, key, level);
}

minic::CompileResult
Explorer::compileCached(const std::string &name, uint64_t key,
                        minic::OptLevel level)
{
    // Bundled workloads always compile, so the cached Result is
    // always a value.
    return caches
        ->compileLookup(key,
                        [&]() -> Result<minic::CompileResult> {
                            return minic::compile(
                                workloadByName(name).source, level);
                        })
        .value();
}

flow::SimOutcome
Explorer::simulatePoint(const InstrSubset &subset,
                        const Program &program,
                        uint64_t static_mask) const
{
    flow::SimOutcome out;
    Rissp chip(subset, "explore");
    chip.reset(program);
    const RunResult run = chip.run(opts.maxSteps);
    out.trapped = run.reason == StopReason::Trapped;
    out.cycles = run.instret;
    out.exitCode = run.exitCode;
    out.signature = runSignature(run.exitCode, chip.outputWords(),
                                 chip.outputText());
    if (out.trapped) {
        // Only code the program wrote itself, or code outside its
        // text, can hold an op its text does not.
        const Instr in = decode(chip.memory().loadWord(run.stopPc));
        out.offStaticTrap = in.valid() &&
            !(static_mask >> static_cast<unsigned>(in.op) & 1);
    }
    if (run.reason != StopReason::Halted) {
        out.cosimPassed = false;
    } else if (!opts.verify) {
        out.cosimPassed = true; // assumed, not checked
    } else {
        CosimOptions cosim;
        cosim.maxSteps = opts.maxSteps;
        cosim.contextEvents = 0; // only the verdict is tabulated
        out.cosimPassed = cosimulate(program, subset, cosim).passed;
    }
    return out;
}

flow::SimOutcome
Explorer::lookupSim(uint64_t subset_fp, const Program &program,
                    uint64_t program_key, uint64_t static_mask)
{
    // The run is made under the subset the key names, never under
    // the caller's, so the memoized value is a function of the key.
    return caches->simLookup({subset_fp, program_key}, [&] {
        return simulatePoint(subsetOfMask(subset_fp), program,
                             static_mask);
    });
}

flow::SimOutcome
Explorer::settleSim(const flow::SimOutcome &projected,
                    uint64_t subset_fp, const Program &program,
                    uint64_t program_key, uint64_t static_mask)
{
    // A projected trap on an op outside the static set says nothing
    // about a subset that has ops there: look that subset up whole.
    if (!projected.offStaticTrap || (subset_fp & ~static_mask) == 0)
        return projected;
    noteSimLookup({subset_fp, program_key});
    return lookupSim(subset_fp, program, program_key, static_mask);
}

flow::SimOutcome
Explorer::simulate(const InstrSubset &subset, const Program &program,
                   uint64_t program_key)
{
    const uint64_t fp = subsetFingerprint(subset);
    const uint64_t mask =
        subsetFingerprint(InstrSubset::fromProgram(program));
    noteSimLookup({fp & mask, program_key});
    return settleSim(lookupSim(fp & mask, program, program_key, mask),
                     fp, program, program_key, mask);
}

flow::SynthOutcome
Explorer::synthesizePoint(const InstrSubset &subset,
                          const std::string &name,
                          const Technology &tech)
{
    flow::SynthOutcome out;
    const SynthesisModel model(tech);
    const SynthReport report = model.synthesize(subset, name);
    out.fmaxKhz = report.fmaxKhz;
    out.avgAreaGe = report.avgAreaGe;
    out.avgPowerMw = report.avgPowerMw;
    out.epiNj = report.epiNanojoules(1.0, tech); // CPI = 1, §4.2.4
    if (opts.physical) {
        const PhysicalModel phys(tech);
        const PhysReport placed = phys.implement(report, opts.rfStyle);
        out.physRun = true;
        out.dieAreaMm2 = placed.dieAreaMm2;
        out.physPowerMw = placed.powerMw;
    }
    return out;
}

ResultTable
Explorer::explore(const ExplorationPlan &plan)
{
    const std::vector<PlanPoint> points = plan.expand();
    std::optional<exec::Scheduler> own;
    exec::Scheduler &scheduler = shared ? *shared
        : own.emplace(opts.threads != 0 ? opts.threads : plan.threads);

    // Stage 1: compile each workload the plan needs (its workload
    // axis and the workloads behind its @workload subsets) once, in
    // parallel, and take its static op set.
    struct Workload
    {
        std::string name;
        uint64_t key = 0;
        minic::CompileResult compiled;
        InstrSubset staticOps;
        uint64_t staticMask = 0; ///< subsetFingerprint(staticOps)
    };
    std::vector<Workload> workloads;
    std::unordered_map<std::string, size_t> workloadIdx;
    auto need = [&](const std::string &name) {
        const auto [it, fresh] =
            workloadIdx.emplace(name, workloads.size());
        if (fresh) {
            Workload &wl = workloads.emplace_back();
            wl.name = name;
            wl.key = workloadKey(name, plan.opt);
        }
        return it->second;
    };
    for (const SubsetSpec &spec : plan.subsets)
        if (spec.kind == SubsetSpec::Kind::FromWorkload)
            need(spec.workload);
    std::vector<size_t> axisWorkload; ///< per plan.workloads entry
    if (opts.simulate)
        for (const std::string &name : plan.workloads)
            axisWorkload.push_back(need(name));
    {
        exec::TaskGraph graph;
        for (Workload &wl : workloads)
            graph.add(
                [this, &wl, &plan] {
                    wl.compiled =
                        compileCached(wl.name, wl.key, plan.opt);
                    wl.staticOps =
                        InstrSubset::fromProgram(wl.compiled.program);
                    wl.staticMask = subsetFingerprint(wl.staticOps);
                },
                {}, "compile");
        scheduler.runToCompletion(std::move(graph));
    }

    // Each plan subset is resolved once.
    std::vector<InstrSubset> subsets;
    for (const SubsetSpec &spec : plan.subsets) {
        switch (spec.kind) {
          case SubsetSpec::Kind::Full:
            subsets.push_back(InstrSubset::fullRv32e());
            break;
          case SubsetSpec::Kind::Explicit:
            subsets.push_back(InstrSubset::fromNames(spec.mnemonics));
            break;
          case SubsetSpec::Kind::FromWorkload:
            subsets.push_back(
                workloads[workloadIdx.at(spec.workload)].staticOps);
            break;
        }
    }

    // Stage 2: one sim node per distinct projected key and one synth
    // node per distinct (subset, tech). No two nodes share a key, so
    // no worker waits in the memo cache on another worker's in-flight
    // run. Nodes are added in plan order, so the scheduler starts the
    // first points' work first. Stats and memo-hit flags are noted
    // here, in plan order, so they do not depend on the schedule.
    struct SimNode
    {
        uint64_t subsetFp = 0; ///< projected onto wl's static set
        const Workload *wl = nullptr;
        flow::SimOutcome out;
    };
    struct SynthNode
    {
        FingerprintPair key;
        const std::string *name = nullptr; ///< the design's name
        const InstrSubset *subset = nullptr;
        const Technology *tech = nullptr;
        flow::SynthOutcome out;
    };
    // Reserved up front: the node lambdas capture nodes by address.
    std::vector<SimNode> sims;
    std::vector<SynthNode> synths;
    sims.reserve(points.size());
    synths.reserve(points.size());
    std::unordered_map<FingerprintPair, size_t, FingerprintPairHash>
        simIdx;
    std::unordered_map<FingerprintPair, size_t, FingerprintPairHash>
        synthIdx;
    std::vector<ExplorationResult> rows(points.size());
    /** Per point, the sim and synth node its row reads. */
    std::vector<std::pair<size_t, size_t>> rowNodes(points.size());

    exec::TaskGraph graph;
    for (const PlanPoint &pt : points) {
        const SubsetSpec &sspec = plan.subsets[pt.subsetIdx];
        const TechSpec &tech = plan.techs.empty()
            ? defaultTechSpec() : plan.techs[pt.techIdx];
        const uint64_t subsetFp =
            subsetFingerprint(subsets[pt.subsetIdx]);
        if (sspec.kind == SubsetSpec::Kind::FromWorkload)
            noteCompileLookup(
                workloads[workloadIdx.at(sspec.workload)].key);
        ExplorationResult &row = rows[pt.index];
        row.index = pt.index;
        row.subsetName = sspec.name;
        row.workloadName = plan.workloads[pt.workloadIdx];
        row.techName = tech.tech.name;
        row.subset = subsets[pt.subsetIdx];
        row.subsetSize = row.subset.size();

        if (opts.simulate) {
            const Workload &wl =
                workloads[axisWorkload[pt.workloadIdx]];
            noteCompileLookup(wl.key);
            const FingerprintPair key{subsetFp & wl.staticMask,
                                      wl.key};
            row.simRun = true;
            row.simMemoHit = noteSimLookup(key);
            const auto [it, fresh] = simIdx.emplace(key, sims.size());
            if (fresh) {
                SimNode &node = sims.emplace_back();
                node.subsetFp = key.first;
                node.wl = &wl;
                graph.add(
                    [this, &node] {
                        node.out = lookupSim(
                            node.subsetFp, node.wl->compiled.program,
                            node.wl->key, node.wl->staticMask);
                    },
                    {}, "sim");
            }
            rowNodes[pt.index].first = it->second;
        }
        if (opts.synthesize) {
            const FingerprintPair key{subsetFp,
                                      techFingerprint(tech.tech)};
            row.synthRun = true;
            row.synthMemoHit = noteSynthLookup(key);
            const auto [it, fresh] =
                synthIdx.emplace(key, synths.size());
            if (fresh) {
                SynthNode &node = synths.emplace_back();
                node.key = key;
                node.name = &sspec.name;
                node.subset = &subsets[pt.subsetIdx];
                node.tech = &tech.tech;
                graph.add(
                    [this, &node] {
                        node.out = caches->synthLookup(node.key, [&] {
                            return synthesizePoint(
                                *node.subset, *node.name, *node.tech);
                        });
                    },
                    {}, "synth");
            }
            rowNodes[pt.index].second = it->second;
        }
    }
    scheduler.runToCompletion(std::move(graph));

    // Fill the rows in plan order on this thread: a row is ~1 us of
    // copying, less than a task hand-off.
    for (ExplorationResult &row : rows) {
        const auto [simNode, synthNode] = rowNodes[row.index];
        if (row.simRun) {
            const SimNode &sim = sims[simNode];
            const flow::SimOutcome out = settleSim(
                sim.out, subsetFingerprint(row.subset),
                sim.wl->compiled.program, sim.wl->key,
                sim.wl->staticMask);
            row.trapped = out.trapped;
            row.cosimPassed = out.cosimPassed;
            row.cycles = out.cycles;
            row.exitCode = out.exitCode;
            row.signature = out.signature;
        }
        if (row.synthRun) {
            const flow::SynthOutcome &out = synths[synthNode].out;
            row.fmaxKhz = out.fmaxKhz;
            row.avgAreaGe = out.avgAreaGe;
            row.avgPowerMw = out.avgPowerMw;
            row.epiNj = out.epiNj;
            row.physRun = out.physRun;
            row.dieAreaMm2 = out.dieAreaMm2;
            row.physPowerMw = out.physPowerMw;
        }
    }
    {
        LockGuard lock(statsMu);
        tallies.points += points.size();
    }
    return ResultTable(std::move(rows));
}

ExplorerStats
Explorer::stats() const
{
    LockGuard lock(statsMu);
    return tallies;
}

} // namespace rissp::explore
