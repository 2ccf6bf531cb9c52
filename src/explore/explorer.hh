/**
 * @file
 * Parallel design-space exploration engine.
 *
 * For each expanded plan point the Explorer resolves the instruction
 * subset (Step 1), builds the RISSP and runs the workload on it,
 * lock-step co-simulates against the reference ISS (§3.4.2), and
 * pushes the subset through the synthesis and physical-implementation
 * models (§4.2-4.3).
 *
 * A RISSP consults its subset only for the ops it retires, and a
 * program retires only ops of its own text unless it writes that
 * text or jumps out of it. So the simulation tier is keyed on
 * (subset ∩ static ops of the workload, workload fingerprint) and
 * runs under that projected subset: every subset that agrees on the
 * workload's own ops shares one run and one co-simulation. A
 * projected run that traps on an op outside the static set
 * (self-modifying or off-span code) does not speak for subsets that
 * have that op, so those points look up their unprojected key and
 * run under their own subset. Synthesis results are memoized on
 * (subset fingerprint, tech fingerprint).
 *
 * explore() compiles each plan workload and resolves each plan
 * subset once, then runs one `exec::TaskGraph` on a work-stealing
 * `exec::Scheduler` with one sim node per distinct projected key and
 * one synth node per distinct (subset, tech). So one point's
 * synthesis overlaps another's co-simulation, and no worker waits on
 * another worker's in-flight run of the same key. The rows are then
 * filled in plan order on the calling thread. The caches live in a
 * shared `flow::StageCaches`, and the graphs run on a shared
 * scheduler; both are private to the Explorer by default, and a
 * `FlowService` passes its own. So the caches persist across
 * explore() calls — and across every other entry point sharing the
 * set: repeated points are free.
 *
 * Every model underneath is deterministic and the rows are written
 * in plan order after the graph has run, so the emitted table is
 * identical for any thread count.
 */

#ifndef RISSP_EXPLORE_EXPLORER_HH
#define RISSP_EXPLORE_EXPLORER_HH

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "compiler/driver.hh"
#include "explore/plan.hh"
#include "explore/result_table.hh"
#include "flow/caches.hh"
#include "physimpl/physical.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace rissp::exec
{
class Scheduler;
}

namespace rissp::explore
{

/** What the Explorer does at each point. */
struct ExplorerOptions
{
    /** Workers of the Explorer's private scheduler: 0 = the plan's
     *  `threads`, else hardware threads. An Explorer given a
     *  scheduler (every FlowService sweep) does not read it. */
    unsigned threads = 0;
    bool simulate = true;     ///< run the workload on the RISSP
    bool verify = true;       ///< lock-step cosim vs the reference ISS
    bool synthesize = true;   ///< frequency-sweep synthesis
    bool physical = false;    ///< P&R model (adds die area/power)
    uint64_t maxSteps = 500'000'000; ///< per-run cycle budget
    RfStyle rfStyle = RfStyle::LatchArray;
};

/** Cache statistics over *this engine's* lookups: a miss is the
 *  first time this Explorer asks for a key, a hit is a repeat — no
 *  matter whether the shared caches (or a persistent store under
 *  them) already held the value from another engine or an earlier
 *  boot. That makes the numbers a pure function of the plans this
 *  engine has swept: deterministic across thread counts, service
 *  warmth and processes, which is what lets two services produce
 *  byte-identical explore responses. (Service-cumulative cache
 *  counters live on `FlowService::stats()`.) */
struct ExplorerStats
{
    uint64_t points = 0;       ///< points explored so far
    uint64_t compileHits = 0;  ///< workload compilations reused
    uint64_t compileMisses = 0;
    /** One sim lookup per point under its projected key, plus one
     *  per point whose projected run trapped outside the static set
     *  (its unprojected key); misses are the distinct keys, i.e.
     *  the runs and co-simulations made. */
    uint64_t simHits = 0;
    uint64_t simMisses = 0;
    uint64_t synthHits = 0;    ///< synthesis sweeps reused
    uint64_t synthMisses = 0;
};

/** The exploration engine. */
class Explorer
{
  public:
    /** @param caches stage caches to use; by default the Explorer
     *  makes a private set. Pass a shared set (e.g. a FlowService's)
     *  to pool work across engines and request verbs.
     *  @param scheduler where explore() runs its graphs; by default
     *  each explore() call makes a private one of options.threads
     *  (else the plan's `threads`) workers. Pass a shared one (e.g.
     *  a FlowService's) to start no thread of its own. */
    explicit Explorer(
        ExplorerOptions options = {},
        std::shared_ptr<flow::StageCaches> caches = nullptr,
        exec::Scheduler *scheduler = nullptr);

    /** Explore every point of @p plan; rows come back in plan order.
     *  The plan must validate() (panic() otherwise) — user-provided
     *  plans are validated by parse()/FlowService before they get
     *  here. */
    ResultTable explore(const ExplorationPlan &plan);

    /** Compile a bundled workload at @p level (memoized; the same
     *  cache the exploration points use). */
    minic::CompileResult compileWorkload(const std::string &name,
                                         minic::OptLevel level);

    /** Simulate (and, with options().verify, co-simulate)
     *  @p program under @p subset through the sim tier, as an
     *  explore point does: under the projected key first, then under
     *  the unprojected key when the projected run trapped on an op
     *  outside the program's static set. @p program_key identifies
     *  @p program in the sim cache, like a workload fingerprint. */
    flow::SimOutcome simulate(const InstrSubset &subset,
                              const Program &program,
                              uint64_t program_key);

    ExplorerStats stats() const;

    const ExplorerOptions &options() const { return opts; }

  private:
    /** The workload cache key (name, opt level); the same derivation
     *  flow::sourceKey gives request verbs. */
    static uint64_t workloadKey(const std::string &name,
                                minic::OptLevel level);

    /** compileWorkload() without the stats note. */
    minic::CompileResult compileCached(const std::string &name,
                                       uint64_t key,
                                       minic::OptLevel level);

    /** Run @p program on a RISSP for @p subset and, if it halts,
     *  co-simulate it; flags a trap on an op outside
     *  @p static_mask. */
    flow::SimOutcome simulatePoint(const InstrSubset &subset,
                                   const Program &program,
                                   uint64_t static_mask) const;
    /** The sim cache entry for (@p subset_fp, @p program_key),
     *  computed under the subset @p subset_fp names. */
    flow::SimOutcome lookupSim(uint64_t subset_fp,
                               const Program &program,
                               uint64_t program_key,
                               uint64_t static_mask);
    /** The outcome for the subset @p subset_fp, given its
     *  @p projected one: that, or the unprojected lookup when the
     *  projected run trapped outside the static set and the subset
     *  has ops there. */
    flow::SimOutcome settleSim(const flow::SimOutcome &projected,
                               uint64_t subset_fp,
                               const Program &program,
                               uint64_t program_key,
                               uint64_t static_mask);
    flow::SynthOutcome synthesizePoint(const InstrSubset &subset,
                                       const std::string &name,
                                       const Technology &tech);

    /** Record one lookup against this engine's seen-key set; true =
     *  repeat (a hit in the ExplorerStats sense above). */
    bool noteCompileLookup(uint64_t key);
    bool noteSimLookup(const FingerprintPair &key);
    bool noteSynthLookup(const FingerprintPair &key);

    ExplorerOptions opts;
    std::shared_ptr<flow::StageCaches> caches;
    exec::Scheduler *shared; ///< null: a private one per explore()

    mutable Mutex statsMu;
    std::unordered_set<uint64_t> seenCompile
        RISSP_GUARDED_BY(statsMu);
    std::unordered_set<FingerprintPair, FingerprintPairHash> seenSim
        RISSP_GUARDED_BY(statsMu);
    std::unordered_set<FingerprintPair, FingerprintPairHash>
        seenSynth RISSP_GUARDED_BY(statsMu);
    /** The engine-local point count and hit/miss tallies. */
    ExplorerStats tallies RISSP_GUARDED_BY(statsMu);
};

} // namespace rissp::explore

#endif // RISSP_EXPLORE_EXPLORER_HH
