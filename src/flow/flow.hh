/**
 * @file
 * FlowService — the service-grade request/response facade over the
 * whole RISSP pipeline (compile → subset → stitch → cosim →
 * synthesize → P&R → retarget → explore).
 *
 * The paper's pitch is that RISSPs are cheap enough to generate per
 * application; that only scales if generating one is a single
 * well-specified call rather than hand-stitched glue. Every client —
 * the `risspgen` verbs (explore included), the examples, the
 * `risspgen serve` daemon — sends one of five typed requests and
 * gets back a stage-granular response:
 *
 *  - each stage struct carries a `run` flag and its own data, so
 *    partial results survive downstream failures (a trapped run
 *    still reports the compile and subset stages it completed);
 *  - the response `status` is the overall verdict, with an ErrorCode
 *    a server can map onto a wire protocol;
 *  - nothing in the service aborts on user input: malformed sources,
 *    unknown workloads, bad plans and impossible techs all come back
 *    as values (see util/status.hh).
 *
 * The service owns the shared `StageCaches` and is reentrant: all
 * verbs are `const`, all mutable state lives in the thread-safe
 * caches, so one instance can serve concurrent requests — the shape
 * a daemon or a sharded backend needs. The caches' internal locking
 * is capability-annotated (explore/memo.hh), so holding their locks
 * wrongly is a compile error on Clang; the service itself keeps no
 * mutex — its only lazily written member is `stageScheduler`,
 * published by `std::call_once` (the one concurrency primitive here
 * the analysis cannot model; see the member comment).
 */

#ifndef RISSP_FLOW_FLOW_HH
#define RISSP_FLOW_FLOW_HH

#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "blocks/structural.hh"
#include "compiler/driver.hh"
#include "core/subset.hh"
#include "exec/scheduler.hh"
#include "explore/explorer.hh"
#include "flow/caches.hh"
#include "physimpl/physical.hh"
#include "retarget/retargeter.hh"
#include "sim/refsim.hh"
#include "synth/synthesis.hh"
#include "util/status.hh"
#include "verify/integration_verify.hh"

namespace rissp::flow
{

/**
 * What to compile: a bundled workload by name, or inline MiniC text.
 * File IO stays at the CLI edge — a service never opens paths.
 */
struct SourceRef
{
    std::string workload; ///< bundled workload name, when non-empty
    std::string text;     ///< inline MiniC source otherwise
    std::string label = "<inline>"; ///< report/cache label for text

    static SourceRef
    bundled(std::string name)
    {
        SourceRef ref;
        ref.workload = std::move(name);
        return ref;
    }

    static SourceRef
    inlineText(std::string source, std::string label = "<inline>")
    {
        SourceRef ref;
        ref.text = std::move(source);
        ref.label = std::move(label);
        return ref;
    }
};

// --------------------------------------------------------- stages

/** Step 1 front half: MiniC → linked RV32E image. */
struct CompileStage
{
    bool run = false;
    minic::OptLevel opt = minic::OptLevel::O2;
    size_t staticInstructions = 0;
    size_t textBytes = 0;
    std::vector<std::string> helpers; ///< runtime helpers linked in
};

/** Step 1 back half: the distinct-instruction subset. */
struct SubsetStage
{
    bool run = false;
    InstrSubset subset;
};

/** Execution on the generated RISSP. */
struct ExecStage
{
    bool run = false;
    StopReason reason = StopReason::Running;
    uint32_t stopPc = 0;
    uint64_t cycles = 0;     ///< CPI = 1: cycles == instret
    uint32_t exitCode = 0;
    std::vector<uint32_t> outputWords;
    std::string outputText;
};

/** Lock-step co-simulation against the reference ISS (§3.4.2). */
struct CosimStage
{
    bool run = false;
    bool passed = false;
    uint64_t instret = 0;
    uint64_t rvfiEventsChecked = 0;
    std::string firstDivergence;
};

/** Frequency-sweep synthesis (§4.2), with optional baselines. */
struct SynthStage
{
    bool run = false;
    std::string tech;           ///< technology the numbers belong to
    SynthReport app;            ///< the requested design
    bool baselinesRun = false;
    SynthReport fullIsa;        ///< RISSP-RV32E baseline
    SynthReport serv;           ///< bit-serial Serv baseline
};

/** Physical implementation (§4.3). */
struct PhysStage
{
    bool run = false;
    PhysReport report;
};

/** §5 retargeting onto a fabricated subset. */
struct RetargetStage
{
    bool run = false;
    RetargetResult result;
};

/** Original-vs-retargeted equivalence: the original program on the
 *  reference ISS against the rewritten one on a RISSP that
 *  implements only the target subset. */
struct EquivalenceStage
{
    bool run = false;
    bool matched = false;
    StopReason refReason = StopReason::Running;
    StopReason dutReason = StopReason::Running;
    uint32_t refExit = 0;
    uint32_t dutExit = 0;
};

// ------------------------------------------------------- requests

/** Characterize: compile and report the subset (risspgen verb 1). */
struct CharacterizeRequest
{
    SourceRef source;
    minic::OptLevel opt = minic::OptLevel::O2;
    minic::MachineOptions machine;
};

struct CharacterizeResponse
{
    Status status;
    CompileStage compile;
    SubsetStage subset;
};

/** Run: execute on the generated RISSP, optionally co-simulating
 *  against the reference ISS (risspgen verb 2). */
struct RunRequest
{
    SourceRef source;
    minic::OptLevel opt = minic::OptLevel::O2;
    uint64_t maxSteps = 2'000'000'000ull;
    bool verify = false; ///< lock-step cosim after a clean halt

    /** Run on this subset instead of the program's own — how a
     *  domain chip or an underprovisioned (trapping) RISSP is
     *  requested. */
    std::optional<InstrSubset> subsetOverride;

    /** Inject a netlist fault into the RISSP during cosim (mutation
     *  testing of the verification flow; requires verify). */
    std::optional<Mutation> injectFault;
};

struct RunResponse
{
    Status status;
    CompileStage compile;
    SubsetStage subset;
    ExecStage exec;
    CosimStage cosim;
};

/** Synth: frequency-sweep synthesis + P&R, with the paper's two
 *  baselines (risspgen verb 3). */
struct SynthRequest
{
    SourceRef source;    ///< ignored when subsetOverride is set
    minic::OptLevel opt = minic::OptLevel::O2;
    std::optional<InstrSubset> subsetOverride;
    std::string name = "RISSP-app";
    /** Technology to cost the design on: a registry entry resolved
     *  via `TechSpec::fromSpec` (the `risspgen --tech` path) or any
     *  hand-built corner. Held by value — the models copy it, so a
     *  temporary is safe. */
    explore::TechSpec tech;
    bool baselines = true;   ///< also synthesize RV32E + Serv
    bool physical = true;    ///< P&R the app design
    RfStyle rfStyle = RfStyle::LatchArray;
};

struct SynthResponse
{
    Status status;
    CompileStage compile;
    SubsetStage subset;
    SynthStage synth;
    PhysStage phys;
};

/** Retarget: rewrite onto a fabricated subset and prove equivalence
 *  (risspgen verb 4). */
struct RetargetRequest
{
    SourceRef source;
    minic::OptLevel opt = minic::OptLevel::O2;
    /** Fabricated subset; Retargeter::minimalSubset() when unset.
     *  Validated against the §5 kernel ops. */
    std::optional<InstrSubset> target;
    uint64_t maxSteps = 2'000'000'000ull;
    bool verifyEquivalence = true;
};

struct RetargetResponse
{
    Status status;
    CompileStage compile;
    RetargetStage retarget;
    EquivalenceStage equivalence;
};

/** Explore: sweep a (subset × workload × tech) design space. */
struct ExploreRequest
{
    /** Plan text (the explore/plan.hh grammar)… */
    std::string planText;
    /** …or a programmatic plan; wins over planText when set. */
    std::optional<explore::ExplorationPlan> plan;
    explore::ExplorerOptions options;
};

struct ExploreResponse
{
    Status status;
    explore::ExplorationPlan plan; ///< the plan that was swept
    explore::ResultTable table;
    /** Stats of the engine that swept *this* request: a miss is the
     *  first lookup of a key within the sweep, a hit is a repeat —
     *  regardless of how warm the service's shared caches (or the
     *  persistent store under them) already were. The response,
     *  including its toJson form, is therefore byte-identical across
     *  services, boots and thread counts for the same request; the
     *  service-cumulative view lives on `FlowService::stats()`. */
    explore::ExplorerStats stats;
};

// -------------------------------------------------------- service

/** Any request the service accepts — the batch/async currency. */
using Request = std::variant<CharacterizeRequest, RunRequest,
                             SynthRequest, RetargetRequest,
                             ExploreRequest>;

/** The response matching each Request alternative. */
using Response = std::variant<CharacterizeResponse, RunResponse,
                              SynthResponse, RetargetResponse,
                              ExploreResponse>;

/** The overall status of any response alternative. */
const Status &responseStatus(const Response &response);

/** Construction options beyond the caches themselves. */
struct ServiceOptions
{
    /** Worker threads for the scheduler that runs async/batch
     *  requests and every explore sweep (0 = hardware concurrency);
     *  the scheduler starts lazily on first use. */
    unsigned schedulerThreads = 0;

    /** Attach a persistent `store::DiskStore` at this directory
     *  (created on first use); empty = in-memory caches only. An
     *  unusable directory is reported with warn() and the service
     *  runs without persistence — the store is an optimization, not
     *  a dependency. CLIs that want a loud failure open the store
     *  themselves and pass it via `artifacts`. */
    std::string cacheDir;

    /** Explicit store to attach; wins over cacheDir. */
    std::shared_ptr<store::ArtifactStore> artifacts;
};

/** The facade. One instance serves any number of clients.
 *
 *  Requests can be served three ways, all against the same shared
 *  `StageCaches`:
 *   - the synchronous verbs below, on the caller's thread (explore
 *     runs its sweep's stages on the service's scheduler);
 *   - `submitAsync`, which runs the same verb as one task on the
 *     service's work-stealing `exec::Scheduler` and returns a
 *     future;
 *   - `runBatch`, which submits a mixed batch and collects the
 *     responses in request order.
 *  Every path calls the same verb function, so a batched response is
 *  byte-identical to its synchronous twin; identical in-flight work
 *  is deduplicated by the promise-backed cache entries (ten
 *  concurrent requests for the same subset compile — and sweep — it
 *  once). */
class FlowService
{
  public:
    /** @param caches stage caches to adopt; by default the service
     *  creates its own set.
     *  @param scheduler_threads worker threads for the scheduler
     *  behind async/batch requests and explore sweeps (0 = hardware
     *  concurrency); it starts lazily on first use. */
    explicit FlowService(
        std::shared_ptr<StageCaches> caches = nullptr,
        unsigned scheduler_threads = 0);

    /** Construct with service options (persistent store, scheduler
     *  sizing); @p caches as above. When both the options and the
     *  adopted caches carry a store, the caches' existing one wins —
     *  an already-serving cache set is never re-pointed. */
    explicit FlowService(const ServiceOptions &options,
                         std::shared_ptr<StageCaches> caches =
                             nullptr);

    CharacterizeResponse
    characterize(const CharacterizeRequest &request) const;

    RunResponse run(const RunRequest &request) const;

    SynthResponse synth(const SynthRequest &request) const;

    RetargetResponse retarget(const RetargetRequest &request) const;

    ExploreResponse explore(const ExploreRequest &request) const;

    /** Serve any request synchronously on the caller's thread. */
    Response dispatch(const Request &request) const;

    /** Submit a request onto the shared scheduler as one task;
     *  returns immediately. The future carries the same response the
     *  synchronous verb would produce (errors stay values — the
     *  future only throws on an internal panic-equivalent
     *  exception). */
    std::future<Response> submitAsync(Request request) const;

    /** Serve a mixed batch concurrently; blocks until every request
     *  has settled and returns responses in request order. */
    std::vector<Response>
    runBatch(const std::vector<Request> &requests) const;

    /** Cumulative cache statistics across all requests served
     *  (`points` stays 0 — it is a per-Explorer counter). */
    explore::ExplorerStats stats() const;

    const std::shared_ptr<StageCaches> &caches() const
    {
        return stageCaches;
    }

    /** The service's scheduler (started on first use): it runs
     *  async/batch requests and the stages of every explore sweep. */
    exec::Scheduler &scheduler() const;

  private:
    /** Resolve + compile a source, memoized in the shared cache. */
    Result<minic::CompileResult>
    compileSource(const SourceRef &source, minic::OptLevel opt,
                  const minic::MachineOptions &machine = {}) const;

    std::shared_ptr<StageCaches> stageCaches;
    unsigned schedulerThreads;
    /** stageScheduler is written exactly once, inside
     *  std::call_once(schedulerOnce), and only read afterwards —
     *  call_once publishes the write, so no mutex guards it and no
     *  capability annotation applies. The service must outlive its
     *  async futures; these members are declared after the caches so
     *  the scheduler joins (destructor order) before the caches die. */
    mutable std::once_flag schedulerOnce;
    mutable std::unique_ptr<exec::Scheduler> stageScheduler;
};

} // namespace rissp::flow

#endif // RISSP_FLOW_FLOW_HH
