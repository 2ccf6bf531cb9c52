/**
 * @file
 * Exploration plans: which (subset, workload, technology) points to
 * visit.
 *
 * The paper's premise is that RISSPs are cheap enough to generate
 * per-application, which only pays off when many candidate subsets can
 * be swept against many workloads and process corners quickly. An
 * `ExplorationPlan` names the three axes; `expand()` turns them into a
 * flat, deterministically-ordered point list for the `Explorer`.
 *
 * Plans can be built programmatically (the bench mains do this) or
 * parsed from a small line-oriented plan file (`risspgen explore`
 * and batch explore lines do this; see `ExplorationPlan::parse`).
 */

#ifndef RISSP_EXPLORE_PLAN_HH
#define RISSP_EXPLORE_PLAN_HH

#include <string>
#include <vector>

#include "compiler/driver.hh"
#include "core/subset.hh"
#include "tech/technology.hh"
#include "util/status.hh"

namespace rissp::explore
{

/** A named candidate instruction subset. */
struct SubsetSpec
{
    /** How the ops are obtained. */
    enum class Kind : uint8_t
    {
        Full,         ///< the full RV32E baseline (RISSP-RV32E)
        FromWorkload, ///< extracted from a workload's -O binary (Step 1)
        Explicit,     ///< a hand-written mnemonic list
    };

    std::string name;                    ///< report/CSV label
    Kind kind = Kind::Full;
    std::string workload;                ///< Kind::FromWorkload source
    std::vector<std::string> mnemonics;  ///< Kind::Explicit ops

    static SubsetSpec full(const std::string &name = "RISSP-RV32E");
    static SubsetSpec fromWorkload(const std::string &workload,
                                   const std::string &name = "");
    static SubsetSpec fromNames(const std::string &name,
                                std::vector<std::string> mnemonics);
};

/** One technology axis entry: a `Technology` value (identity +
 *  model constants), usually resolved from the registry by name. */
struct TechSpec
{
    /** The resolved technology; `tech.name` labels result rows. */
    Technology tech;

    /** Resolve a registry spec string `name[:key=value,...]`
     *  (tech/registry.hh grammar) against the built-in registry. */
    static Result<TechSpec> fromSpec(const std::string &spec);

    /** Override one model constant by name, e.g. "gateDelayNs", or
     *  a derived key ("voltage", "ffPowerRatio"), extending
     *  `tech.name` spec-style so the modified corner never reports
     *  under its base technology's label. Tech overrides are user
     *  input: an unknown key or out-of-range value comes back as
     *  InvalidArgument. */
    Status trySet(const std::string &key, double value);

    /** Override a constant whose key is known to be valid (panic()
     *  on an unknown key); user input goes through trySet(). */
    void set(const std::string &key, double value);
};

/** One expanded design-space point (indices into the plan's axes). */
struct PlanPoint
{
    size_t index = 0;        ///< row in the ResultTable
    size_t subsetIdx = 0;
    size_t workloadIdx = 0;
    size_t techIdx = 0;
};

/** The three axes plus expansion policy. */
class ExplorationPlan
{
  public:
    /** How the axes combine into points. */
    enum class Mode : uint8_t
    {
        Cartesian, ///< subsets x workloads x techs
        Paired,    ///< i-th subset with i-th workload, x techs
    };

    std::vector<SubsetSpec> subsets;
    std::vector<std::string> workloads; ///< bundled workload names
    std::vector<TechSpec> techs;        ///< empty means default tech
    minic::OptLevel opt = minic::OptLevel::O2;
    Mode mode = Mode::Cartesian;
    /** Workers for `risspgen explore` or a standalone Explorer (0 =
     *  hardware concurrency); a FlowService sweep does not read it. */
    unsigned threads = 0;

    /**
     * Check the plan is explorable: axes non-empty, Paired-mode
     * sizes equal, every workload name bundled, every explicit
     * mnemonic known. The Explorer requires a valid plan; FlowService
     * turns a failed validate() into an error response.
     */
    Status validate() const;

    /** Expand into the deterministic point list. The plan must
     *  validate() (panic() otherwise). */
    std::vector<PlanPoint> expand() const;

    /** Points expand() will produce. */
    size_t pointCount() const;

    /**
     * Parse a plan file. Line-oriented; '#' starts a comment:
     *
     *   opt O2                      # O0|O1|O2|O3|Oz
     *   mode cartesian              # cartesian|paired
     *   threads 4
     *   workload crc32              # bundled workload name
     *   subset tiny = addi add lw sw jal beq
     *   subset full = @full         # the RV32E baseline
     *   subset fit  = @crc32        # extracted from a workload
     *   tech flexic-0.6um           # a registered technology name
     *   tech silicon-65nm
     *   tech flexic-0.6um:voltage=2.4,ffPowerRatio=8
     *   tech flexic-0.6um gateDelayNs=20   # overrides also as words
     *
     * `tech` lines are validated through `TechRegistry::builtins()`:
     * the name must be registered (`risspgen techs` lists them) and
     * every key/value is checked. A spec with overrides — colon or
     * word form — names its result rows after the full composed
     * spec, so an overridden corner never shares a label with its
     * base technology.
     *
     * Plan files are user input: malformed lines are reported as a
     * ParseError carrying every offending line ("plan line N: ...",
     * newline-separated), not just the first one — parsing continues
     * past a bad line so one pass surfaces all mistakes.
     */
    static Result<ExplorationPlan> parse(const std::string &text);

    /**
     * The paper's per-application flow as a plan: for each workload a
     * RISSP generated from that workload's own binary (Paired mode),
     * plus optionally the full-ISA baseline paired with the first
     * workload. This is what Table 3 / Figures 7-9 sweep.
     */
    static ExplorationPlan
    perWorkloadRissps(const std::vector<std::string> &workload_names,
                      bool include_full_baseline = false);
};

} // namespace rissp::explore

#endif // RISSP_EXPLORE_PLAN_HH
