/**
 * @file
 * Result collection for design-space exploration.
 *
 * Every expanded plan point owns one pre-allocated row, and the
 * Explorer fills the rows in plan order after its graph has run, so
 * the table reads back the same no matter how the pool scheduled the
 * stages — the property that makes a multi-threaded sweep emit
 * byte-identical CSV to a single-threaded one. Emitters cover CSV
 * (spreadsheet/pandas) and JSON (the
 * `BENCH_*.json` trajectory format, see docs/BENCHMARKS.md); the
 * Pareto query answers the question the paper's Figures 7-9 ask:
 * which subsets are worth building?
 */

#ifndef RISSP_EXPLORE_RESULT_TABLE_HH
#define RISSP_EXPLORE_RESULT_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/subset.hh"

namespace rissp::explore
{

/** Everything measured at one (subset, workload, tech) point. */
struct ExplorationResult
{
    size_t index = 0;          ///< plan-order row number
    std::string subsetName;
    std::string workloadName;
    std::string techName;

    InstrSubset subset;        ///< resolved ops (for reports)
    size_t subsetSize = 0;

    // -- co-simulation against the reference ISS --
    bool simRun = false;       ///< simulation stage executed
    bool trapped = false;      ///< RISSP hit an unimplemented op
    bool cosimPassed = false;  ///< lock-step comparison clean
    uint64_t cycles = 0;       ///< RISSP cycles (CPI = 1)
    uint32_t exitCode = 0;     ///< a0 at the halting ecall
    uint64_t signature = 0;    ///< hash of exit code + MMIO output

    // -- synthesis (frequency-sweep averages, Figures 6-8) --
    bool synthRun = false;
    double fmaxKhz = 0;
    double avgAreaGe = 0;
    double avgPowerMw = 0;
    double epiNj = 0;          ///< energy/instruction at fmax, CPI = 1

    // -- physical implementation (Figure 10) --
    bool physRun = false;
    double dieAreaMm2 = 0;
    double physPowerMw = 0;

    // -- bookkeeping --
    bool simMemoHit = false;   ///< sim result reused from the cache
    bool synthMemoHit = false; ///< synth result reused from the cache
};

/** Fixed-size table of exploration results. */
class ResultTable
{
  public:
    ResultTable() = default;
    /** @p rows in plan order: row i has index i. */
    explicit ResultTable(std::vector<ExplorationResult> rows)
        : table(std::move(rows))
    {
    }

    size_t size() const { return table.size(); }

    const ExplorationResult &row(size_t index) const;
    const std::vector<ExplorationResult> &rows() const
    {
        return table;
    }

    /** Plan-ordered CSV with a header row. */
    std::string csv() const;

    /** JSON array of row objects (trajectory-tracking format). */
    std::string json() const;

    /**
     * Row indices of the Pareto frontier minimizing
     * (cycles, avgAreaGe, avgPowerMw) over rows where both stages ran
     * and co-simulation passed without a trap. Rows tied on every
     * objective are all kept, so the frontier is scheduling-agnostic.
     */
    std::vector<size_t> paretoFrontier() const;

    /** True when @p a is no worse on every objective and strictly
     *  better on at least one. */
    static bool dominates(const ExplorationResult &a,
                          const ExplorationResult &b);

  private:
    std::vector<ExplorationResult> table;
};

} // namespace rissp::explore

#endif // RISSP_EXPLORE_RESULT_TABLE_HH
