/**
 * @file
 * Shared pieces of the repository benchmark: run configuration, the
 * seeded inputs every workload draws from, the per-run outcome
 * (checks, counters, metrics), and small statistics helpers.
 *
 * The benchmark drives the system only through its public APIs
 * (`flow::FlowService`, `net::HttpServer` and the layer functions);
 * nothing here reaches into `src/` internals.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "explore/fingerprint.hh"
#include "util/rng.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return msBetween(from, Clock::now()) / 1e3;
}

/** Nearest-rank percentile (@p q in [0, 1]); 0 for an empty set. */
double percentile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** hits / (hits + misses), or 0 when nothing was looked up. */
inline double
hitRatio(uint64_t hits, uint64_t misses)
{
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
            static_cast<double>(hits + misses);
}

/** FNV-1a digest (explore::fnv1a) of simulated statistics. A change
 *  meant only to make the host faster must leave every digest
 *  unchanged. */
class Digest
{
  public:
    void
    add(uint64_t value)
    {
        hash = rissp::explore::fnv1a(&value, sizeof value, hash);
    }
    void
    add(double value)
    {
        hash = rissp::explore::fnv1a(&value, sizeof value, hash);
    }
    void
    add(const std::string &value)
    {
        hash = rissp::explore::fnv1a(value, hash);
    }
    uint64_t value() const { return hash; }
    std::string hex() const;

  private:
    uint64_t hash = rissp::explore::kFnvBasis;
};

/** Everything one run reports: checks, operation counts, metrics. */
class Outcome
{
  public:
    /** Record a failed output check (printed to stderr). */
    void fail(const std::string &why);

    /** Count @p n operations attempted, @p bad of them failed. */
    void
    count(uint64_t n, uint64_t bad = 0)
    {
        attempted += n;
        failed += bad;
    }

    void set(const std::string &name, double value,
             const std::string &unit);

    bool correct() const { return failures == 0; }

    /** The result object the benchmark contract asks for. */
    std::string json() const;

    uint64_t attempted = 0;
    uint64_t failed = 0;

  private:
    uint64_t failures = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
};

/** The three workloads; the names are cited by later changes. */
enum class WorkloadKind
{
    AppFlow,
    ExploreSweep,
    ServeMix,
};

struct RunConfig
{
    WorkloadKind workload = WorkloadKind::AppFlow;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 1;  ///< nproc: explore and serve parallelism
    std::string outDir;    ///< scratch space inside the checkout
};

/** The seeded inputs. The program under test receives only these. */
struct Inputs
{
    /** app_flow: the order the bundled workloads are generated in
     *  (reshuffled from the same stream on every pass). */
    std::vector<std::string> appOrder;
    rissp::Rng appRng{1};
    size_t appPasses = 0; ///< passes started; each after the first reshuffles
    /** explore_sweep: the order of the plan's workload axis. */
    std::vector<std::string> exploreWorkloads;
    /** serve_mix: the generator's request stream. */
    rissp::Rng serveRng{1};
    uint64_t serveVariants = 0; ///< cold variants drawn so far
    uint64_t seed = 1;

    static Inputs make(uint64_t seed);
};

/** Fisher-Yates shuffle driven by the seeded generator. */
template <typename T>
void
shuffle(std::vector<T> &items, rissp::Rng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(static_cast<uint32_t>(i))]);
}

/** Peak resident set of this process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
