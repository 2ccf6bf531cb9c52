/**
 * @file
 * The three measured phases. Each runs one path through the system
 * for a time budget, checks every output it gets, and reports its
 * end-to-end numbers. With `traced` set it also records layer spans
 * and fills the per-layer metrics it owns.
 *
 *  - app flow: per-app generation plus the §5 retarget, cold caches;
 *  - explore sweep: cold and warm cartesian sweeps over a disk store;
 *  - serve mix: open-loop traffic against an in-process daemon.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hh"
#include "flow/flow.hh"
#include "net/server.hh"

namespace perfbench
{

/** Per-layer metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics();

/** Set a per-layer metric (its unit comes from perLayerMetrics()). */
void setLayer(Outcome &out, const std::string &name, double value);

/** What app_flow has measured so far; runAppFlow() appends to it, so
 *  a run can spread its passes over several slices. */
struct AppFlowResult
{
    /** Every generate repeat's and every retarget's wall time, per
     *  app. */
    std::map<std::string, std::vector<double>> generateMs;
    std::map<std::string, std::vector<double>> retargetMs;
    /** Simulated statistics per app; every pass must repeat them. */
    std::map<std::string, uint64_t> digests;
    size_t passes = 0;

    /** Per app, its fastest repeat: the work is deterministic and
     *  single-threaded, so the fastest repeat is the estimate least
     *  disturbed by other load on the host. */
    static std::vector<double>
    fastest(const std::map<std::string, std::vector<double>> &perApp);

    /** Over the apps' digests; does not depend on the seed. */
    std::string digest() const;
};

void runAppFlow(Inputs &inputs, double budget_s, bool traced,
                Outcome &out, AppFlowResult &acc);

/** A directory the benchmark owns: emptied when created, removed
 *  with its contents when destroyed. */
class ScratchDir
{
  public:
    explicit ScratchDir(std::string dir);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string path;
};

/** What explore_sweep has measured so far (appended to per call). */
struct ExploreResult
{
    std::vector<double> coldPointsPerS;
    std::vector<double> warmPointsPerS;
    /** The DiskStore the first call fills and every warm sweep loads. */
    std::unique_ptr<ScratchDir> store;
    std::string firstJson; ///< the first table; all must equal it
    std::string digest;    ///< simulated statistics of that table
};

void runExploreSweep(const Inputs &inputs, const RunConfig &config,
                     double budget_s, bool traced, Outcome &out,
                     ExploreResult &acc);

/** The daemon under test plus a separate reference service that
 *  computes the bytes every served body must equal. Starting it
 *  (server up, served caches warmed with every hot request) is part
 *  of the benchmark's set-up; a measured run starts it just before
 *  its first serve slice, so the other workloads' peak RSS does not
 *  include it. */
class ServeFixture
{
  public:
    explicit ServeFixture(unsigned threads);

    bool start();

    /** flow::toJson of (verb, body) on the reference service. */
    const std::string &expected(const std::string &verb,
                                const std::string &body);

    uint16_t port() const { return server.port(); }

    const rissp::flow::FlowService service;
    rissp::net::HttpServer server;

  private:
    const rissp::flow::FlowService reference;
    std::unordered_map<std::string, std::string> expectedBodies;
    const unsigned threads; ///< warm-up threads, one per CPU
};

/** What serve_mix has measured so far (appended to per call). */
struct ServeResult
{
    /** Every request's latency from its due time, in schedule order;
     *  each runServeMix() call appends whole cycles of the mix. */
    std::vector<double> latencyMs;
    /** The @p q percentile of each window of three consecutive cycles
     *  (1137 requests, so p99 has 11 beyond it), sliding by one
     *  cycle. */
    std::vector<double> windowPercentiles(double q) const;
    Digest digest; ///< the served bodies, in order
};

/** With `traced` set it also probes the closed-loop capacity and the
 *  per-layer latencies of one hot request. */
void runServeMix(ServeFixture &fixture, Inputs &inputs,
                 const RunConfig &config, double budget_s, bool traced,
                 Outcome &out, ServeResult &acc);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
