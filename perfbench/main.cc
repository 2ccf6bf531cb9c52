/**
 * @file
 * The repository benchmark's main program (run it through perfbench/run.py,
 * which builds it first):
 *
 *   perfbench --workload app_flow|explore_sweep|serve_mix --seed N
 *             --seconds S --trace 0|1 [--setup-only] [--out-dir D]
 *
 * Set-up is the seeded inputs, the lazily built singletons, and the
 * serve fixture (daemon up, caches warm). `--setup-only` does all of
 * it and prints "ready"; run.py times that in several processes to
 * report `setup_s`. A measured run starts the fixture only just
 * before its first serve slice, so that `peak_rss_mb` of the other
 * workloads does not include it.
 *
 * Untraced (--trace 0), the named workload's phase gets 40 % of the
 * run and the other two phases 30 % each, interleaved in rounds,
 * so every run reports every end-to-end metric. Traced (--trace 1), only the
 * named workload runs, first untraced and then with spans on; the
 * difference is the tracing overhead, and the spans give the
 * per-layer metrics, the self-time table and a Chrome trace file.
 *
 * The last line of stdout is the result object; the exit code is
 * non-zero when any output check failed.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/subset.hh"
#include "phases.hh"
#include "retarget/retargeter.hh"
#include "trace.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> all = {
        {"compiler.to_asm_ms", "ms"},
        {"assembler.link_ms", "ms"},
        {"core.subset_us", "us"},
        {"core.exec_ms", "ms"},
        {"core.exec_instret_per_s", "1/s"},
        {"sim.reset_us", "us"},
        {"verify.cosim_ms", "ms"},
        {"verify.cosim_instret_per_s", "1/s"},
        {"verify.rvfi_events", "count"},
        {"synth.synthesize_ms", "ms"},
        {"synth.sweep_points", "count"},
        {"physimpl.implement_ms", "ms"},
        {"retarget.rewrite_ms", "ms"},
        {"retarget.equivalence_ms", "ms"},
        {"retarget.macros", "count"},
        {"retarget.attempts", "count"},
        {"retarget.verified_ratio", "ratio"},
        {"explore.points", "count"},
        {"explore.compile_misses", "count"},
        {"explore.sim_misses", "count"},
        {"explore.synth_misses", "count"},
        {"store.loads", "count"},
        {"store.load_hits", "count"},
        {"store.publishes", "count"},
        {"store.bytes_read", "bytes"},
        {"store.bytes_written", "bytes"},
        {"store.load_p50_us", "us"},
        {"store.publish_p50_us", "us"},
        {"store.busy_ms", "ms"},
        {"flow.encode_us", "us"},
        {"flow.dispatch_p50_us", "us"},
        {"flow.cache_hit_ratio.compile", "ratio"},
        {"flow.cache_hit_ratio.sim", "ratio"},
        {"flow.cache_hit_ratio.synth", "ratio"},
        {"flow.overhead_ms", "ms"},
        {"exec.tasks_run", "count"},
        {"exec.steals", "count"},
        {"exec.queue_depth_max", "count"},
        {"net.healthz_p50_us", "us"},
        {"net.overhead_p50_us", "us"},
        {"net.partial_writes", "count"},
        {"net.rejected_queue_full", "count"},
        {"net.http_errors", "count"},
        {"serve.capacity_rps", "1/s"},
        {"serve.offered_rps", "1/s"},
        {"serve.gen_late_p99_ms", "ms"},
        {"serve.gen_late_samples", "count"},
        {"trace.overhead_pct", "%"},
    };
    return all;
}

void
setLayer(Outcome &out, const std::string &name, double value)
{
    for (const auto &[metric, unit] : perLayerMetrics())
        if (metric == name) {
            out.set(name, value, unit);
            return;
        }
    throw std::logic_error("unknown per-layer metric " + name);
}

namespace
{

/** Share of the run the named workload's own phase gets; the other
 *  two phases split the rest. Every slice runs at least one whole
 *  unit: an app pass, a cold sweep with its warm ones, a mix cycle. */
constexpr double kFocusShare = 0.4;
constexpr int kRounds = 3;

const char *const kWorkloadNames[] = {"app_flow", "explore_sweep",
                                      "serve_mix"};

/** The serve fixture, started on first use. */
class LazyFixture
{
  public:
    explicit LazyFixture(unsigned threads) : threads(threads) {}

    /** nullptr, and a failed check in @p out, when the daemon did not
     *  start. */
    ServeFixture *
    get(Outcome &out)
    {
        if (!fixture) {
            fixture = std::make_unique<ServeFixture>(threads);
            started = fixture->start();
            if (!started)
                out.fail("the serve fixture did not start");
        }
        return started ? fixture.get() : nullptr;
    }

  private:
    unsigned threads;
    std::unique_ptr<ServeFixture> fixture;
    bool started = false;
};

struct Args
{
    RunConfig config;
    bool setupOnly = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "app_flow|explore_sweep|serve_mix --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    args.config.outDir = ".bench_build/perfbench/run";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            for (int w = 0; w < 3; ++w)
                if (value == kWorkloadNames[w]) {
                    args.config.workload = static_cast<WorkloadKind>(w);
                    haveWorkload = true;
                }
            if (!haveWorkload)
                usage(("unknown workload " + value).c_str());
        } else if (flag == "--seed") {
            args.config.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.config.seconds = std::atof(value.c_str());
            if (args.config.seconds <= 0)
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            args.config.trace = value == "1";
        } else if (flag == "--out-dir") {
            args.config.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    args.config.threads =
        std::max(1u, std::thread::hardware_concurrency());
    return args;
}

/** Pin glibc malloc to the regime a long-running process settles in.
 *  By default it serves every block over 128 KiB with a fresh mmap
 *  until the first such block is freed, and only then raises the
 *  threshold. Until that happens every simulator arena costs a page
 *  fault per page it touches: the first app pass of a run measured
 *  retarget 2-4x slower than later passes, and whether a phase ran
 *  before or after the switch depended on which phases ran before it.
 *  With fixed thresholds, blocks up to 32 MiB come from the heap and
 *  freed memory stays mapped for reuse from the first call on. */
void
pinAllocator()
{
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
}

/** Touch the lazily built singletons the phases share, so their cost
 *  lands in set-up rather than in the first measured operation. */
void
warmSingletons()
{
    (void)rissp::allWorkloads();
    (void)rissp::Retargeter::minimalSubset();
    (void)rissp::InstrSubset::fullRv32e();
}

void
reportAppFlow(const AppFlowResult &r, Outcome &out)
{
    const std::vector<double> generate = AppFlowResult::fastest(r.generateMs);
    const std::vector<double> retarget = AppFlowResult::fastest(r.retargetMs);
    out.set("generate_p50_ms", percentile(generate, 0.5), "ms");
    out.set("generate_p90_ms", percentile(generate, 0.9), "ms");
    out.set("retarget_p50_ms", percentile(retarget, 0.5), "ms");
    out.set("retarget_p90_ms", percentile(retarget, 0.9), "ms");
    std::printf("app_flow: %zu apps x %zu passes; generate p50 %.3f ms p90 "
                "%.3f ms; retarget p50 %.3f ms p90 %.3f ms (fastest "
                "repeat per app); digest %s\n",
                generate.size(), r.passes, percentile(generate, 0.5),
                percentile(generate, 0.9), percentile(retarget, 0.5),
                percentile(retarget, 0.9), r.digest().c_str());
}

void
reportExplore(const ExploreResult &r, Outcome &out)
{
    // The upper quartile of the sweeps' rates. Sweeps of one run differ
    // by up to 1.5x with which worker picks which point, so the fastest
    // is a lucky schedule; another tenant's load on the host lasts seconds to
    // minutes and slows a run's median with the sweeps under it. The
    // upper quartile is as steady as the median under the first and
    // ignores a slow stretch of up to a quarter of the sweeps.
    const double cold = percentile(r.coldPointsPerS, 0.75);
    const double warm = percentile(r.warmPointsPerS, 0.75);
    out.set("explore_cold_points_per_s", cold, "1/s");
    out.set("explore_warm_points_per_s", warm, "1/s");
    std::printf("explore_sweep: %zu cold / %zu warm sweeps; cold %.1f "
                "points/s (upper quartile; median %.1f), warm %.1f "
                "points/s (upper quartile; median %.1f); digest %s\n",
                r.coldPointsPerS.size(), r.warmPointsPerS.size(), cold,
                median(r.coldPointsPerS), warm, median(r.warmPointsPerS),
                r.digest.c_str());
    std::printf("explore_sweep: cold points/s by sweep:");
    for (const double rate : r.coldPointsPerS)
        std::printf(" %.0f", rate);
    std::printf("\n");
}

void
reportServe(const ServeResult &r, Outcome &out)
{
    // Per window of whole mix cycles, then the lower quartile over the
    // windows: the host's other load lasts longer than a window, and
    // this ignores it in up to a quarter of them, where the percentile
    // over every request would follow it. A stall that recurs at least
    // once per window (~2.3 s) still moves every window.
    const std::vector<double> p50s = r.windowPercentiles(0.5);
    const double p50 = percentile(p50s, 0.25);
    const double p99 = percentile(r.windowPercentiles(0.99), 0.25);
    out.set("serve_p50_ms", p50, "ms");
    out.set("serve_p99_ms", p99, "ms");
    std::printf("serve_mix: %zu requests in %zu windows; p50 %.3f ms p99 "
                "%.3f ms (lower quartile of windows; over all requests "
                "%.3f and %.3f ms) from due time; digest %s\n",
                r.latencyMs.size(), p50s.size(), p50, p99,
                percentile(r.latencyMs, 0.5), percentile(r.latencyMs, 0.99),
                r.digest.hex().c_str());
}

/** The untraced run. Its time is cut into rounds; each round runs a
 *  slice of the named workload's phase (40 % of the time overall) and a
 *  slice of each companion phase. Host load on a shared machine comes
 *  and goes over tens of seconds, so spreading every phase across the
 *  whole run keeps one slow stretch from landing on one phase. */
void
runUntraced(const RunConfig &config, Inputs &inputs,
            LazyFixture &fixture, Outcome &out)
{
    auto slice = [&](WorkloadKind kind) {
        const double share = kind == config.workload
            ? kFocusShare : (1 - kFocusShare) / 2;
        return config.seconds * share / kRounds;
    };
    std::vector<WorkloadKind> order = {config.workload};
    for (const WorkloadKind kind :
         {WorkloadKind::AppFlow, WorkloadKind::ExploreSweep,
          WorkloadKind::ServeMix})
        if (kind != config.workload)
            order.push_back(kind);

    AppFlowResult app;
    ExploreResult explore;
    ServeResult serve;
    for (int round = 0; round < kRounds; ++round)
        for (const WorkloadKind kind : order) {
            switch (kind) {
              case WorkloadKind::AppFlow:
                runAppFlow(inputs, slice(kind), false, out, app);
                break;
              case WorkloadKind::ExploreSweep:
                runExploreSweep(inputs, config, slice(kind), false, out,
                                explore);
                break;
              case WorkloadKind::ServeMix:
                if (ServeFixture *f = fixture.get(out))
                    runServeMix(*f, inputs, config, slice(kind), false,
                                out, serve);
                break;
            }
            if (round == 0 && kind == config.workload)
                // Nothing but set-up and the named workload has run
                // yet, and the serve fixture starts with the first
                // serve slice: the peak of the process running the
                // workload alone.
                out.set("peak_rss_mb", peakRssMb(), "MB");
        }
    reportAppFlow(app, out);
    reportExplore(explore, out);
    reportServe(serve, out);
}

/** The traced run: the named phase untraced, then traced. */
void
runTraced(const RunConfig &config, Inputs &inputs, LazyFixture &fixture,
          Outcome &out)
{
    for (const auto &[name, unit] : perLayerMetrics())
        out.set(name, 0, unit);
    const double half = config.seconds / 2;
    double untraced = 0, traced = 0;
    switch (config.workload) {
      case WorkloadKind::AppFlow: {
        AppFlowResult plain, spanned;
        runAppFlow(inputs, half, false, out, plain);
        trace::setEnabled(true);
        runAppFlow(inputs, half, true, out, spanned);
        untraced = percentile(AppFlowResult::fastest(plain.generateMs), 0.5);
        traced = percentile(AppFlowResult::fastest(spanned.generateMs), 0.5);
        break;
      }
      case WorkloadKind::ExploreSweep: {
        ExploreResult plain, spanned;
        runExploreSweep(inputs, config, half, false, out, plain);
        trace::setEnabled(true);
        runExploreSweep(inputs, config, half, true, out, spanned);
        // A rate: invert so a positive overhead means slower.
        untraced = 1 / median(plain.coldPointsPerS);
        traced = 1 / median(spanned.coldPointsPerS);
        break;
      }
      case WorkloadKind::ServeMix: {
        ServeFixture *f = fixture.get(out);
        if (!f)
            break;
        ServeResult plain, spanned;
        runServeMix(*f, inputs, config, half, false, out, plain);
        trace::setEnabled(true);
        runServeMix(*f, inputs, config, half, true, out, spanned);
        untraced = median(plain.latencyMs);
        traced = median(spanned.latencyMs);
        break;
      }
    }
    trace::setEnabled(false);
    const double overhead =
        untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0;
    setLayer(out, "trace.overhead_pct", overhead);
    std::printf("tracing overhead on the %s headline metric: %+.2f %% "
                "(untraced %.4f, traced %.4f)\n",
                kWorkloadNames[static_cast<int>(config.workload)], overhead,
                untraced, traced);

    trace::printSelfTimes(trace::aggregate());
    const std::string path = config.outDir + "/trace_" +
        kWorkloadNames[static_cast<int>(config.workload)] + "_s" +
        std::to_string(config.seed) + ".json";
    if (trace::writeChromeTrace(path))
        std::printf("chrome trace: %s\n", path.c_str());
    else
        out.fail("cannot write the trace file " + path);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    const RunConfig &config = args.config;
    std::error_code ec;
    std::filesystem::create_directories(config.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     config.outDir.c_str());
        return 1;
    }

    // ---- set-up: run.py times start to "ready" with --setup-only
    pinAllocator();
    Inputs inputs = Inputs::make(config.seed);
    warmSingletons();
    LazyFixture fixture(config.threads);
    Outcome out;
    if (args.setupOnly) {
        if (!fixture.get(out))
            return 1;
        std::printf("ready\n");
        std::fflush(stdout);
        return 0;
    }

    std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d, "
                "%u threads\n",
                kWorkloadNames[static_cast<int>(config.workload)],
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0, config.threads);
    if (config.trace)
        runTraced(config, inputs, fixture, out);
    else
        runUntraced(config, inputs, fixture, out);

    std::printf("%s\n", out.json().c_str());
    std::fflush(stdout);
    return out.correct() && out.failed == 0 ? 0 : 1;
}
