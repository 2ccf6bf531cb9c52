/**
 * @file
 * Sim-throughput microbenchmarks for the toolchain itself: decoder,
 * reference ISS, RISSP cycle simulator, lock-step cosimulation,
 * assembler, MiniC compiler, the synthesis model (whole runs and
 * frequency-sweep points/s) and the P&R model. These are repo-health
 * numbers (simulation throughput), not paper figures.
 *
 * Self-contained timing harness (no google-benchmark dependency) so
 * every CI configuration can run it. Besides the human-readable
 * table, results are written to BENCH_simspeed.json (see
 * docs/BENCHMARKS.md for the schema) so the throughput trajectory is
 * tracked across PRs.
 *
 *   bench_micro [--json <path>] [--min-time <seconds>] [--quick]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "compiler/driver.hh"
#include "core/rissp.hh"
#include "core/subset.hh"
#include "exec/scheduler.hh"
#include "flow/flow.hh"
#include "physimpl/physical.hh"
#include "sim/refsim.hh"
#include "synth/synthesis.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "verify/integration_verify.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace rissp;

struct BenchResult
{
    std::string name;
    uint64_t items = 0;       ///< work units processed
    double seconds = 0;       ///< wall time spent processing them
    const char *unit = "items";

    double rate() const { return seconds > 0 ? items / seconds : 0; }
};

/**
 * Run @p fn (which returns the number of items it processed)
 * repeatedly until at least @p min_time seconds elapsed.
 */
template <typename Fn>
BenchResult
measure(const std::string &name, const char *unit, double min_time,
        Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    BenchResult r;
    r.name = name;
    r.unit = unit;
    const auto start = clock::now();
    do {
        r.items += fn();
        r.seconds =
            std::chrono::duration<double>(clock::now() - start)
                .count();
    } while (r.seconds < min_time);
    return r;
}

const char *kLoopSrc =
    "int main() { int s = 0;"
    "  for (int i = 0; i < 1000; i++) s += i * 3 + (s >> 2);"
    "  return s & 0xFF; }";

void
writeJson(const std::string &path,
          const std::vector<BenchResult> &results)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "bench_micro: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    out << "{\n  \"schema\": \"rissp-simspeed-v1\",\n"
        << "  \"benchmarks\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        out << "    {\"name\": \"" << jsonEscape(r.name)
            << "\", \"unit\": \"" << jsonEscape(r.unit)
            << "\", \"items\": " << r.items
            << ", \"seconds\": " << jsonNum(r.seconds)
            << ", \"items_per_second\": " << jsonNum(r.rate())
            << (i + 1 < results.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_simspeed.json";
    double min_time = 1.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--min-time") &&
                   i + 1 < argc) {
            min_time = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--quick")) {
            min_time = 0.2;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json <path>] "
                         "[--min-time <seconds>] [--quick]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<BenchResult> results;
    auto bench = [&](const std::string &name, const char *unit,
                     auto &&fn) {
        results.push_back(measure(name, unit, min_time, fn));
        const BenchResult &r = results.back();
        std::printf("%-18s %12.3e %s/s  (%llu in %.2fs)\n",
                    r.name.c_str(), r.rate(), r.unit,
                    static_cast<unsigned long long>(r.items),
                    r.seconds);
        std::fflush(stdout);
    };

    // Decoder on a pool of random words.
    {
        Rng rng(42);
        std::vector<uint32_t> words;
        for (int i = 0; i < 4096; ++i)
            words.push_back(rng.next32());
        size_t next = 0;
        bench("decode", "instr", [&] {
            uint32_t acc = 0;
            for (int i = 0; i < 4096; ++i)
                acc += static_cast<uint32_t>(
                    decode(words[next++ & 4095]).op);
            // Defeat dead-code elimination without observable output.
            if (acc == 0xFFFFFFFFu)
                std::fputc(0, stderr);
            return 4096;
        });
    }

    minic::CompileResult cr =
        minic::compile(kLoopSrc, minic::OptLevel::O2);
    InstrSubset subset = InstrSubset::fromProgram(cr.program);

    // Reference ISS instruction throughput.
    {
        RefSim sim;
        bench("refsim_run", "instret", [&] {
            sim.reset(cr.program);
            return sim.run(10'000'000).instret;
        });
    }

    // RISSP cycle-simulator throughput: default (subset-specialized
    // interpreter), the gate-level structural engine (what run()
    // always was before specialization), and the specialized core
    // through the options entry point.
    {
        Rissp chip(subset, "bench");
        bench("rissp_run", "instret", [&] {
            chip.reset(cr.program);
            return chip.run(10'000'000).instret;
        });
        RisspRunOptions opts;
        opts.maxSteps = 10'000'000;
        opts.gateLevel = true;
        bench("rissp_run_generic", "instret", [&] {
            chip.reset(cr.program);
            return chip.run(opts).instret;
        });
        opts.gateLevel = false;
        bench("rissp_run_specialized", "instret", [&] {
            chip.reset(cr.program);
            return chip.run(opts).instret;
        });
    }

    // Co-simulation of a passing run: the compare-sink path (the
    // RISSP's fast core steps the reference once per retirement).
    bench("cosim", "instret", [&] {
        return cosimulate(cr.program, subset, 10'000'000).instret;
    });

    // Compiler front half of the flow.
    bench("compile_crc32", "compile", [&] {
        minic::CompileResult c = minic::compile(
            workloadByName("crc32").source, minic::OptLevel::O2);
        return c.program.segments.empty() ? 0 : 1;
    });

    // Assembler + runtime link.
    {
        minic::CompileResult crc = minic::compile(
            workloadByName("crc32").source, minic::OptLevel::O2);
        bench("assemble_runtime", "link", [&] {
            Program p = minic::linkProgram(crc.appAsm, crc.helpers);
            return p.segments.empty() ? 0 : 1;
        });
    }

    // Synthesis model on the full ISA.
    {
        SynthesisModel model;
        bench("synth_full_isa", "synth", [&] {
            SynthReport rpt = model.synthesize(
                InstrSubset::fullRv32e(), "RISSP-RV32E");
            return rpt.fmaxKhz > 0 ? 1 : 0;
        });
    }

    // Frequency-sweep throughput in points/s, isolated from netlist
    // construction: re-runs the sweep on a prepared report, which is
    // exactly the loop the incremental-sweep change optimized (the
    // old per-point report copy was ~9x slower here).
    {
        SynthesisModel model;
        SynthReport rpt = model.synthesize(
            InstrSubset::fullRv32e(), "RISSP-RV32E");
        bench("synth_sweep", "point", [&] {
            runFrequencySweep(rpt, model.tech());
            return rpt.sweep.size();
        });
    }

    // P&R model throughput on a pre-synthesized design.
    {
        SynthesisModel model;
        PhysicalModel phys;
        const SynthReport full_rpt =
            model.synthesize(InstrSubset::fullRv32e(), "RISSP-RV32E");
        bench("pnr_impl", "impl", [&] {
            PhysReport rpt =
                phys.implement(full_rpt, RfStyle::LatchArray);
            return rpt.totalGe > 0 ? 1 : 0;
        });
    }

    // Scheduler dispatch cost: how much the execution layer charges
    // per stage before the stage does any work — a graph of no-op
    // stages run to completion on the default worker pool.
    bench("sched_overhead", "task", [&] {
        exec::TaskGraph graph;
        for (int i = 0; i < 4096; ++i)
            graph.add([] {});
        exec::Scheduler scheduler;
        scheduler.runToCompletion(std::move(graph));
        return 4096;
    });

    // Flow-service throughput on an 8-request mixed batch,
    // sequential dispatch vs runBatch. Each iteration uses a fresh
    // service (cold caches), so the batched number wins by stage
    // overlap on the scheduler, not by cache reuse across
    // iterations; within one iteration both modes share work the
    // same way (the two synth requests reuse one baseline sweep).
    {
        std::vector<flow::Request> requests;
        flow::CharacterizeRequest characterize;
        characterize.source = flow::SourceRef::bundled("crc32");
        requests.push_back(characterize);
        characterize.source = flow::SourceRef::bundled("edn");
        requests.push_back(characterize);
        flow::RunRequest run;
        run.source = flow::SourceRef::bundled("armpit");
        requests.push_back(run);
        run.source = flow::SourceRef::bundled("crc32");
        run.verify = true;
        requests.push_back(run);
        flow::SynthRequest synth;
        synth.source = flow::SourceRef::bundled("crc32");
        requests.push_back(synth);
        synth.source = flow::SourceRef::bundled("edn");
        requests.push_back(synth);
        flow::RetargetRequest retarget;
        retarget.source = flow::SourceRef::bundled("crc32");
        requests.push_back(retarget);
        run.source = flow::SourceRef::bundled("aha-mont64");
        run.verify = false;
        requests.push_back(run);

        bench("flow_sequential", "request", [&] {
            const flow::FlowService service;
            for (const flow::Request &request : requests) {
                if (!flow::responseStatus(service.dispatch(request))
                         .isOk())
                    std::exit(1); // bench requests must be valid
            }
            return requests.size();
        });
        bench("flow_batch", "request", [&] {
            const flow::FlowService service;
            const std::vector<flow::Response> responses =
                service.runBatch(requests);
            for (const flow::Response &response : responses) {
                if (!flow::responseStatus(response).isOk())
                    std::exit(1);
            }
            return requests.size();
        });
    }

    writeJson(json_path, results);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
