/**
 * @file
 * rissp-explore — sweep a design space of (instruction subset,
 * workload, technology) points in parallel and report the Pareto
 * frontier.
 *
 *   rissp-explore <plan-file> [options]
 *   rissp-explore --demo [options]
 *
 * Options:
 *   --threads N    worker threads (overrides the plan; 1 = serial)
 *   --csv FILE     write the full result table as CSV
 *   --json FILE    write the full result table as JSON
 *   --no-verify    skip lock-step co-simulation (faster, unchecked)
 *   --physical     also run the P&R model per point
 *   --quiet        suppress the per-point table, print only summary
 *   --cache-dir D  persist compile/sim/synth artifacts in D so a
 *                  rerun of the same plan replays from disk
 *
 * The plan-file grammar is documented in explore/plan.hh; --demo runs
 * a built-in 3-subset x 3-workload cartesian plan (9 points). Results
 * are deterministic: any --threads value emits identical tables.
 *
 * The closing summary line counts memo lookups per point, as
 * hits/lookups: compile (the point's workload, and the workload
 * behind an @workload subset), sim (one under the point's projected
 * key, i.e. its subset cut down to the workload's own ops, plus one
 * under the whole subset when the projected run trapped on an op
 * outside them) and synth (one per point). Misses are the distinct
 * keys: the compiles, runs and synthesis sweeps the sweep made.
 *
 * A thin adapter over `flow::FlowService`: plan parsing, validation
 * and the sweep itself happen behind the service; a malformed plan
 * exits with every offending line listed, not an abort.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "flow/flow.hh"
#include "store/disk_store.hh"
#include "util/logging.hh"

namespace
{

using namespace rissp;
using namespace rissp::explore;

const char *kDemoPlan = R"(# rissp-explore built-in demo plan
# Three candidate subsets against three workloads: does a RISSP built
# for one application run the others, and what does each point cost?
opt O2
mode cartesian
workload crc32 aha-mont64 armpit
subset RISSP-crc32  = @crc32
subset RISSP-armpit = @armpit
subset RISSP-RV32E  = @full
)";

std::string
loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open plan file '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << content;
}

void
printTable(const ResultTable &table)
{
    std::printf("%-4s %-18s %-14s %-12s %6s %9s %10s %8s %10s %9s\n",
                "#", "subset", "workload", "tech", "ops", "cosim",
                "cycles", "fmax", "area GE", "power mW");
    for (const ExplorationResult &r : table.rows()) {
        const char *verdict = !r.simRun ? "--"
            : r.trapped ? "TRAP"
            : r.cosimPassed ? "pass"
            : "FAIL";
        std::printf("%-4zu %-18s %-14s %-12s %6zu %9s %10llu "
                    "%8.0f %10.0f %9.3f\n",
                    r.index, r.subsetName.c_str(),
                    r.workloadName.c_str(), r.techName.c_str(),
                    r.subsetSize, verdict,
                    static_cast<unsigned long long>(r.cycles),
                    r.fmaxKhz, r.avgAreaGe, r.avgPowerMw);
    }
}

void
printFrontier(const ResultTable &table)
{
    const std::vector<size_t> frontier = table.paretoFrontier();
    std::printf("\nPareto frontier (min cycles, area, power): "
                "%zu of %zu points\n", frontier.size(),
                table.size());
    for (size_t i : frontier) {
        const ExplorationResult &r = table.row(i);
        std::printf("  #%-3zu %-18s x %-14s cycles=%llu "
                    "area=%.0fGE power=%.3fmW\n", r.index,
                    r.subsetName.c_str(), r.workloadName.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.avgAreaGe, r.avgPowerMw);
    }
}

void
usage()
{
    std::printf(
        "usage: rissp-explore <plan-file>|--demo [options]\n"
        "  --threads N   worker threads (1 = serial)\n"
        "  --csv FILE    write result table as CSV\n"
        "  --json FILE   write result table as JSON\n"
        "  --no-verify   skip lock-step co-simulation\n"
        "  --physical    run the P&R model per point\n"
        "  --quiet       only the frontier and summary\n"
        "  --cache-dir D persist stage artifacts across runs\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }

    std::string planText;
    ExplorerOptions options;
    std::string csvPath;
    std::string jsonPath;
    std::string cacheDir;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--demo")
            planText = kDemoPlan;
        else if (arg == "--threads") {
            const std::string word = value();
            size_t used = 0;
            unsigned long n = 0;
            try {
                n = std::stoul(word, &used);
            } catch (const std::exception &) {
                used = 0;
            }
            if (used != word.size() || word[0] == '-' || n > 4096)
                fatal("bad --threads value '%s'", word.c_str());
            options.threads = static_cast<unsigned>(n);
        } else if (arg == "--cache-dir")
            cacheDir = value();
        else if (arg == "--csv")
            csvPath = value();
        else if (arg == "--json")
            jsonPath = value();
        else if (arg == "--no-verify")
            options.verify = false;
        else if (arg == "--physical")
            options.physical = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 2;
        } else {
            planText = loadFile(arg);
        }
    }
    if (planText.empty())
        fatal("no plan given (file argument or --demo)");

    flow::ServiceOptions serviceOptions;
    if (!cacheDir.empty()) {
        // Loud failure at the CLI edge: a user who typed --cache-dir
        // wants to know the store did not attach.
        Result<std::shared_ptr<store::DiskStore>> opened =
            store::DiskStore::open(cacheDir);
        if (!opened)
            fatal("--cache-dir: %s",
                  opened.status().toString().c_str());
        serviceOptions.artifacts = opened.take();
    }
    flow::FlowService service(serviceOptions);
    flow::ExploreRequest request;
    request.planText = planText;
    request.options = options;
    const flow::ExploreResponse response = service.explore(request);
    if (!response.status.isOk()) {
        std::fprintf(stderr, "rissp-explore: error: %s\n",
                     response.status.toString().c_str());
        return 1;
    }
    const ResultTable &table = response.table;

    if (!quiet)
        printTable(table);
    printFrontier(table);

    const ExplorerStats &stats = response.stats;
    std::printf("\n%llu points | compile %llu/%llu | sim %llu/%llu | "
                "synth %llu/%llu (memo hits/lookups)\n",
                static_cast<unsigned long long>(stats.points),
                static_cast<unsigned long long>(stats.compileHits),
                static_cast<unsigned long long>(stats.compileHits +
                                                stats.compileMisses),
                static_cast<unsigned long long>(stats.simHits),
                static_cast<unsigned long long>(stats.simHits +
                                                stats.simMisses),
                static_cast<unsigned long long>(stats.synthHits),
                static_cast<unsigned long long>(stats.synthHits +
                                                stats.synthMisses));

    if (!csvPath.empty()) {
        writeFile(csvPath, table.csv());
        std::printf("wrote %s\n", csvPath.c_str());
    }
    if (!jsonPath.empty()) {
        writeFile(jsonPath, table.json());
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
