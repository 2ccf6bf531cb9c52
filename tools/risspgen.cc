/**
 * @file
 * risspgen — command-line front end for the RISSP generation flow.
 *
 *   risspgen characterize <src.c> [-O2]     subset + codesize report
 *   risspgen run <src.c> [-O2] [--verify]   execute on the generated
 *                                           RISSP (prints exit/MMIO;
 *                                           --verify co-simulates)
 *   risspgen synth <src.c> [-O2]            synthesis + physical
 *            [--tech <spec>]                summary vs the baselines
 *   risspgen retarget <src.c> [-O2]         rewrite onto the minimal
 *                                           12-op subset and verify
 *   risspgen explore <plan> [--threads N]   sweep a (subset x
 *            [--no-verify] [--physical]     workload x tech) design
 *            [--csv FILE] [--quiet]         space in parallel and
 *                                           report the Pareto
 *                                           frontier
 *   risspgen table3                         regenerate Table 3 for
 *                                           the bundled workloads
 *   risspgen techs                          list the registered
 *                                           technologies
 *   risspgen batch <file|-> [--threads N]   serve many requests
 *                                           concurrently (one per
 *                                           line; see batch grammar
 *                                           below)
 *   risspgen serve [--port N] [--threads N] long-lived HTTP/JSON
 *            [--max-queue N] [--bind ADDR]  daemon over the Flow API
 *            [--max-connections N]          (see docs/SERVE.md)
 *            [--idle-timeout SECONDS]
 *
 * Every verb accepts --json: the machine-readable response from the
 * Flow API, verbatim (see flow/json.hh), instead of the human table
 * — for explore, the same bytes `POST /api/v1/explore` serves.
 *
 * Sources are MiniC (see README). A source argument of the form
 * `@name` selects a bundled workload (e.g. @armpit, @crc32). `synth
 * --tech <spec>` costs the design on a registered technology
 * (tech/registry.hh grammar), e.g. --tech silicon-65nm or --tech
 * flexic-0.6um:voltage=2.4,ffPowerRatio=8. Explore plan files use
 * the grammar of explore/plan.hh (examples/demo.plan is a 9-point
 * one); --threads (else the plan's `threads` line) sizes the
 * workers the sweep runs on, and any value emits the same table.
 * --no-verify skips lock-step co-simulation, --physical adds the P&R
 * model per point, --csv writes the full table.
 *
 * Batch files are line-oriented; '#' starts a comment. Each line is
 * a request in the verb syntax above, parsed by the same function as
 * the command line, so a line takes the same request flags (explore's
 * --threads is not one: the batch's own --threads sizes every line's
 * sweep):
 *
 *   characterize @crc32 -O1
 *   run @armpit --verify
 *   synth @crc32 --tech silicon-65nm
 *   retarget bench.c
 *   explore sweep.plan --physical
 *
 * The whole batch is handed to `FlowService::runBatch`, which runs
 * every request as one task on one shared work-stealing
 * scheduler — identical in-flight work (the same
 * source compiled, the same subset swept) is computed once for the
 * whole batch. Responses print in request order with a per-request
 * status; the exit code is 0 only if every request succeeded.
 *
 * This main is a thin adapter: it loads files, builds a request,
 * calls `flow::FlowService`, and formats the response. All pipeline
 * logic — and all input validation — lives behind the service, so a
 * malformed request exits with a structured error, never an abort.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "flow/flow.hh"
#include "flow/json.hh"
#include "net/server.hh"
#include "store/disk_store.hh"
#include "tech/registry.hh"
#include "util/json.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace rissp;

/** The output side of the command line: flags that shape what is
 *  printed, where artifacts live or how many workers the service
 *  runs, never what a request asks. */
struct CliOptions
{
    std::string command;
    std::string cacheDir; ///< --cache-dir value; empty = no store
    std::string csvPath;  ///< explore --csv value; empty = no CSV
    unsigned threads = 0; ///< explore --threads value; 0 = the plan's
    bool quiet = false;   ///< explore: drop the per-point table
    bool json = false;
};

/** Open the persistent artifact store named by --cache-dir; a null
 *  result with an ok status means no --cache-dir was given. Unlike
 *  the in-service open (which degrades to memory-only with a
 *  warning), the CLI fails loudly — a user who typed --cache-dir
 *  wants to know it did not attach. */
Result<std::shared_ptr<store::ArtifactStore>>
openCliStore(const CliOptions &cli)
{
    if (cli.cacheDir.empty())
        return std::shared_ptr<store::ArtifactStore>();
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(cli.cacheDir);
    if (!opened)
        return opened.status();
    return std::shared_ptr<store::ArtifactStore>(opened.take());
}

/** Map an `-Ox` word to its level; false when it is not one. */
bool
optLevelFromWord(const std::string &word, minic::OptLevel &out)
{
    if (word == "-O0") out = minic::OptLevel::O0;
    else if (word == "-O1") out = minic::OptLevel::O1;
    else if (word == "-O2") out = minic::OptLevel::O2;
    else if (word == "-O3") out = minic::OptLevel::O3;
    else if (word == "-Oz") out = minic::OptLevel::Oz;
    else return false;
    return true;
}

/** The ParseError for a word no flag of @p verb consumes. */
Status
unknownFlag(const std::string &word, const std::string &verb)
{
    return Status::errorf(ErrorCode::ParseError,
                          "unknown flag '%s' for '%s'", word.c_str(),
                          verb.c_str());
}

/** Parse a non-negative integer CLI value (no sign, no suffix, at
 *  most @p max); false on anything else. */
bool
parseCount(const std::string &word, unsigned long max,
           unsigned long &out)
{
    size_t used = 0;
    try {
        out = std::stoul(word, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    return !word.empty() && used == word.size() && word[0] != '-' &&
           out <= max;
}

/** Report a failed request and pick the exit code. */
int
reportError(const Status &status, bool json)
{
    if (json)
        std::fputs(flow::toJson(status).c_str(), stdout);
    else
        std::fprintf(stderr, "risspgen: error: %s\n",
                     status.toString().c_str());
    return 1;
}

/** Read a whole file (MiniC sources, batch files, plan files — all
 *  IO happens here, at the CLI edge; the service never opens
 *  paths). */
Result<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::errorf(ErrorCode::NotFound,
                              "cannot open '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Resolve a CLI source argument: `@name` stays a workload
 *  reference (the service validates it); anything else is a file
 *  read at the edge. */
Result<flow::SourceRef>
resolveSource(const std::string &arg)
{
    if (!arg.empty() && arg[0] == '@')
        return flow::SourceRef::bundled(arg.substr(1));
    Result<std::string> text = readFile(arg);
    if (!text)
        return text.status();
    return flow::SourceRef::inlineText(text.take(), arg);
}

/** The verbs whose words `parseRequest` turns into a request. */
bool
isRequestVerb(const std::string &verb)
{
    return verb == "characterize" || verb == "run" ||
           verb == "synth" || verb == "retarget" || verb == "explore";
}

/** A source verb's request with its source and -O level set. */
template <typename SourceRequest>
SourceRequest
sourced(flow::SourceRef source, minic::OptLevel level)
{
    SourceRequest request;
    request.source = std::move(source);
    request.opt = level;
    return request;
}

/**
 * Turn `<verb> <source> [request flags]` into a request. This is the
 * one parser behind the one-shot verbs and batch lines, so both take
 * and refuse the same words with the same message. The source is
 * `@workload` or a MiniC file, or a plan file for explore. Request
 * flags: an -O level on the four source verbs, `--verify` on run,
 * `--tech <spec>` on synth, and `--no-verify` and `--physical` on
 * explore; any other word is a ParseError naming it. The flags are
 * read before the source is opened, and all file IO happens here, at
 * the edge: the request handed to the service is self-contained.
 */
Result<flow::Request>
parseRequest(const std::vector<std::string> &words)
{
    if (words.size() < 2)
        return Status::error(ErrorCode::ParseError,
                             "expected '<verb> <source> [flags]'");
    const std::string &verb = words[0];
    const bool isExplore = verb == "explore";
    if (!isRequestVerb(verb))
        return Status::errorf(ErrorCode::ParseError,
                              "unknown verb '%s' (characterize, run, "
                              "synth, retarget, explore)",
                              verb.c_str());

    minic::OptLevel level = minic::OptLevel::O2;
    bool verify = false;
    explore::TechSpec tech;
    explore::ExplorerOptions options;
    for (size_t i = 2; i < words.size(); ++i) {
        const std::string &word = words[i];
        if (!isExplore && optLevelFromWord(word, level))
            continue;
        if (verb == "run" && word == "--verify") {
            verify = true;
        } else if (isExplore && word == "--no-verify") {
            options.verify = false;
        } else if (isExplore && word == "--physical") {
            options.physical = true;
        } else if (verb == "synth" && word == "--tech") {
            if (i + 1 >= words.size())
                return Status::errorf(ErrorCode::ParseError,
                                      "%s needs a value", word.c_str());
            Result<explore::TechSpec> spec =
                explore::TechSpec::fromSpec(words[++i]);
            if (!spec)
                return spec.status();
            tech = spec.take();
        } else {
            return unknownFlag(word, verb);
        }
    }

    if (isExplore) {
        Result<std::string> plan = readFile(words[1]);
        if (!plan)
            return plan.status();
        flow::ExploreRequest request;
        request.planText = plan.take();
        request.options = options;
        return flow::Request(std::move(request));
    }
    Result<flow::SourceRef> source = resolveSource(words[1]);
    if (!source)
        return source.status();
    if (verb == "characterize")
        return flow::Request(sourced<flow::CharacterizeRequest>(
            source.take(), level));
    if (verb == "run") {
        flow::RunRequest request =
            sourced<flow::RunRequest>(source.take(), level);
        request.verify = verify;
        return flow::Request(std::move(request));
    }
    if (verb == "synth") {
        flow::SynthRequest request =
            sourced<flow::SynthRequest>(source.take(), level);
        request.tech = std::move(tech);
        return flow::Request(std::move(request));
    }
    return flow::Request(
        sourced<flow::RetargetRequest>(source.take(), level));
}

// Human-readable response printers: one per response kind, shared by
// the one-shot verbs and the batch verb.

void
printCharacterize(const flow::CharacterizeResponse &response)
{
    const InstrSubset &subset = response.subset.subset;
    std::printf("optimization   : %s\n",
                minic::optLevelName(response.compile.opt).c_str());
    std::printf("code size      : %zu instructions (%zu bytes)\n",
                response.compile.staticInstructions,
                response.compile.textBytes);
    std::printf("runtime helpers:");
    for (const std::string &h : response.compile.helpers)
        std::printf(" %s", h.c_str());
    std::printf("%s\n",
                response.compile.helpers.empty() ? " (none)" : "");
    std::printf("subset         : %zu of %zu base instructions "
                "(%.0f%%)\n", subset.size(), kFullIsaSize,
                subset.fractionOfFullIsa() * 100.0);
    std::printf("instructions   : %s\n", subset.describe().c_str());
}

void
printRun(const flow::RunResponse &response)
{
    const flow::ExecStage &exec = response.exec;
    const char *why = exec.reason == StopReason::Halted ? "halted"
        : exec.reason == StopReason::Trapped ? "TRAPPED"
        : "step limit";
    std::printf("%s at pc=0x%x after %llu cycles, exit code %u\n",
                why, exec.stopPc,
                static_cast<unsigned long long>(exec.cycles),
                exec.exitCode);
    if (!exec.outputWords.empty()) {
        std::printf("output words  :");
        for (uint32_t w : exec.outputWords)
            std::printf(" %u", w);
        std::printf("\n");
    }
    if (!exec.outputText.empty())
        std::printf("output text   : %s\n", exec.outputText.c_str());
    const flow::CosimStage &cosim = response.cosim;
    if (cosim.run && cosim.passed)
        std::printf("co-simulation : passed, %llu RVFI events "
                    "checked\n",
                    static_cast<unsigned long long>(
                        cosim.rvfiEventsChecked));
}

void
printSynth(const flow::SynthResponse &response)
{
    const SynthReport &mine = response.synth.app;
    const SynthReport &full = response.synth.fullIsa;
    const SynthReport &serv = response.synth.serv;
    const PhysReport &impl = response.phys.report;

    std::printf("%-14s %8s %10s %10s %10s\n", "design", "instrs",
                "fmax kHz", "area GE", "power mW");
    std::printf("%-14s %8zu %10.0f %10.0f %10.3f\n",
                mine.name.c_str(), mine.subsetSize, mine.fmaxKhz,
                mine.avgAreaGe, mine.avgPowerMw);
    std::printf("%-14s %8zu %10.0f %10.0f %10.3f\n",
                full.name.c_str(), full.subsetSize, full.fmaxKhz,
                full.avgAreaGe, full.avgPowerMw);
    std::printf("%-14s %8s %10.0f %10.0f %10.3f\n",
                serv.name.c_str(), "full", serv.fmaxKhz,
                serv.avgAreaGe, serv.avgPowerMw);
    std::printf("\nsavings vs RISSP-RV32E: area %.0f%%, power "
                "%.0f%%\n",
                (1.0 - mine.avgAreaGe / full.avgAreaGe) * 100.0,
                (1.0 - mine.avgPowerMw / full.avgPowerMw) * 100.0);
    // The paper's process keeps its familiar label; any other
    // technology is reported under its registry name.
    const std::string &tech = response.synth.tech;
    std::printf("%s at %.0f kHz: %.0f x %.0f um, %.2f mm2, FF "
                "%.1f%%, %.3f mW\n",
                tech == "flexic-0.6um" ? "FlexIC" : tech.c_str(),
                impl.implKhz, impl.dieXUm, impl.dieYUm,
                impl.dieAreaMm2, impl.ffAreaFraction * 100.0,
                impl.powerMw);
}

void
printRetarget(const flow::RetargetResponse &response)
{
    const RetargetResult &res = response.retarget.result;
    if (!res.ok) {
        std::printf("retargeting failed: %s\n", res.error.c_str());
        return;
    }
    std::printf("macros         : %zu synthesized+verified\n",
                res.macros.size());
    std::printf("code size      : %zu -> %zu bytes (%+.1f%%)\n",
                res.initialTextBytes, res.retargetedTextBytes,
                res.codeGrowth() * 100.0);
    std::printf("distinct ops   : %zu -> %zu\n",
                res.initialSubset.size(), res.finalSubset.size());
    const flow::EquivalenceStage &eq = response.equivalence;
    std::printf("equivalence    : %s (exit %u vs %u)\n",
                eq.matched ? "verified" : "MISMATCH", eq.refExit,
                eq.dutExit);
}

/** The per-point table (unless @p quiet), the Pareto frontier, and a
 *  summary line that counts memo lookups per point as hits/lookups:
 *  compile (the point's workload, and the workload behind an
 *  @workload subset), sim (one under the point's projected key, i.e.
 *  its subset cut down to the workload's own ops, plus one under the
 *  whole subset when the projected run trapped on an op outside
 *  them) and synth (one per point). Misses are the distinct keys:
 *  the compiles, runs and synthesis sweeps the sweep made. */
void
printExplore(const flow::ExploreResponse &response, bool quiet)
{
    const explore::ResultTable &table = response.table;
    if (!quiet) {
        std::printf("%-4s %-18s %-14s %-12s %6s %9s %10s %8s %10s "
                    "%9s\n", "#", "subset", "workload", "tech", "ops",
                    "cosim", "cycles", "fmax", "area GE", "power mW");
        for (const explore::ExplorationResult &r : table.rows()) {
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

    const std::vector<size_t> frontier = table.paretoFrontier();
    std::printf("\nPareto frontier (min cycles, area, power): "
                "%zu of %zu points\n", frontier.size(),
                table.size());
    for (size_t i : frontier) {
        const explore::ExplorationResult &r = table.row(i);
        std::printf("  #%-3zu %-18s x %-14s cycles=%llu "
                    "area=%.0fGE power=%.3fmW\n", r.index,
                    r.subsetName.c_str(), r.workloadName.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.avgAreaGe, r.avgPowerMw);
    }

    const explore::ExplorerStats &stats = response.stats;
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
}

/** Whether a response carries a report: its verb's primary stage
 *  ran. A trapped run or a retarget that failed its equivalence
 *  check still reports (and exits 1); a request that never got that
 *  far is only an error. */
bool
hasReport(const flow::Response &response)
{
    if (const auto *r = std::get_if<flow::RunResponse>(&response))
        return r->exec.run;
    if (const auto *r = std::get_if<flow::RetargetResponse>(&response))
        return r->retarget.run;
    return flow::responseStatus(response).isOk();
}

/** Print a response that has a report for a human. */
void
printResponse(const flow::Response &response, bool quiet)
{
    if (const auto *r =
            std::get_if<flow::CharacterizeResponse>(&response))
        printCharacterize(*r);
    else if (const auto *r = std::get_if<flow::RunResponse>(&response))
        printRun(*r);
    else if (const auto *r =
                 std::get_if<flow::SynthResponse>(&response))
        printSynth(*r);
    else if (const auto *r =
                 std::get_if<flow::RetargetResponse>(&response))
        printRetarget(*r);
    else if (const auto *r =
                 std::get_if<flow::ExploreResponse>(&response))
        printExplore(*r, quiet);
}

/** A one-shot request verb: @p words is `<verb> <source> [request
 *  flags]`, the output flags already taken off into @p cli. Only a
 *  clean response exits 0; a word no flag takes exits 2. */
int
cmdRequest(const CliOptions &cli, const std::vector<std::string> &words)
{
    Result<flow::Request> request = parseRequest(words);
    if (!request && request.status().code() == ErrorCode::ParseError) {
        std::fprintf(stderr, "risspgen: error: %s\n",
                     request.status().message().c_str());
        return 2;
    }
    if (!request)
        return reportError(request.status(), cli.json);

    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts)
        return reportError(artifacts.status(), cli.json);
    flow::ServiceOptions serviceOptions;
    serviceOptions.artifacts = artifacts.take();
    // An explore sweep runs on the service's workers: --threads, else
    // the plan's `threads` line. The plan is parsed once, here; one
    // that does not parse is left for the service to report.
    serviceOptions.schedulerThreads = cli.threads;
    if (auto *explore =
            std::get_if<flow::ExploreRequest>(&request.value())) {
        Result<explore::ExplorationPlan> plan =
            explore::ExplorationPlan::parse(explore->planText);
        if (plan) {
            explore->plan = plan.take();
            if (cli.threads == 0)
                serviceOptions.schedulerThreads = explore->plan->threads;
        }
    }
    const flow::FlowService service(serviceOptions);
    const flow::Response response = service.dispatch(request.value());
    const Status &status = flow::responseStatus(response);
    if (!hasReport(response))
        return reportError(status, cli.json);

    if (!cli.csvPath.empty()) {
        std::ofstream out(cli.csvPath);
        out << std::get<flow::ExploreResponse>(response).table.csv();
        if (!out)
            return reportError(
                Status::errorf(ErrorCode::InvalidArgument,
                               "cannot write '%s'",
                               cli.csvPath.c_str()),
                cli.json);
    }
    if (cli.json) {
        std::fputs(flow::toJson(response).c_str(), stdout);
        return status.isOk() ? 0 : 1;
    }
    printResponse(response, cli.quiet);
    if (!cli.csvPath.empty())
        std::printf("wrote %s\n", cli.csvPath.c_str());
    // A report with a failed verdict (a trap, a cosim mismatch, a
    // retarget that diverged) also names the failure on stderr.
    return status.isOk() ? 0 : reportError(status, false);
}

int
cmdTechs(const CliOptions &cli)
{
    const TechRegistry &registry = TechRegistry::builtins();
    if (cli.json) {
        std::printf("[\n");
        const auto &list = registry.list();
        for (size_t i = 0; i < list.size(); ++i) {
            const Technology &t = list[i];
            std::printf("  {\"name\": \"%s\", \"description\": "
                        "\"%s\", \"supply_v\": %g, "
                        "\"gate_delay_ns\": %g, "
                        "\"ff_power_ratio\": %g, "
                        "\"impl_khz\": %g}%s\n",
                        jsonEscape(t.name).c_str(),
                        jsonEscape(t.description).c_str(),
                        t.supplyVoltageV, t.gateDelayNs,
                        t.ffPowerMultiplier, t.implKhz,
                        i + 1 < list.size() ? "," : "");
        }
        std::printf("]\n");
        return 0;
    }
    std::printf("%-22s %8s %12s %8s  %s\n", "name", "supply",
                "gate delay", "FF/NAND2", "description");
    for (const Technology &t : registry.list())
        std::printf("%-22s %6.1f V %9.3f ns %7.0fx  %s\n",
                    t.name.c_str(), t.supplyVoltageV, t.gateDelayNs,
                    t.ffPowerMultiplier, t.description.c_str());
    std::printf("\nspec grammar: <name>[:key=value,...]   e.g. "
                "flexic-0.6um:voltage=2.4,ffPowerRatio=8\n");
    return 0;
}

int
cmdTable3(const CliOptions &cli)
{
    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts)
        return reportError(artifacts.status(), cli.json);
    flow::ServiceOptions serviceOptions;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    bool first = true;
    if (cli.json)
        std::printf("[\n");
    for (const Workload &wl : allWorkloads()) {
        flow::CharacterizeRequest request;
        request.source = flow::SourceRef::bundled(wl.name);
        const flow::CharacterizeResponse response =
            service.characterize(request);
        if (!response.status.isOk())
            return reportError(response.status, cli.json);
        if (cli.json) {
            std::string row = flow::toJson(response);
            row.pop_back(); // the emitter's trailing newline
            std::printf("%s%s", first ? "" : ",\n", row.c_str());
            first = false;
            continue;
        }
        const InstrSubset &subset = response.subset.subset;
        std::printf("%-16s (%2zu) %s\n", wl.name.c_str(),
                    subset.size(), subset.describe().c_str());
    }
    if (cli.json)
        std::printf("\n]\n");
    return 0;
}

// ---------------------------------------------------------- batch

/** `batch <file|-> [--threads N]`: @p words is the verb, the file
 *  and the batch's own flags; each line of the file is parsed by
 *  `parseRequest`. */
int
cmdBatch(const CliOptions &cli, const std::vector<std::string> &words)
{
    unsigned threads = 0;
    for (size_t i = 2; i < words.size(); ++i) {
        const std::string &arg = words[i];
        if (arg != "--threads") {
            std::fprintf(stderr,
                         "risspgen: unknown batch flag '%s'\n",
                         arg.c_str());
            return 2;
        }
        if (i + 1 >= words.size()) {
            std::fprintf(stderr, "risspgen: --threads needs a value\n");
            return 2;
        }
        const std::string &word = words[++i];
        unsigned long n = 0;
        if (!parseCount(word, 4096, n)) {
            std::fprintf(stderr,
                         "risspgen: bad --threads value '%s'\n",
                         word.c_str());
            return 2;
        }
        threads = static_cast<unsigned>(n);
    }

    std::string text;
    if (words[1] == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        Result<std::string> file = readFile(words[1]);
        if (!file)
            return reportError(file.status(), cli.json);
        text = file.take();
    }

    // Parse every line first; like plan files, one pass reports
    // every malformed line, not just the first.
    std::vector<std::string> texts; ///< request lines, for reports
    std::vector<flow::Request> requests;
    std::vector<std::string> errors;
    std::istringstream lines(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(lines, line)) {
        ++lineNo;
        // A comment '#' must start a word, so paths containing '#'
        // (e.g. my#file.c) survive.
        for (size_t hash = line.find('#');
             hash != std::string::npos;
             hash = line.find('#', hash + 1)) {
            if (hash == 0 || line[hash - 1] == ' ' ||
                line[hash - 1] == '\t') {
                line.erase(hash);
                break;
            }
        }
        const size_t last = line.find_last_not_of(" \t\r");
        if (last == std::string::npos)
            continue; // blank or comment-only
        line.erase(last + 1);
        std::istringstream in(line);
        std::vector<std::string> lineWords;
        for (std::string word; in >> word;)
            lineWords.push_back(word);
        Result<flow::Request> request = parseRequest(lineWords);
        if (!request) {
            errors.push_back(
                "batch line " + std::to_string(lineNo) + ": " +
                request.status().message());
            continue;
        }
        texts.push_back(line);
        requests.push_back(request.take());
    }
    if (!errors.empty()) {
        for (const std::string &message : errors)
            std::fprintf(stderr, "risspgen: error: %s\n",
                         message.c_str());
        return 2;
    }
    if (requests.empty()) {
        std::fprintf(stderr, "risspgen: error: batch file has no "
                             "requests\n");
        return 2;
    }

    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts)
        return reportError(artifacts.status(), cli.json);
    flow::ServiceOptions serviceOptions;
    serviceOptions.schedulerThreads = threads;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    const std::vector<flow::Response> responses =
        service.runBatch(requests);

    size_t failed = 0;
    if (cli.json)
        std::printf("[\n");
    for (size_t i = 0; i < responses.size(); ++i) {
        const Status &status = flow::responseStatus(responses[i]);
        if (!status.isOk())
            ++failed;
        if (cli.json) {
            std::string row = flow::toJson(responses[i]);
            row.pop_back(); // the emitter's trailing newline
            std::printf("%s%s\n", row.c_str(),
                        i + 1 < responses.size() ? "," : "");
            continue;
        }
        std::printf("%s=== request %zu: %s\n    status: %s\n",
                    i ? "\n" : "", i + 1, texts[i].c_str(),
                    status.toString().c_str());
        if (hasReport(responses[i]))
            printResponse(responses[i], false);
    }
    if (cli.json)
        std::printf("]\n");
    else
        std::printf("\n%zu/%zu requests succeeded\n",
                    responses.size() - failed, responses.size());
    return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------- cache

int
printCacheStats(const store::DiskStore &artifact_store, bool json)
{
    const store::DiskStore::Usage usage = artifact_store.usage();
    if (json) {
        std::printf("{\n  \"dir\": \"%s\",\n"
                    "  \"format_version\": %u,\n  \"kinds\": {\n",
                    jsonEscape(artifact_store.directory()).c_str(),
                    store::DiskStore::kFormatVersion);
        for (unsigned k = 0; k < store::kArtifactKindCount; ++k)
            std::printf("    \"%s\": {\"records\": %llu, "
                        "\"bytes\": %llu}%s\n",
                        store::kindName(
                            static_cast<store::ArtifactKind>(k)),
                        static_cast<unsigned long long>(
                            usage.kinds[k].records),
                        static_cast<unsigned long long>(
                            usage.kinds[k].bytes),
                        k + 1 < store::kArtifactKindCount ? ","
                                                          : "");
        std::printf(
            "  },\n  \"records\": %llu,\n  \"bytes\": %llu,\n"
            "  \"quarantine\": {\"files\": %llu, \"bytes\": "
            "%llu},\n  \"tmp_files\": %llu\n}\n",
            static_cast<unsigned long long>(usage.records),
            static_cast<unsigned long long>(usage.bytes),
            static_cast<unsigned long long>(usage.quarantineFiles),
            static_cast<unsigned long long>(usage.quarantineBytes),
            static_cast<unsigned long long>(usage.tmpFiles));
        return 0;
    }
    std::printf("store          : %s (format v%u)\n",
                artifact_store.directory().c_str(),
                store::DiskStore::kFormatVersion);
    for (unsigned k = 0; k < store::kArtifactKindCount; ++k)
        std::printf("%-15s: %llu records, %llu bytes\n",
                    store::kindName(
                        static_cast<store::ArtifactKind>(k)),
                    static_cast<unsigned long long>(
                        usage.kinds[k].records),
                    static_cast<unsigned long long>(
                        usage.kinds[k].bytes));
    std::printf("total          : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(usage.records),
                static_cast<unsigned long long>(usage.bytes));
    std::printf("quarantine     : %llu files, %llu bytes\n",
                static_cast<unsigned long long>(
                    usage.quarantineFiles),
                static_cast<unsigned long long>(
                    usage.quarantineBytes));
    std::printf("tmp            : %llu files\n",
                static_cast<unsigned long long>(usage.tmpFiles));
    return 0;
}

int
printCacheGc(const store::DiskStore::GcReport &report, bool json)
{
    if (json) {
        std::printf(
            "{\n  \"scanned\": {\"records\": %llu, \"bytes\": "
            "%llu},\n  \"evicted\": {\"records\": %llu, "
            "\"bytes\": %llu},\n  \"quarantine_purged\": %llu,\n"
            "  \"tmp_purged\": %llu,\n  \"remaining\": "
            "{\"records\": %llu, \"bytes\": %llu}\n}\n",
            static_cast<unsigned long long>(report.scannedRecords),
            static_cast<unsigned long long>(report.scannedBytes),
            static_cast<unsigned long long>(report.evictedRecords),
            static_cast<unsigned long long>(report.evictedBytes),
            static_cast<unsigned long long>(
                report.quarantinePurged),
            static_cast<unsigned long long>(report.tmpPurged),
            static_cast<unsigned long long>(
                report.remainingRecords),
            static_cast<unsigned long long>(
                report.remainingBytes));
        return 0;
    }
    std::printf("scanned        : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(
                    report.scannedRecords),
                static_cast<unsigned long long>(
                    report.scannedBytes));
    std::printf("evicted        : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(
                    report.evictedRecords),
                static_cast<unsigned long long>(
                    report.evictedBytes));
    std::printf("purged         : %llu quarantined, %llu tmp\n",
                static_cast<unsigned long long>(
                    report.quarantinePurged),
                static_cast<unsigned long long>(report.tmpPurged));
    std::printf("remaining      : %llu records, %llu bytes\n",
                static_cast<unsigned long long>(
                    report.remainingRecords),
                static_cast<unsigned long long>(
                    report.remainingBytes));
    return 0;
}

/** `cache warm`: run the expensive pipeline stages for the named
 *  (default: all bundled) workloads against the store, so the next
 *  boot — or a sibling process — starts hot. Explore requests fill
 *  the compile/sim/synth caches, synth requests the full-report
 *  cache plus the shared baselines. */
int
cmdCacheWarm(const CliOptions &cli,
             std::shared_ptr<store::ArtifactStore> artifact_store,
             const std::vector<std::string> &names, unsigned threads)
{
    std::vector<std::string> workloads;
    if (names.empty()) {
        for (const Workload &wl : allWorkloads())
            workloads.push_back(wl.name);
    } else {
        for (const std::string &name : names)
            workloads.push_back(name[0] == '@' ? name.substr(1)
                                               : name);
    }

    const uint64_t writesBefore = artifact_store->stats().writes;
    flow::ServiceOptions serviceOptions;
    serviceOptions.schedulerThreads = threads;
    serviceOptions.artifacts = std::move(artifact_store);
    const flow::FlowService service(serviceOptions);

    std::vector<flow::Request> requests;
    for (const std::string &name : workloads) {
        flow::ExploreRequest explore;
        explore.planText = "workload " + name + "\nsubset fit = @" +
                           name + "\n";
        requests.push_back(std::move(explore));

        flow::SynthRequest synth;
        synth.source = flow::SourceRef::bundled(name);
        synth.name = "RISSP-" + name;
        requests.push_back(std::move(synth));
    }

    const std::vector<flow::Response> responses =
        service.runBatch(requests);
    size_t failed = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
        const Status &status = flow::responseStatus(responses[i]);
        if (status.isOk())
            continue;
        ++failed;
        std::fprintf(stderr,
                     "risspgen: cache warm: request %zu (%s): %s\n",
                     i + 1, workloads[i / 2].c_str(),
                     status.toString().c_str());
    }
    const store::StoreStats after =
        service.caches()->artifacts->stats();
    if (cli.json) {
        std::printf("{\n  \"workloads\": %zu,\n  \"requests\": "
                    "%zu,\n  \"failed\": %zu,\n  \"published\": "
                    "%llu,\n  \"store_hits\": %llu\n}\n",
                    workloads.size(), responses.size(), failed,
                    static_cast<unsigned long long>(after.writes -
                                                    writesBefore),
                    static_cast<unsigned long long>(after.hits));
    } else {
        std::printf("warmed %zu workloads (%zu requests, %zu "
                    "failed): %llu records published, %llu "
                    "already hot\n",
                    workloads.size(), responses.size(), failed,
                    static_cast<unsigned long long>(after.writes -
                                                    writesBefore),
                    static_cast<unsigned long long>(after.hits));
    }
    return failed == 0 ? 0 : 1;
}

int
cmdCache(int argc, char **argv, const CliOptions &cli)
{
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr, "usage: risspgen cache "
                             "<stats|gc|warm> --cache-dir <dir> "
                             "[flags]\n");
        return 2;
    }
    const std::string sub = argv[2];

    unsigned long maxMb = 0;
    unsigned long maxAgeDays = 0;
    unsigned threads = 0;
    std::vector<std::string> names;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        unsigned long n = 0;
        if (arg == "--json") {
            continue; // taken off by main
        } else if (arg == "--cache-dir" && hasValue) {
            ++i; // taken off by main
        } else if (sub == "gc" && arg == "--max-mb" && hasValue &&
                   parseCount(argv[i + 1], 1'000'000'000ul, n)) {
            maxMb = n;
            ++i;
        } else if (sub == "gc" && arg == "--max-age-days" &&
                   hasValue &&
                   parseCount(argv[i + 1], 100'000ul, n)) {
            maxAgeDays = n;
            ++i;
        } else if (sub == "warm" && arg == "--threads" && hasValue &&
                   parseCount(argv[i + 1], 4096, n)) {
            threads = static_cast<unsigned>(n);
            ++i;
        } else if (sub == "warm" && arg[0] != '-') {
            names.push_back(arg);
        } else {
            std::fprintf(stderr,
                         "risspgen: bad cache %s flag or value at "
                         "'%s'\n",
                         sub.c_str(), arg.c_str());
            return 2;
        }
    }

    if (cli.cacheDir.empty()) {
        std::fprintf(stderr, "risspgen: cache %s needs "
                             "--cache-dir <dir>\n",
                     sub.c_str());
        return 2;
    }
    Result<std::shared_ptr<store::DiskStore>> opened =
        store::DiskStore::open(cli.cacheDir);
    if (!opened)
        return reportError(opened.status(), cli.json);
    std::shared_ptr<store::DiskStore> artifactStore = opened.take();

    if (sub == "stats")
        return printCacheStats(*artifactStore, cli.json);
    if (sub == "gc") {
        store::DiskStore::GcPolicy policy;
        policy.maxTotalBytes = maxMb * 1024 * 1024;
        policy.maxAgeSeconds =
            static_cast<int64_t>(maxAgeDays) * 24 * 3600;
        return printCacheGc(artifactStore->gc(policy), cli.json);
    }
    if (sub == "warm")
        return cmdCacheWarm(cli, artifactStore, names, threads);
    std::fprintf(stderr,
                 "risspgen: unknown cache subcommand '%s' "
                 "(stats, gc, warm)\n",
                 sub.c_str());
    return 2;
}

// ---------------------------------------------------------- serve

/** The running daemon, for the signal handler. The handler only
 *  calls requestShutdown(), which is one write(2) on a pre-opened
 *  pipe — async-signal-safe by construction. */
std::atomic<rissp::net::HttpServer *> g_server{nullptr};

extern "C" void
onTerminate(int)
{
    if (rissp::net::HttpServer *server =
            g_server.load(std::memory_order_acquire))
        server->requestShutdown();
}

int
cmdServe(int argc, char **argv, const CliOptions &cli)
{
    net::ServeOptions options;
    unsigned threads = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        unsigned long n = 0;
        if (arg == "--port" && hasValue &&
            parseCount(argv[i + 1], 65535, n)) {
            options.port = static_cast<uint16_t>(n);
            ++i;
        } else if (arg == "--threads" && hasValue &&
                   parseCount(argv[i + 1], 4096, n)) {
            threads = static_cast<unsigned>(n);
            ++i;
        } else if (arg == "--max-queue" && hasValue &&
                   parseCount(argv[i + 1], 1'000'000, n) && n > 0) {
            options.maxQueue = static_cast<size_t>(n);
            ++i;
        } else if (arg == "--max-connections" && hasValue &&
                   parseCount(argv[i + 1], 1'000'000, n) && n > 0) {
            options.maxConnections = static_cast<size_t>(n);
            ++i;
        } else if (arg == "--idle-timeout" && hasValue &&
                   parseCount(argv[i + 1], 86'400, n)) {
            // Seconds on the CLI; 0 disables idle reaping.
            options.idleTimeoutMs = static_cast<int>(n) * 1000;
            ++i;
        } else if (arg == "--bind" && hasValue) {
            options.bindAddress = argv[++i];
        } else if (arg == "--cache-dir" && hasValue) {
            ++i; // taken off by main
        } else {
            std::fprintf(stderr,
                         "risspgen: bad serve flag or value at "
                         "'%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts) {
        std::fprintf(stderr, "risspgen: error: %s\n",
                     artifacts.status().toString().c_str());
        return 1;
    }
    flow::ServiceOptions serviceOptions;
    serviceOptions.schedulerThreads = threads;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    net::HttpServer server(service, options);
    const Status status = server.start();
    if (!status.isOk()) {
        std::fprintf(stderr, "risspgen: error: %s\n",
                     status.toString().c_str());
        return 1;
    }
    g_server.store(&server, std::memory_order_release);
    std::signal(SIGTERM, onTerminate);
    std::signal(SIGINT, onTerminate);

    std::printf("risspgen: serving on %s:%u (scheduler threads=%u, "
                "queue=%zu, connections=%zu)\n",
                options.bindAddress.c_str(), server.port(),
                service.scheduler().threadCount(),
                options.maxQueue, options.maxConnections);
    std::fflush(stdout);

    server.waitUntilStopped();
    g_server.store(nullptr, std::memory_order_release);
    std::printf("risspgen: drained, all in-flight requests "
                "completed\n");
    return 0;
}

void
usage()
{
    std::printf(
        "usage: risspgen <command> [args]\n"
        "  characterize <src.c|@workload> [-O0..-Oz]\n"
        "  run          <src.c|@workload> [-O0..-Oz] [--verify]\n"
        "  synth        <src.c|@workload> [-O0..-Oz]\n"
        "               [--tech <name[:key=value,...]>]\n"
        "  retarget     <src.c|@workload> [-O0..-Oz]\n"
        "  explore      <plan-file> [--threads N] [--no-verify]\n"
        "               [--physical] [--csv FILE] [--quiet]\n"
        "         sweep a design space (plan grammar:\n"
        "         src/explore/plan.hh) and print its Pareto frontier\n"
        "  table3\n"
        "  techs                      list registered technologies\n"
        "  batch <file|-> [--threads N]\n"
        "         serve one request per line concurrently; a line is\n"
        "         one of the five verbs above with its request flags\n"
        "         (not --json, --csv, --quiet, --threads or\n"
        "         --cache-dir); --threads sizes every line's work\n"
        "  serve [--port N] [--bind ADDR] [--threads N]\n"
        "        [--max-queue N] [--max-connections N]\n"
        "        [--idle-timeout SECONDS]\n"
        "         long-lived HTTP/JSON daemon over the Flow API:\n"
        "         POST /api/v1/<verb>, GET /metrics, GET /healthz,\n"
        "         POST /shutdown; drains gracefully on SIGTERM\n"
        "         (endpoint + schema reference: docs/SERVE.md)\n"
        "  cache <stats|gc|warm> --cache-dir <dir>\n"
        "         inspect, garbage-collect (gc: [--max-mb N]\n"
        "         [--max-age-days N]) or pre-populate (warm:\n"
        "         [--threads N] [@workload...]) a persistent\n"
        "         artifact store (docs/CACHE.md)\n"
        "\n"
        "Every verb accepts --json (the Flow API response on stdout)\n"
        "and --cache-dir <dir>: persist compile/sim/synth artifacts\n"
        "across runs in a content-addressed store (created on first\n"
        "use).\n"
        "\n"
        "examples:\n"
        "  risspgen characterize @crc32 -O1 --json\n"
        "  risspgen run @armpit --verify\n"
        "  risspgen synth @crc32 --tech flexic-0.6um:voltage=2.4,"
        "ffPowerRatio=8\n"
        "  risspgen retarget bench.c -Oz\n"
        "  risspgen explore examples/demo.plan --threads 4 --physical"
        " --csv sweep.csv --quiet\n"
        "  risspgen explore sweep.plan --no-verify --json\n"
        "  risspgen table3 --json\n"
        "  risspgen techs\n"
        "  risspgen batch requests.txt --threads 4 --json\n"
        "  risspgen serve --port 8787 --threads 2 --cache-dir store\n"
        "  risspgen cache gc --cache-dir store --max-mb 512\n"
        "  risspgen cache warm --cache-dir store --threads 4 @crc32\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    CliOptions cli;
    cli.command = argv[1];

    // Take the output flags off: --json and --cache-dir on every
    // verb, --csv, --threads and --quiet on explore. What is left is
    // the verb's own words.
    const bool isExplore = cli.command == "explore";
    std::vector<std::string> words{cli.command};
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--cache-dir" ||
                   (isExplore && (arg == "--csv" || arg == "--threads"))) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "risspgen: %s needs a value\n",
                             arg.c_str());
                return 2;
            }
            const std::string value = argv[++i];
            if (arg != "--threads") {
                (arg == "--csv" ? cli.csvPath : cli.cacheDir) = value;
                continue;
            }
            unsigned long n = 0;
            if (!parseCount(value, 4096, n)) {
                std::fprintf(stderr, "risspgen: error: bad --threads "
                                     "value '%s'\n",
                             value.c_str());
                return 2;
            }
            cli.threads = static_cast<unsigned>(n);
        } else if (isExplore && arg == "--quiet") {
            cli.quiet = true;
        } else {
            words.push_back(arg);
        }
    }

    if (cli.command == "serve")
        return cmdServe(argc, argv, cli);
    if (cli.command == "cache")
        return cmdCache(argc, argv, cli);
    if (cli.command == "techs" || cli.command == "table3") {
        if (words.size() > 1) { // no flags of their own
            std::fprintf(stderr, "risspgen: error: %s\n",
                         unknownFlag(words[1], cli.command)
                             .message().c_str());
            return 2;
        }
        return cli.command == "techs" ? cmdTechs(cli) : cmdTable3(cli);
    }
    // The rest take a source (or for batch, a file or '-') first.
    if (words.size() < 2 || (words[1][0] == '-' && words[1] != "-")) {
        usage();
        return 2;
    }
    if (cli.command == "batch")
        return cmdBatch(cli, words);
    if (isRequestVerb(cli.command))
        return cmdRequest(cli, words);
    usage();
    return 2;
}
