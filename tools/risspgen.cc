/**
 * @file
 * risspgen — command-line front end for the RISSP generation flow.
 *
 *   risspgen characterize <src.c> [-O2]     subset + codesize report
 *   risspgen run <src.c> [-O2]              execute on the generated
 *                                           RISSP (prints exit/MMIO)
 *   risspgen synth <src.c> [-O2]            synthesis + physical
 *                                           summary vs the baselines
 *   risspgen retarget <src.c> [-O2]         rewrite onto the minimal
 *                                           12-op subset and verify
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
 * Flow API, verbatim (see flow/json.hh), instead of the human table.
 *
 * Batch files are line-oriented; '#' starts a comment. Each line is
 * a request in the familiar verb syntax:
 *
 *   characterize @crc32 -O1
 *   run @armpit --verify
 *   synth @crc32 --tech silicon-65nm
 *   retarget bench.c
 *   explore sweep.plan
 *
 * The whole batch is handed to `FlowService::runBatch`, which runs
 * every request as one task on one shared work-stealing
 * scheduler — identical in-flight work (the same
 * source compiled, the same subset swept) is computed once for the
 * whole batch. Responses print in request order with a per-request
 * status; the exit code is 0 only if every request succeeded.
 *
 * `synth` accepts --tech <spec> to cost the design on a registered
 * technology (tech/registry.hh grammar), e.g. --tech silicon-65nm or
 * --tech flexic-0.6um:voltage=2.4,ffPowerRatio=8.
 *
 * Sources are MiniC (see README). A file argument of the form
 * `@name` selects a bundled workload (e.g. @armpit, @crc32).
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

/** Everything parsed off the command line. */
struct CliOptions
{
    std::string command;
    std::string sourceArg;
    std::string techSpec; ///< --tech value; empty = default tech
    std::string cacheDir; ///< --cache-dir value; empty = no store
    minic::OptLevel level = minic::OptLevel::O2;
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

minic::OptLevel
parseLevel(int argc, char **argv, int first)
{
    minic::OptLevel level = minic::OptLevel::O2;
    for (int i = first; i < argc; ++i) {
        if (optLevelFromWord(argv[i], level))
            return level;
    }
    return level;
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

// Human-readable response printers, shared by the one-shot verbs
// and the batch verb; each returns the verb's exit code.

int
printCharacterize(const flow::CharacterizeResponse &response,
                  minic::OptLevel level)
{
    const InstrSubset &subset = response.subset.subset;
    std::printf("optimization   : %s\n",
                minic::optLevelName(level).c_str());
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
    return 0;
}

int
cmdCharacterize(const flow::FlowService &service,
                const flow::SourceRef &src, const CliOptions &cli)
{
    flow::CharacterizeRequest request;
    request.source = src;
    request.opt = cli.level;
    const flow::CharacterizeResponse response =
        service.characterize(request);
    if (!response.status.isOk())
        return reportError(response.status, cli.json);
    if (cli.json) {
        std::fputs(flow::toJson(response).c_str(), stdout);
        return 0;
    }
    return printCharacterize(response, cli.level);
}

int
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
    return exec.reason == StopReason::Halted ? 0 : 1;
}

int
cmdRun(const flow::FlowService &service, const flow::SourceRef &src,
       const CliOptions &cli)
{
    flow::RunRequest request;
    request.source = src;
    request.opt = cli.level;
    const flow::RunResponse response = service.run(request);
    // Trap and step-limit are valid outcomes of a valid request:
    // the exec stage ran, so report it; only a request that never
    // reached execution is an error.
    if (!response.exec.run)
        return reportError(response.status, cli.json);
    if (cli.json) {
        std::fputs(flow::toJson(response).c_str(), stdout);
        return response.exec.reason == StopReason::Halted ? 0 : 1;
    }
    return printRun(response);
}

int
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
    return 0;
}

int
cmdSynth(const flow::FlowService &service, const flow::SourceRef &src,
         const CliOptions &cli)
{
    flow::SynthRequest request;
    request.source = src;
    request.opt = cli.level;
    if (!cli.techSpec.empty()) {
        Result<explore::TechSpec> tech =
            explore::TechSpec::fromSpec(cli.techSpec);
        if (!tech)
            return reportError(tech.status(), cli.json);
        request.tech = tech.take();
    }
    const flow::SynthResponse response = service.synth(request);
    if (!response.status.isOk())
        return reportError(response.status, cli.json);
    if (cli.json) {
        std::fputs(flow::toJson(response).c_str(), stdout);
        return 0;
    }
    return printSynth(response);
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
printRetarget(const flow::RetargetResponse &response)
{
    const RetargetResult &res = response.retarget.result;
    if (!res.ok) {
        std::printf("retargeting failed: %s\n", res.error.c_str());
        return 1;
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
    return eq.matched ? 0 : 1;
}

int
cmdRetarget(const flow::FlowService &service,
            const flow::SourceRef &src, const CliOptions &cli)
{
    flow::RetargetRequest request;
    request.source = src;
    request.opt = cli.level;
    const flow::RetargetResponse response =
        service.retarget(request);
    if (!response.retarget.run)
        return reportError(response.status, cli.json);
    if (cli.json) {
        std::fputs(flow::toJson(response).c_str(), stdout);
        return response.status.isOk() ? 0 : 1;
    }
    return printRetarget(response);
}

int
cmdTable3(const flow::FlowService &service, const CliOptions &cli)
{
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

/** One parsed batch-file line. */
struct BatchEntry
{
    int line = 0;
    std::string text; ///< the request line, verbatim, for reports
    flow::Request request;
};

/**
 * Parse one batch line: `<verb> <source> [flags...]` where source
 * is `@workload`, a MiniC file, or (for explore) a plan file. File
 * IO happens here, at the edge — the requests handed to the service
 * are self-contained.
 */
Result<flow::Request>
parseBatchLine(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> words;
    for (std::string word; in >> word;)
        words.push_back(word);
    if (words.size() < 2)
        return Status::error(ErrorCode::ParseError,
                             "expected '<verb> <source> [flags]'");
    const std::string &verb = words[0];
    const std::string &sourceArg = words[1];

    if (verb == "explore") {
        Result<std::string> plan = readFile(sourceArg);
        if (!plan)
            return plan.status();
        flow::ExploreRequest request;
        request.planText = plan.take();
        if (words.size() > 2)
            return Status::errorf(ErrorCode::ParseError,
                                  "unknown explore flag '%s'",
                                  words[2].c_str());
        return flow::Request(std::move(request));
    }

    Result<flow::SourceRef> source = resolveSource(sourceArg);
    if (!source)
        return source.status();

    minic::OptLevel level = minic::OptLevel::O2;
    bool verify = false;
    std::string techSpec;
    for (size_t i = 2; i < words.size(); ++i) {
        const std::string &word = words[i];
        if (optLevelFromWord(word, level))
            continue;
        if (word == "--verify" && verb == "run") {
            verify = true;
            continue;
        }
        if (word == "--tech" && verb == "synth") {
            if (i + 1 >= words.size())
                return Status::error(ErrorCode::ParseError,
                                     "--tech needs a value");
            techSpec = words[++i];
            continue;
        }
        return Status::errorf(ErrorCode::ParseError,
                              "unknown flag '%s' for '%s'",
                              word.c_str(), verb.c_str());
    }

    if (verb == "characterize") {
        flow::CharacterizeRequest request;
        request.source = source.take();
        request.opt = level;
        return flow::Request(std::move(request));
    }
    if (verb == "run") {
        flow::RunRequest request;
        request.source = source.take();
        request.opt = level;
        request.verify = verify;
        return flow::Request(std::move(request));
    }
    if (verb == "synth") {
        flow::SynthRequest request;
        request.source = source.take();
        request.opt = level;
        if (!techSpec.empty()) {
            Result<explore::TechSpec> tech =
                explore::TechSpec::fromSpec(techSpec);
            if (!tech)
                return tech.status();
            request.tech = tech.take();
        }
        return flow::Request(std::move(request));
    }
    if (verb == "retarget") {
        flow::RetargetRequest request;
        request.source = source.take();
        request.opt = level;
        return flow::Request(std::move(request));
    }
    return Status::errorf(ErrorCode::ParseError,
                          "unknown verb '%s' (characterize, run, "
                          "synth, retarget, explore)",
                          verb.c_str());
}

/** The opt level a request was parsed with (for the human report
 *  of a characterize response). */
minic::OptLevel
requestOptLevel(const flow::Request &request)
{
    if (const auto *c =
            std::get_if<flow::CharacterizeRequest>(&request))
        return c->opt;
    return minic::OptLevel::O2;
}

/** Print one batch response body (human mode); mirrors what the
 *  one-shot verbs print when their primary stage ran. */
void
printBatchBody(const flow::Request &request,
               const flow::Response &response)
{
    if (const auto *r =
            std::get_if<flow::CharacterizeResponse>(&response)) {
        if (r->status.isOk())
            printCharacterize(*r, requestOptLevel(request));
    } else if (const auto *r =
                   std::get_if<flow::RunResponse>(&response)) {
        if (r->exec.run)
            printRun(*r);
    } else if (const auto *r =
                   std::get_if<flow::SynthResponse>(&response)) {
        if (r->status.isOk())
            printSynth(*r);
    } else if (const auto *r =
                   std::get_if<flow::RetargetResponse>(&response)) {
        if (r->retarget.run)
            printRetarget(*r);
    } else if (const auto *r =
                   std::get_if<flow::ExploreResponse>(&response)) {
        if (r->status.isOk())
            std::printf("%zu points swept, %zu on the Pareto "
                        "frontier\n",
                        r->table.size(),
                        r->table.paretoFrontier().size());
    }
}

int
cmdBatch(const CliOptions &cli, const std::string &fileArg,
         unsigned threads)
{
    std::string text;
    if (fileArg == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        Result<std::string> file = readFile(fileArg);
        if (!file)
            return reportError(file.status(), cli.json);
        text = file.take();
    }

    // Parse every line first; like plan files, one pass reports
    // every malformed line, not just the first.
    std::vector<BatchEntry> entries;
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
        Result<flow::Request> request = parseBatchLine(line);
        if (!request) {
            errors.push_back(
                "batch line " + std::to_string(lineNo) + ": " +
                request.status().message());
            continue;
        }
        BatchEntry entry;
        entry.line = lineNo;
        entry.text = line;
        entry.request = request.take();
        entries.push_back(std::move(entry));
    }
    if (!errors.empty()) {
        for (const std::string &message : errors)
            std::fprintf(stderr, "risspgen: error: %s\n",
                         message.c_str());
        return 2;
    }
    if (entries.empty()) {
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
    std::vector<flow::Request> requests;
    requests.reserve(entries.size());
    for (const BatchEntry &entry : entries)
        requests.push_back(entry.request);
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
                    i ? "\n" : "", i + 1, entries[i].text.c_str(),
                    status.toString().c_str());
        printBatchBody(entries[i].request, responses[i]);
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
        explore.options.threads = 1; // batch provides parallelism
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
            continue; // parsed by the global flag loop
        } else if (arg == "--cache-dir" && hasValue) {
            ++i; // parsed by the global flag loop
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
            ++i; // parsed by the global flag loop
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
        "  characterize <src.c|@workload> [-O0..-Oz] [--json]\n"
        "  run          <src.c|@workload> [-O0..-Oz] [--json]\n"
        "  synth        <src.c|@workload> [-O0..-Oz] [--json]\n"
        "               [--tech <name[:key=value,...]>]\n"
        "  retarget     <src.c|@workload> [-O0..-Oz] [--json]\n"
        "  table3 [--json]\n"
        "  techs  [--json]            list registered technologies\n"
        "  batch <file|-> [--threads N] [--json]\n"
        "         serve one request per line concurrently; lines\n"
        "         use the verb syntax above, plus 'run ... --verify'\n"
        "         and 'explore <plan-file>'\n"
        "  serve [--port N] [--bind ADDR] [--threads N]\n"
        "        [--max-queue N] [--max-connections N]\n"
        "        [--idle-timeout SECONDS]\n"
        "         long-lived HTTP/JSON daemon over the Flow API:\n"
        "         POST /api/v1/<verb>, GET /metrics, GET /healthz,\n"
        "         POST /shutdown; drains gracefully on SIGTERM\n"
        "         (endpoint + schema reference: docs/SERVE.md)\n"
        "  cache <stats|gc|warm> --cache-dir <dir> [--json]\n"
        "         inspect, garbage-collect (gc: [--max-mb N]\n"
        "         [--max-age-days N]) or pre-populate (warm:\n"
        "         [--threads N] [@workload...]) a persistent\n"
        "         artifact store (docs/CACHE.md)\n"
        "\n"
        "Every verb accepts --cache-dir <dir>: persist compile/sim/\n"
        "synth artifacts across runs in a content-addressed store\n"
        "(created on first use).\n");
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
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--tech") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "risspgen: --tech needs a value\n");
                return 2;
            }
            cli.techSpec = argv[++i];
        } else if (arg == "--cache-dir") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "risspgen: --cache-dir needs "
                                     "a value\n");
                return 2;
            }
            cli.cacheDir = argv[++i];
        }
    }
    cli.level = parseLevel(argc, argv, 3);

    // Only synth costs a design on a technology; anywhere else a
    // --tech would be silently ignored, which reads as "costed on
    // the named node" to the user.
    if (!cli.techSpec.empty() && cli.command != "synth") {
        std::fprintf(stderr, "risspgen: --tech only applies to "
                             "'synth'\n");
        return 2;
    }

    if (cli.command == "batch") {
        if (argc < 3) {
            usage();
            return 2;
        }
        unsigned threads = 0;
        for (int i = 3; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json")
                continue; // parsed by the global flag loop above
            if (arg == "--cache-dir") {
                ++i; // value parsed by the global flag loop above
                continue;
            }
            if (arg == "--threads") {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "risspgen: --threads "
                                         "needs a value\n");
                    return 2;
                }
                const std::string word = argv[++i];
                unsigned long n = 0;
                if (!parseCount(word, 4096, n)) {
                    std::fprintf(stderr,
                                 "risspgen: bad --threads value "
                                 "'%s'\n",
                                 word.c_str());
                    return 2;
                }
                threads = static_cast<unsigned>(n);
                continue;
            }
            std::fprintf(stderr,
                         "risspgen: unknown batch flag '%s'\n",
                         arg.c_str());
            return 2;
        }
        return cmdBatch(cli, argv[2], threads);
    }
    if (cli.command == "serve")
        return cmdServe(argc, argv, cli);
    if (cli.command == "cache")
        return cmdCache(argc, argv, cli);

    Result<std::shared_ptr<store::ArtifactStore>> artifacts =
        openCliStore(cli);
    if (!artifacts)
        return reportError(artifacts.status(), cli.json);
    flow::ServiceOptions serviceOptions;
    serviceOptions.artifacts = artifacts.take();
    const flow::FlowService service(serviceOptions);
    if (cli.command == "techs")
        return cmdTechs(cli);
    if (cli.command == "table3")
        return cmdTable3(service, cli);
    if (argc < 3 || argv[2][0] == '-') {
        usage();
        return 2;
    }
    cli.sourceArg = argv[2];

    Result<flow::SourceRef> src = resolveSource(cli.sourceArg);
    if (!src)
        return reportError(src.status(), cli.json);

    if (cli.command == "characterize")
        return cmdCharacterize(service, src.value(), cli);
    if (cli.command == "run")
        return cmdRun(service, src.value(), cli);
    if (cli.command == "synth")
        return cmdSynth(service, src.value(), cli);
    if (cli.command == "retarget")
        return cmdRetarget(service, src.value(), cli);
    usage();
    return 2;
}
