#include "flow/json.hh"

#include <sstream>

#include "util/json.hh"

namespace rissp::flow
{

namespace
{

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Running: return "running";
      case StopReason::Halted: return "halted";
      case StopReason::Trapped: return "trapped";
      case StopReason::StepLimit: return "step_limit";
    }
    return "unknown";
}

std::string
statusJson(const Status &status)
{
    std::ostringstream out;
    out << "\"status\": {\"code\": \""
        << errorCodeName(status.code()) << "\", \"message\": \""
        << jsonEscape(status.message()) << "\"}";
    return out.str();
}

std::string
compileJson(const CompileStage &stage)
{
    std::ostringstream out;
    out << "\"compile\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        out << ", \"opt\": \""
            << minic::optLevelName(stage.opt)
            << "\", \"static_instructions\": "
            << stage.staticInstructions
            << ", \"text_bytes\": " << stage.textBytes
            << ", \"helpers\": [";
        for (size_t i = 0; i < stage.helpers.size(); ++i)
            out << (i ? ", " : "") << '"'
                << jsonEscape(stage.helpers[i]) << '"';
        out << ']';
    }
    out << '}';
    return out.str();
}

std::string
subsetJson(const SubsetStage &stage)
{
    std::ostringstream out;
    out << "\"subset\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        out << ", \"size\": " << stage.subset.size()
            << ", \"full_isa_size\": " << kFullIsaSize
            << ", \"fraction\": "
            << jsonNum(stage.subset.fractionOfFullIsa())
            << ", \"instructions\": [";
        const std::vector<std::string> names = stage.subset.names();
        for (size_t i = 0; i < names.size(); ++i)
            out << (i ? ", " : "") << '"' << jsonEscape(names[i])
                << '"';
        out << ']';
    }
    out << '}';
    return out.str();
}

std::string
execJson(const ExecStage &stage)
{
    std::ostringstream out;
    out << "\"exec\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        out << ", \"reason\": \"" << stopReasonName(stage.reason)
            << "\", \"stop_pc\": " << stage.stopPc
            << ", \"cycles\": " << stage.cycles
            << ", \"exit_code\": " << stage.exitCode
            << ", \"output_words\": [";
        for (size_t i = 0; i < stage.outputWords.size(); ++i)
            out << (i ? ", " : "") << stage.outputWords[i];
        out << "], \"output_text\": \""
            << jsonEscape(stage.outputText) << '"';
    }
    out << '}';
    return out.str();
}

std::string
cosimJson(const CosimStage &stage)
{
    std::ostringstream out;
    out << "\"cosim\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        out << ", \"passed\": " << jsonBool(stage.passed)
            << ", \"instret\": " << stage.instret
            << ", \"rvfi_events_checked\": "
            << stage.rvfiEventsChecked
            << ", \"first_divergence\": \""
            << jsonEscape(stage.firstDivergence) << '"';
    }
    out << '}';
    return out.str();
}

std::string
synthReportJson(const char *field, const SynthReport &report)
{
    std::ostringstream out;
    out << '"' << field << "\": {\"name\": \""
        << jsonEscape(report.name)
        << "\", \"subset_size\": " << report.subsetSize
        << ", \"fmax_khz\": " << jsonNum(report.fmaxKhz)
        << ", \"avg_area_ge\": " << jsonNum(report.avgAreaGe)
        << ", \"avg_power_mw\": " << jsonNum(report.avgPowerMw)
        << '}';
    return out.str();
}

std::string
synthJson(const SynthStage &stage)
{
    std::ostringstream out;
    out << "\"synth\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        out << ", \"tech\": \"" << jsonEscape(stage.tech) << "\""
            << ", " << synthReportJson("app", stage.app)
            << ", \"baselines_run\": "
            << jsonBool(stage.baselinesRun);
        if (stage.baselinesRun)
            out << ", " << synthReportJson("full_isa", stage.fullIsa)
                << ", " << synthReportJson("serv", stage.serv);
    }
    out << '}';
    return out.str();
}

std::string
physJson(const PhysStage &stage)
{
    std::ostringstream out;
    out << "\"phys\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        const PhysReport &r = stage.report;
        out << ", \"die_x_um\": " << jsonNum(r.dieXUm)
            << ", \"die_y_um\": " << jsonNum(r.dieYUm)
            << ", \"die_area_mm2\": " << jsonNum(r.dieAreaMm2)
            << ", \"ff_area_fraction\": "
            << jsonNum(r.ffAreaFraction)
            << ", \"power_mw\": " << jsonNum(r.powerMw);
    }
    out << '}';
    return out.str();
}

std::string
retargetJson(const RetargetStage &stage)
{
    std::ostringstream out;
    out << "\"retarget\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        const RetargetResult &r = stage.result;
        out << ", \"ok\": " << jsonBool(r.ok)
            << ", \"error\": \"" << jsonEscape(r.error)
            << "\", \"macros\": [";
        for (size_t i = 0; i < r.macros.size(); ++i) {
            const MacroExpansion &m = r.macros[i];
            out << (i ? ", " : "") << "{\"op\": \""
                << std::string(opName(m.target))
                << "\", \"attempts\": " << m.attempts << '}';
        }
        out << "], \"initial_text_bytes\": " << r.initialTextBytes
            << ", \"retargeted_text_bytes\": "
            << r.retargetedTextBytes
            << ", \"code_growth\": " << jsonNum(r.codeGrowth())
            << ", \"initial_subset_size\": "
            << r.initialSubset.size()
            << ", \"final_subset_size\": " << r.finalSubset.size();
    }
    out << '}';
    return out.str();
}

std::string
equivalenceJson(const EquivalenceStage &stage)
{
    std::ostringstream out;
    out << "\"equivalence\": {\"run\": " << jsonBool(stage.run);
    if (stage.run) {
        out << ", \"matched\": " << jsonBool(stage.matched)
            << ", \"ref_reason\": \""
            << stopReasonName(stage.refReason)
            << "\", \"dut_reason\": \""
            << stopReasonName(stage.dutReason)
            << "\", \"ref_exit\": " << stage.refExit
            << ", \"dut_exit\": " << stage.dutExit;
    }
    out << '}';
    return out.str();
}

} // namespace

std::string
toJson(const CharacterizeResponse &response)
{
    std::ostringstream out;
    out << '{' << statusJson(response.status) << ", "
        << compileJson(response.compile) << ", "
        << subsetJson(response.subset) << "}\n";
    return out.str();
}

std::string
toJson(const RunResponse &response)
{
    std::ostringstream out;
    out << '{' << statusJson(response.status) << ", "
        << compileJson(response.compile) << ", "
        << subsetJson(response.subset) << ", "
        << execJson(response.exec) << ", "
        << cosimJson(response.cosim) << "}\n";
    return out.str();
}

std::string
toJson(const SynthResponse &response)
{
    std::ostringstream out;
    out << '{' << statusJson(response.status) << ", "
        << compileJson(response.compile) << ", "
        << subsetJson(response.subset) << ", "
        << synthJson(response.synth) << ", "
        << physJson(response.phys) << "}\n";
    return out.str();
}

std::string
toJson(const RetargetResponse &response)
{
    std::ostringstream out;
    out << '{' << statusJson(response.status) << ", "
        << compileJson(response.compile) << ", "
        << retargetJson(response.retarget) << ", "
        << equivalenceJson(response.equivalence) << "}\n";
    return out.str();
}

std::string
toJson(const ExploreResponse &response)
{
    std::ostringstream out;
    out << '{' << statusJson(response.status)
        << ", \"points\": " << response.table.size()
        << ", \"stats\": {\"compile_hits\": "
        << response.stats.compileHits << ", \"compile_misses\": "
        << response.stats.compileMisses << ", \"sim_hits\": "
        << response.stats.simHits << ", \"sim_misses\": "
        << response.stats.simMisses << ", \"synth_hits\": "
        << response.stats.synthHits << ", \"synth_misses\": "
        << response.stats.synthMisses << "}, \"table\": ";
    if (response.table.size() == 0)
        out << "[]\n";
    else
        out << response.table.json(); // ends with its own newline
    // table.json() terminates with '\n'; close the object after it.
    std::string text = out.str();
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    text += "}\n";
    return text;
}

std::string
toJson(const Response &response)
{
    return std::visit(
        [](const auto &r) { return toJson(r); }, response);
}

std::string
toJson(const Status &status)
{
    // Appended, not chained: see InstrSubset::describe().
    std::string out = "{";
    out += statusJson(status);
    out += "}\n";
    return out;
}

} // namespace rissp::flow
