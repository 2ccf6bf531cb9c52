/**
 * @file
 * Result table emitters and the Pareto-frontier query.
 */

#include "explore/result_table.hh"

#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace rissp::explore
{

const ExplorationResult &
ResultTable::row(size_t index) const
{
    if (index >= table.size())
        panic("ResultTable::row: row %zu out of range (%zu rows)",
              index, table.size());
    return table[index];
}

namespace
{

/** Print doubles in shortest round-trip form so CSV/JSON compare
 *  byte-for-byte across runs. */
std::string
num(double value)
{
    return jsonNum(value);
}

/** RFC 4180: quote a field when it contains a comma, quote, CR or
 *  newline, doubling embedded quotes. Overridden-corner technology
 *  names (`flexic-0.6um:voltage=2.8,ffPowerRatio=8`) contain commas
 *  on every row they label, so an unquoted emitter would silently
 *  shift every later column. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
ResultTable::csv() const
{
    std::ostringstream out;
    out << "index,subset,workload,tech,subset_size,"
        << "sim_run,trapped,cosim_passed,cycles,exit_code,signature,"
        << "synth_run,fmax_khz,avg_area_ge,avg_power_mw,epi_nj,"
        << "phys_run,die_area_mm2,phys_power_mw\n";
    for (const ExplorationResult &r : table) {
        out << r.index << ',' << csvField(r.subsetName) << ','
            << csvField(r.workloadName) << ','
            << csvField(r.techName) << ','
            << r.subsetSize << ',' << r.simRun << ',' << r.trapped
            << ',' << r.cosimPassed << ',' << r.cycles << ','
            << r.exitCode << ',' << r.signature << ',' << r.synthRun
            << ',' << num(r.fmaxKhz) << ',' << num(r.avgAreaGe)
            << ',' << num(r.avgPowerMw) << ',' << num(r.epiNj)
            << ',' << r.physRun << ',' << num(r.dieAreaMm2) << ','
            << num(r.physPowerMw) << '\n';
    }
    return out.str();
}

std::string
ResultTable::json() const
{
    std::ostringstream out;
    out << "[\n";
    for (size_t i = 0; i < table.size(); ++i) {
        const ExplorationResult &r = table[i];
        out << "  {\"index\": " << r.index
            << ", \"subset\": \"" << jsonEscape(r.subsetName)
            << "\", \"workload\": \"" << jsonEscape(r.workloadName)
            << "\", \"tech\": \"" << jsonEscape(r.techName)
            << "\", \"subset_size\": " << r.subsetSize
            << ", \"sim_run\": " << (r.simRun ? "true" : "false")
            << ", \"trapped\": " << (r.trapped ? "true" : "false")
            << ", \"cosim_passed\": "
            << (r.cosimPassed ? "true" : "false")
            << ", \"cycles\": " << r.cycles
            << ", \"exit_code\": " << r.exitCode
            << ", \"signature\": " << r.signature
            << ", \"synth_run\": " << (r.synthRun ? "true" : "false")
            << ", \"fmax_khz\": " << num(r.fmaxKhz)
            << ", \"avg_area_ge\": " << num(r.avgAreaGe)
            << ", \"avg_power_mw\": " << num(r.avgPowerMw)
            << ", \"epi_nj\": " << num(r.epiNj)
            << ", \"phys_run\": " << (r.physRun ? "true" : "false")
            << ", \"die_area_mm2\": " << num(r.dieAreaMm2)
            << ", \"phys_power_mw\": " << num(r.physPowerMw) << "}"
            << (i + 1 < table.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

bool
ResultTable::dominates(const ExplorationResult &a,
                       const ExplorationResult &b)
{
    const bool noWorse = a.cycles <= b.cycles &&
        a.avgAreaGe <= b.avgAreaGe && a.avgPowerMw <= b.avgPowerMw;
    const bool better = a.cycles < b.cycles ||
        a.avgAreaGe < b.avgAreaGe || a.avgPowerMw < b.avgPowerMw;
    return noWorse && better;
}

std::vector<size_t>
ResultTable::paretoFrontier() const
{
    // Only points that actually work can be on the frontier: the
    // co-simulation must have passed (a trapped RISSP is not a valid
    // implementation of the workload) and synthesis must have run
    // (otherwise area/power are meaningless zeros).
    std::vector<size_t> candidates;
    for (size_t i = 0; i < table.size(); ++i) {
        const ExplorationResult &r = table[i];
        if (r.simRun && r.synthRun && r.cosimPassed && !r.trapped)
            candidates.push_back(i);
    }
    std::vector<size_t> frontier;
    for (size_t i : candidates) {
        bool dominated = false;
        for (size_t j : candidates) {
            if (i != j && dominates(table[j], table[i])) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

} // namespace rissp::explore
