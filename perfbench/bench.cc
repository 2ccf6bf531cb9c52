#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <sys/resource.h>

#include "util/json.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(q * static_cast<double>(values.size() - 1) +
                            0.5));
    return values[rank];
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

void
Outcome::fail(const std::string &why)
{
    ++failures;
    if (failures <= 20)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     why.c_str());
}

void
Outcome::set(const std::string &name, double value,
             const std::string &unit)
{
    metrics[name] = {value, unit};
}

std::string
Outcome::json() const
{
    std::string out = "{\"correct\": ";
    out += rissp::jsonBool(correct());
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        if (!first)
            out += ", ";
        out += '"';
        out += rissp::jsonEscape(name);
        out += "\": {\"value\": ";
        out += rissp::jsonNum(metric.first);
        out += ", \"unit\": \"";
        out += rissp::jsonEscape(metric.second);
        out += "\"}";
        first = false;
    }
    return out + "}}";
}

namespace
{

/** splitmix64: decorrelates small consecutive seeds. */
uint64_t
mixSeed(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

Inputs
Inputs::make(uint64_t seed)
{
    Inputs inputs;
    inputs.seed = seed;
    rissp::Rng rng(mixSeed(seed));
    for (const rissp::Workload &w : rissp::allWorkloads())
        inputs.appOrder.push_back(w.name);
    shuffle(inputs.appOrder, rng);

    inputs.exploreWorkloads = inputs.appOrder;
    shuffle(inputs.exploreWorkloads, rng);

    inputs.appRng = rissp::Rng(mixSeed(seed ^ 0xA99));
    inputs.serveRng = rissp::Rng(mixSeed(seed ^ 0x5E77E));
    return inputs;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
