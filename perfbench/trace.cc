#include "trace.hh"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "util/json.hh"

namespace perfbench
{

namespace
{

struct Record
{
    const char *name;
    uint64_t id;
    uint64_t parent;
    Clock::time_point start;
    Clock::time_point end;
    unsigned tid;
};

std::atomic<bool> recording{false};
std::atomic<uint64_t> nextId{1};
std::atomic<unsigned> nextTid{1};
const Clock::time_point epoch = Clock::now();

std::mutex recordsMu;
std::vector<Record> records;

thread_local uint64_t openSpan = 0;

unsigned
threadIndex()
{
    thread_local const unsigned tid = nextTid.fetch_add(1);
    return tid;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

namespace trace
{

void
setEnabled(bool on)
{
    recording.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return recording.load(std::memory_order_relaxed);
}

std::map<std::string, SpanStats>
aggregate()
{
    std::lock_guard<std::mutex> lock(recordsMu);
    std::unordered_map<uint64_t, double> childMs;
    for (const Record &r : records)
        if (r.parent != 0)
            childMs[r.parent] += msBetween(r.start, r.end);
    std::map<std::string, SpanStats> stats;
    for (const Record &r : records) {
        const double ms = msBetween(r.start, r.end);
        SpanStats &s = stats[r.name];
        ++s.count;
        s.totalMs += ms;
        const auto child = childMs.find(r.id);
        s.selfMs += ms - (child == childMs.end() ? 0 : child->second);
        s.durationsMs.push_back(ms);
    }
    return stats;
}

void
printSelfTimes(const std::map<std::string, SpanStats> &stats)
{
    std::map<std::string, double> layerSelf;
    double all = 0;
    for (const auto &[name, s] : stats) {
        layerSelf[layerOf(name)] += s.selfMs;
        all += s.selfMs;
    }
    std::printf("self time by layer (traced run):\n");
    for (const auto &[layer, ms] : layerSelf)
        std::printf("  %-10s %12.3f ms  %5.1f %%\n", layer.c_str(), ms,
                    all > 0 ? 100.0 * ms / all : 0.0);
    std::printf("self time by span:\n");
    std::printf("  %-26s %8s %12s %12s\n", "span", "count", "total ms",
                "self ms");
    for (const auto &[name, s] : stats)
        std::printf("  %-26s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    s.totalMs, s.selfMs);
}

bool
writeChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(recordsMu);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const Record &r : records) {
        const double ts = msBetween(epoch, r.start) * 1e3;
        const double dur = msBetween(r.start, r.end) * 1e3;
        out << (first ? "\n" : ",\n") << "{\"name\": \""
            << rissp::jsonEscape(r.name) << "\", \"cat\": \""
            << rissp::jsonEscape(layerOf(r.name))
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
            << ", \"ts\": " << rissp::jsonNum(ts)
            << ", \"dur\": " << rissp::jsonNum(dur)
            << ", \"args\": {\"id\": " << r.id
            << ", \"parent\": " << r.parent << "}}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace trace

Span::Span(const char *span_name) : name(span_name), start(Clock::now())
{
    if (trace::enabled()) {
        id = nextId.fetch_add(1, std::memory_order_relaxed);
        parent = openSpan;
        openSpan = id;
    }
}

double
Span::stop()
{
    if (durationMs >= 0)
        return durationMs;
    const Clock::time_point end = Clock::now();
    durationMs = msBetween(start, end);
    if (id != 0) {
        openSpan = parent;
        const Record record{name, id, parent, start, end, threadIndex()};
        std::lock_guard<std::mutex> lock(recordsMu);
        records.push_back(record);
    }
    return durationMs;
}

} // namespace perfbench
