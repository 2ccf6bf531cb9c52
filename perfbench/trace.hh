/**
 * @file
 * Benchmark-side spans: RAII timers the benchmark wraps around its
 * calls into each layer. Spans are kept in memory while the traced
 * run executes and written out when it ends, as Chrome trace-event
 * JSON (chrome://tracing and Perfetto open it) and as a per-layer
 * self-time table.
 *
 * Span names are `<layer>.<operation>`, the layer being the `src/`
 * module the call enters (`compiler.to_asm`, `verify.cosim`,
 * `store.load`, ...). Spans recorded from inside `src/` later are
 * meant to use the same names, so the two views line up.
 *
 * A span's parent is the innermost open span on the same thread;
 * self time is the span's duration minus the part its children
 * cover. When tracing is off a span costs two clock reads and no
 * allocation.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** Aggregate of every span with one name. */
struct SpanStats
{
    uint64_t count = 0;
    double totalMs = 0;
    double selfMs = 0;
    std::vector<double> durationsMs;
};

namespace trace
{

/** Start or stop recording (spans opened while off are not kept). */
void setEnabled(bool on);
bool enabled();

/** Per-name aggregates of the recorded spans, with self times. */
std::map<std::string, SpanStats> aggregate();

/** Print the per-layer and per-span self-time table to stdout. */
void printSelfTimes(const std::map<std::string, SpanStats> &stats);

/** Write the recorded spans as Chrome trace-event JSON; false when
 *  the file cannot be written. */
bool writeChromeTrace(const std::string &path);

} // namespace trace

/** One timed call into a layer. */
class Span
{
  public:
    /** @p name must be a string literal (it is stored by pointer). */
    explicit Span(const char *name);
    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span now (idempotent); returns its duration in ms. */
    double stop();

  private:
    const char *name;
    Clock::time_point start;
    uint64_t id = 0;      ///< 0 when not recorded
    uint64_t parent = 0;
    double durationMs = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
