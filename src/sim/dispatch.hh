/**
 * @file
 * Retire sinks for the simulators' interpreter core
 * (sim/exec_core.inc).
 *
 * The core is a template over a sink policy. A sink sees every
 * retirement record the core produces, in order — trap records and
 * off-span slow steps included — and ends the run early by returning
 * false from retire(). A sink with kRecords == false makes the core
 * build no records at all. A third sink, the RISSP's compare sink
 * against the reference ISS, lives next to its only user
 * (core/rissp_cosim.cc).
 */

#ifndef RISSP_SIM_DISPATCH_HH
#define RISSP_SIM_DISPATCH_HH

#include <vector>

#include "sim/trace.hh"

namespace rissp
{

namespace sim_detail
{

/** Per-instruction retirement-record storage for the interpreter
 *  core: a real RetireEvent in instantiations whose sink takes
 *  records, empty (and thus free) otherwise. */
template <bool kRecords>
struct TraceSlot
{
    RetireEvent ev;
};

template <>
struct TraceSlot<false>
{
};

/** No records: the plain run() loop. */
struct NullSink
{
    static constexpr bool kRecords = false;
    bool retire(const RetireEvent &) { return true; }
};

/** Appends every record to a vector: traced run(), single step(). */
struct VectorSink
{
    static constexpr bool kRecords = true;
    std::vector<RetireEvent> &out;
    bool retire(const RetireEvent &ev)
    {
        out.push_back(ev);
        return true;
    }
};

} // namespace sim_detail

} // namespace rissp

#endif // RISSP_SIM_DISPATCH_HH
