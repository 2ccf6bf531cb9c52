/**
 * @file
 * Integration-level verification of generated RISSPs (§3.4.2):
 *
 *  - architectural signature tests per instruction (the RISCOF flow:
 *    run directed tests on the RISSP, compare the signature a golden
 *    reference produces — our RefSim plays Spike);
 *  - RVFI retirement-trace monitors (the riscv-formal flow): pc
 *    chaining, register-file consistency, memory access legality
 *    (stated once in sim/rvfi_monitor.hh);
 *  - co-simulation against the reference on workloads and
 *    constrained-random programs.
 */

#ifndef RISSP_VERIFY_INTEGRATION_VERIFY_HH
#define RISSP_VERIFY_INTEGRATION_VERIFY_HH

#include "core/rissp.hh"
#include "core/subset.hh"
#include "sim/refsim.hh"
#include "sim/rvfi_monitor.hh"

namespace rissp
{

/** Lock-step co-simulation verdict. */
struct CosimReport
{
    bool passed = false;
    uint64_t instret = 0;
    std::string firstDivergence;
    MonitorReport monitor;   ///< RVFI checks on the RISSP's stream

    /** Divergence context: the last few retirements before the stop
     *  (oldest first, the divergent step last), bounded by
     *  CosimOptions::contextEvents. Empty on a clean pass. */
    std::vector<RetireEvent> recentRef;
    std::vector<RetireEvent> recentDut;
};

/** Knobs for cosimulate(). */
struct CosimOptions
{
    uint64_t maxSteps = 10'000'000;
    /** Optional netlist fault injected into the RISSP's execution
     *  (mutation testing at the integration level): a non-equivalent
     *  fault must surface as a divergence, which is how the mismatch
     *  path of the verification flow is exercised end-to-end. */
    const Mutation *fault = nullptr;
    /** Ring-buffer depth for CosimReport::recentRef/recentDut. */
    unsigned contextEvents = 8;
};

/**
 * Run @p program on a RISSP built for @p subset and on the reference
 * ISS, comparing every retirement event, the final register file and
 * the final memory signature region (symbol "signature", when the
 * program defines it). RVFI invariants are checked incrementally per
 * step (RvfiStreamChecker), so memory stays O(1) in instret.
 *
 * Without a fault this first runs the exact compare inside the
 * RISSP's fast core (Rissp::runAgainst: RefSim::step() once per
 * retirement, eventsMatch() on each pair). Only a clean halt with
 * matching final state is reported from that pass; any other outcome
 * is replayed from reset by cosimulateLockStep(), whose report is
 * returned — so every failing report, with its context rings, is the
 * lock-step one. A fault always runs lock-step.
 */
CosimReport cosimulate(const Program &program,
                       const InstrSubset &subset,
                       const CosimOptions &options);

/**
 * The lock-step loop: Rissp::step() (gate-level under a fault) and
 * RefSim::step() once each per retirement, a ring of the last
 * CosimOptions::contextEvents pairs kept for the report. The golden
 * cosimulate() replays a failure with, and the reference the
 * compare-sink path is tested against.
 */
CosimReport cosimulateLockStep(const Program &program,
                               const InstrSubset &subset,
                               const CosimOptions &options);

/** Convenience overload with the historical signature. */
CosimReport cosimulate(const Program &program,
                       const InstrSubset &subset,
                       uint64_t max_steps = 10'000'000,
                       const Mutation *fault = nullptr);

/**
 * Directed architectural test for one instruction: a program that
 * exercises the op on corner operands and stores results to the
 * signature region.
 */
Program archTestProgram(Op op);

/** Constrained-random terminating program (forward branches only),
 *  for trace-level fuzzing of RISSP vs reference. */
Program randomProgram(uint64_t seed, unsigned num_instrs,
                      const InstrSubset &subset);

} // namespace rissp

#endif // RISSP_VERIFY_INTEGRATION_VERIFY_HH
