/**
 * @file
 * The generated RISSP: a single-cycle RV32E-subset processor
 * (Step 3 of Figure 2, Figure 3 microarchitecture).
 *
 * Fetch (PC + incrementer), the 16-entry register file and the memory
 * interfaces are the fixed units; ModularEX executes. One instruction
 * retires per cycle (CPI = 1, §4.2.4). Executing an instruction whose
 * block was not stitched in is a hardware trap — that is what makes a
 * subset processor a *subset* processor.
 *
 * The simulator emits RVFI-style RetireEvents so riscv-formal-style
 * monitors and signature co-simulation against the reference ISS can
 * check it (§3.4.2).
 */

#ifndef RISSP_CORE_RISSP_HH
#define RISSP_CORE_RISSP_HH

#include <memory>
#include <string>

#include "core/modularex.hh"
#include "sim/refsim.hh"
#include "sim/rvfi_monitor.hh"

namespace rissp
{

/** Options for Rissp::run(). */
struct RisspRunOptions
{
    /** Stop after this many instructions (StopReason::StepLimit). */
    uint64_t maxSteps = 100'000'000;

    /** When set, every RetireEvent is appended here. */
    std::vector<RetireEvent> *trace = nullptr;

    /** Injected netlist fault. Any non-null Mutation — including
     *  Kind::None — routes every instruction through the gate-level
     *  structural engine, preserving the mutation-coverage surface
     *  (the specialized cores never see faults). */
    const Mutation *fault = nullptr;

    /** Force the gate-level engine even with no fault (what run()
     *  always did before the specialized cores existed). */
    bool gateLevel = false;
};

/** A generated instruction-subset processor plus its simulator. */
class Rissp
{
  public:
    /**
     * Build a RISSP for @p subset.
     * @param subset  instruction subset from Step 1
     * @param name    report label, e.g. "RISSP-armpit"
     * @param library the pre-verified block library (Step 0)
     */
    Rissp(const InstrSubset &subset, std::string name,
          const HwLibrary &library = HwLibrary::instance());

    const std::string &name() const { return risspName; }
    const InstrSubset &subset() const { return ex.subset(); }
    const ModularEx &modularEx() const { return ex; }

    /** Reset the machine and load a program image. */
    void reset(const Program &program);

    /**
     * Execute one cycle (one instruction). With @p mut == nullptr
     * this drives the subset-specialized functional core (bit-
     * identical to the gate-level engine, pinned by tests); any
     * non-null @p mut — even Mutation{Kind::None} — forces the full
     * structural gate-level chain.
     */
    RetireEvent step(const Mutation *mut = nullptr);

    /** Run until halt/trap or @p maxSteps cycles. */
    RunResult run(uint64_t maxSteps = 100'000'000);

    /** Run with explicit trace/fault options. A fault (or
     *  gateLevel) selects the gate-level engine; otherwise the
     *  subset-specialized interpreter core runs. */
    RunResult run(const RisspRunOptions &options);

    /**
     * Co-simulate at fast-core speed against @p ref, reset to the
     * same program: run the subset-specialized core, and at each of
     * its retirement records — trap records and off-span gate-level
     * steps included — step the reference once with RefSim::step(),
     * compare the pair with eventsMatch() and push this RISSP's
     * record into @p monitor. Stops at the first mismatch or monitor
     * violation, at a halt or trap, or after @p maxSteps
     * retirements.
     * @return true when this RISSP halted with every record matched
     *         and the monitor clean.
     */
    bool runAgainst(RefSim &ref, RvfiStreamChecker &monitor,
                    uint64_t maxSteps);

    uint32_t pc() const { return pcReg; }
    uint32_t reg(unsigned idx) const;
    /** Direct memory access. Writing into the text span through this
     *  handle bypasses the decoded-instruction cache; call reset()
     *  again before executing such a change (icache semantics). */
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }
    uint64_t cycles() const { return retired; } // CPI == 1
    StopReason stopReason() const { return stopped; }

    const std::vector<uint32_t> &outputWords() const { return outWords; }
    const std::string &outputText() const { return outText; }

  private:
    /** One instruction through the gate-level structural engine —
     *  ModularEX evaluates the stitched blocks, with @p mut (which
     *  may be null) threaded into every primitive. This is the
     *  pre-specialization step() body, kept whole as the mutation-
     *  coverage surface and the off-span fallback. */
    RetireEvent stepGate(const Mutation *mut);

    /** One instruction through the specialized core (mut == null). */
    RetireEvent stepFast();

    // The interpreter core over the pre-decoded text span, stamped
    // out from sim/exec_core.inc — same statement of the semantics as
    // RefSim's. reset() decodes with the subset's op mask, so only
    // stitched blocks have handlers.
    template <class Sink>
    RunResult runCore(uint64_t maxSteps, Sink &sink);

    // exec_core.inc hooks: every retire charges ModularEx's
    // counters, and off-span execution goes through the gate-level
    // engine.
    void coreNoteExec(uint8_t tok) const
    {
        ex.noteExec(static_cast<Op>(tok));
    }
    RetireEvent coreSlowStep() { return stepGate(nullptr); }

    std::string risspName;
    ModularEx ex;
    uint32_t pcReg = 0;
    std::array<uint32_t, kNumRegsE> regs{};
    Memory mem;
    DecodedProgram dec;
    StopReason stopped = StopReason::Running;
    uint64_t retired = 0;
    std::vector<uint32_t> outWords;
    std::string outText;
    std::vector<RetireEvent> stepScratch; ///< stepFast() staging
};

} // namespace rissp

#endif // RISSP_CORE_RISSP_HH
