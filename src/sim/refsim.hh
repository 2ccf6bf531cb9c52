/**
 * @file
 * Reference instruction-set simulator (the repo's Spike analog).
 *
 * A purely functional RV32E model used as the golden reference for
 * architectural signature tests (RISCOF analog) and trace-level
 * co-simulation against the generated RISSP. It is deliberately written
 * independently of the instruction hardware block library so the two
 * implementations can check each other.
 *
 * Two engines share the machine state: step() is the hand-written
 * golden statement of the semantics, one switch over the op; run()
 * drives the threaded interpreter core over the pre-decoded text
 * (sim/exec_core.inc, shared with the RISSP), which must retire the
 * identical RVFI stream (tests/test_dispatch.cc).
 */

#ifndef RISSP_SIM_REFSIM_HH
#define RISSP_SIM_REFSIM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/reg.hh"
#include "sim/decoded_program.hh"
#include "sim/dispatch.hh"
#include "sim/memory.hh"
#include "sim/program.hh"
#include "sim/trace.hh"

namespace rissp
{

/** Memory-mapped output ports shared by all simulators. */
namespace mmio
{
/** Store a word here to append it to the simulator's output stream. */
constexpr uint32_t kPutWord = 0xFFFF0000;
/** Store a byte here to append a character to the output text. */
constexpr uint32_t kPutChar = 0xFFFF0004;
} // namespace mmio

/** Why execution stopped. */
enum class StopReason : uint8_t
{
    Running,       ///< has not stopped
    Halted,        ///< ecall/ebreak, normal termination
    Trapped,       ///< invalid or unsupported instruction, bad access
    StepLimit,     ///< ran out of the per-run step budget
};

/** True when a @p bytes wide access at @p addr would wrap past the
 *  2^32 address-space boundary. Both simulators trap such accesses
 *  (like an access fault) instead of silently wrapping to address 0;
 *  see the Memory header for the contract. */
constexpr bool
accessWraps(uint32_t addr, unsigned bytes)
{
    return bytes > 1 && addr > UINT32_MAX - (bytes - 1);
}

/** Result of a run. */
struct RunResult
{
    StopReason reason = StopReason::Running;
    uint32_t exitCode = 0;   ///< a0 at the halting ecall
    uint64_t instret = 0;    ///< instructions retired
    uint32_t stopPc = 0;     ///< pc at stop
};

/** Options for the simulators' run() entry points. */
struct SimRunOptions
{
    /** Stop after this many instructions (StopReason::StepLimit). */
    uint64_t maxSteps = 100'000'000;

    /** When set, every RetireEvent is appended here (the same RVFI
     *  stream the single-step API produces). */
    std::vector<RetireEvent> *trace = nullptr;
};

/** Functional RV32E golden-model simulator. */
class RefSim
{
  public:
    RefSim();

    /** Reset state and load @p program. */
    void reset(const Program &program);

    /**
     * Execute one instruction.
     * @return the retirement record, with trap/halt flags set when the
     *         instruction stopped the machine.
     */
    RetireEvent step();

    /** Run until halt/trap or @p maxSteps instructions. */
    RunResult run(uint64_t maxSteps = 100'000'000);

    /** Run with explicit options. The interpreter core retires the
     *  same RVFI stream as step(), which remains the independent
     *  golden statement of the semantics. */
    RunResult run(const SimRunOptions &options);

    uint32_t pc() const { return pcReg; }
    void setPc(uint32_t value) { pcReg = value; }

    uint32_t reg(unsigned idx) const { return regs.at(idx); }
    void setReg(unsigned idx, uint32_t value);

    /** Direct memory access. Writing into the text span through this
     *  handle bypasses the decoded-instruction cache; call reset()
     *  again before executing such a change (icache semantics). */
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }

    bool halted() const { return stopped == StopReason::Halted; }
    StopReason stopReason() const { return stopped; }
    uint64_t instret() const { return retired; }

    /** Words written to mmio::kPutWord since reset. */
    const std::vector<uint32_t> &outputWords() const { return outWords; }

    /** Characters written to mmio::kPutChar since reset. */
    const std::string &outputText() const { return outText; }

  private:
    // The interpreter core over the pre-decoded text span, stamped
    // out from sim/exec_core.inc.
    template <class Sink>
    RunResult runCore(uint64_t maxSteps, Sink &sink);

    // exec_core.inc hooks: the reference counts nothing and falls
    // back to step() off-span (it decodes with every op enabled).
    static void coreNoteExec(uint8_t) {}
    RetireEvent coreSlowStep() { return step(); }

    uint32_t pcReg = 0;
    std::array<uint32_t, kNumRegsE> regs{};
    Memory mem;
    DecodedProgram dec;
    StopReason stopped = StopReason::Running;
    uint64_t retired = 0;
    std::vector<uint32_t> outWords;
    std::string outText;
};

} // namespace rissp

#endif // RISSP_SIM_REFSIM_HH
