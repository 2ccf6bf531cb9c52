/**
 * @file
 * The §5 code-retargeting tool for long-lasting extreme-edge
 * applications (Figure 11 flow).
 *
 * Given a program compiled for the full RV32E ISA and the instruction
 * subset a fabricated RISSP supports, the tool:
 *
 *  1. identifies the instructions the RISSP does not implement;
 *  2. asks the generator (the ChatGPT-plugin analog in
 *     macro_library) for a macro expansion of each one, simulating
 *     the candidate against the original instruction's semantics
 *     over directed operand/alias cases and rejecting wrong ones
 *     until a verified macro emerges (bounded attempts);
 *  3. writes the verified macros to a macro file, rewrites every
 *     offending instruction into its canonical macro invocation, and
 *     reassembles — the retargeted binary then runs on the subset
 *     processor unchanged.
 */

#ifndef RISSP_RETARGET_RETARGETER_HH
#define RISSP_RETARGET_RETARGETER_HH

#include <set>

#include "core/subset.hh"
#include "retarget/macro_library.hh"
#include "sim/refsim.hh"
#include "util/rng.hh"
#include "util/status.hh"

namespace rissp
{

/** One synthesized-and-verified macro. */
struct MacroExpansion
{
    Op target = Op::Invalid;
    std::string body;        ///< verified body
    unsigned attempts = 0;   ///< candidates tried (paper: < 10)
    bool verified = false;
};

/** Result of retargeting one program. */
struct RetargetResult
{
    bool ok = false;
    std::string error;

    std::string macroFile;           ///< the generated macro.S
    std::vector<MacroExpansion> macros;
    std::set<Op> rewrittenOps;       ///< ops that were transformed

    Program program;                 ///< retargeted binary
    size_t initialTextBytes = 0;     ///< Figure 12 code size before
    size_t retargetedTextBytes = 0;  ///< Figure 12 code size after
    InstrSubset initialSubset;       ///< distinct instrs before
    InstrSubset finalSubset;         ///< distinct instrs after

    double
    codeGrowth() const
    {
        return initialTextBytes == 0 ? 0.0
            : static_cast<double>(retargetedTextBytes) /
                static_cast<double>(initialTextBytes) - 1.0;
    }
};

/** The retargeting tool. */
class Retargeter
{
  public:
    /**
     * @param target the subset the fabricated RISSP supports; must
     *        satisfy validateTarget() (panic() otherwise)
     * @param seed   drives the generator's candidate ordering (how
     *        many hallucinated attempts precede the good one)
     */
    explicit Retargeter(const InstrSubset &target,
                        uint64_t seed = 0x6E47);

    /** The paper's minimal 12-instruction subset. */
    static InstrSubset minimalSubset();

    /** Check a user-chosen target subset includes the §5 kernel ops
     *  {addi, add, and, xori, sll, sra, jal, jalr, blt, bltu, lw,
     *  sw}; call before constructing a Retargeter from user input. */
    static Status validateTarget(const InstrSubset &target);

    /**
     * Simulate a candidate macro body for @p op against the native
     * instruction over directed operand/alias cases (60 trials):
     * both sides must halt with identical x1..x15 and identical
     * contents of the scratch buffer loads/stores address. Pure: the
     * verdict depends only on @p op and @p body.
     */
    static bool verifyMacro(Op op, const std::string &body);

    /** Synthesize + verify the macro for one instruction. */
    MacroExpansion synthesizeMacro(Op op);

    /** Retarget a fully linked program. */
    RetargetResult retarget(const Program &program);

    /** Reconstruct assembly from a binary, rewriting ops in
     *  @p rewrite into canonical macro invocations (exposed for
     *  tests). Programs the rewriter cannot express (auipc, ra used
     *  as an operand of a rewritten op) come back as RetargetError
     *  instead of aborting: the input binary is the user's. */
    Result<std::string> reconstruct(const Program &program,
                                    const std::set<Op> &rewrite) const;

  private:
    /** verifyMacro() on caller-owned simulators, so one retarget
     *  reuses the same two arenas for every candidate. */
    static bool verifyOn(RefSim &native, RefSim &expanded, Op op,
                         const std::string &body);

    InstrSubset targetSubset;
    Rng rng;
    RefSim nativeSim;
    RefSim expandedSim;
};

} // namespace rissp

#endif // RISSP_RETARGET_RETARGETER_HH
