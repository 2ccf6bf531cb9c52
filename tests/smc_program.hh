/**
 * @file
 * A self-modifying test program shared by the simulator and
 * exploration tests.
 */

#ifndef RISSP_TESTS_SMC_PROGRAM_HH
#define RISSP_TESTS_SMC_PROGRAM_HH

#include <cstdint>

#include "assembler/assembler.hh"
#include "util/logging.hh"

namespace rissp
{

/**
 * A program that stores @p patched over the instruction at `patch`,
 * later in the same straight-line run, then executes it and halts.
 * The patch sees a0 = &patch and a1 = @p patched; the original word
 * there is `addi a2, zero, 1`. Its static op set is {auipc, addi,
 * lui, sw}, so patching in any other op brings in an op the text
 * never held.
 */
inline Program
smcPatchProgram(uint32_t patched)
{
    return assemble(strFormat(R"(
        la a0, patch
        li a1, %d
        sw a1, 0(a0)
        addi a3, zero, 1
    patch:
        addi a2, zero, 1
        ecall
    )", static_cast<int32_t>(patched)));
}

} // namespace rissp

#endif // RISSP_TESTS_SMC_PROGRAM_HH
