/**
 * @file
 * Pre-decoded instruction cache shared by the simulators.
 *
 * Both RefSim and Rissp used to re-decode every instruction word on
 * every fetch, behind four hash-map page lookups. A DecodedProgram
 * decodes each text word exactly once at reset and serves fetches as a
 * single bounds-checked array index. Stores into the text span
 * invalidate (re-decode) the overlapped words, so self-modifying code
 * still observes its own writes; fetches outside the cached span fall
 * back to decode-on-fetch in the caller.
 *
 * For the interpreter cores (sim/exec_core.inc) the cache also keeps
 * two side arrays, maintained in lock-step with the decoded words:
 *
 *  - a handler token per word — the Op as a small integer, with
 *    invalid encodings and ops outside the owning core's enabled set
 *    mapped to the trap token — which is what the core indexes its
 *    label table with. The subset is applied here, once per decode,
 *    so an op whose block is not stitched in has no handler, exactly
 *    like the hardware;
 *  - a superblock run length per word: how many instructions starting
 *    there execute strictly straight-line (no branch/jump/halt/
 *    invalid) before a control transfer can occur. The cores use it
 *    to retire whole runs between budget/pc rechecks. Stores into the
 *    text span repair both arrays together with the decoded words,
 *    including the backward run-length ripple into preceding
 *    straight-line code, so a patch that extends or splits a
 *    superblock is visible before the next dispatch.
 *
 * Coherence contract: the cache only sees stores issued through the
 * owning simulator's store path. Writing into the text span directly
 * via Memory (e.g. `sim.memory().storeWord(...)`) requires a fresh
 * `reset()` before the change is fetched, exactly like an icache
 * without hardware coherence.
 */

#ifndef RISSP_SIM_DECODED_PROGRAM_HH
#define RISSP_SIM_DECODED_PROGRAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instr.hh"
#include "sim/memory.hh"
#include "sim/program.hh"

namespace rissp
{

/** Per-op enable flags, indexed by `(size_t)Op`. */
using OpMask = std::array<bool, kNumOps>;

/** One-time decode of a program's text span, with invalidation. */
class DecodedProgram
{
  public:
    /**
     * Decode the text span of @p program from @p mem (which must
     * already hold the loaded image, so that later re-decodes and the
     * initial decode read the same bytes). Ops not set in @p enabled
     * get the trap token, here and in every later invalidate().
     */
    void build(const Program &program, const Memory &mem,
               const OpMask &enabled);

    /** Drop the cache (fetch() returns nullptr until rebuilt). */
    void clear();

    /**
     * Decoded instruction at @p pc, or nullptr when @p pc is outside
     * the cached span or not word-aligned — the caller then falls
     * back to decode-on-fetch.
     */
    const Instr *fetch(uint32_t pc) const
    {
        const uint32_t off = pc - textBase;
        if (off >= textSize || (off & 3))
            return nullptr;
        return &instrs[off >> 2];
    }

    /** True when a @p len byte store at @p addr touches the span. */
    bool overlaps(uint32_t addr, uint32_t len) const
    {
        return static_cast<uint64_t>(addr) + len > textBase &&
            addr < textBase + textSize;
    }

    /**
     * Re-decode every text word overlapped by a @p len byte store at
     * @p addr, reading the just-stored bytes back from @p mem. Call
     * after the store has been committed to @p mem.
     */
    void invalidate(const Memory &mem, uint32_t addr, uint32_t len);

    uint32_t base() const { return textBase; }
    uint32_t size() const { return textSize; }

    /** Handler token for text word @p idx: `(uint8_t)Op` for an
     *  enabled op, `(uint8_t)Op::Invalid` (== kNumOps) — the trap
     *  token — for an invalid encoding or a disabled op. */
    static constexpr uint8_t kTrapToken =
        static_cast<uint8_t>(Op::Invalid);

    /** Decoded instructions by word index (textSize / 4 entries). */
    const Instr *instrData() const { return instrs.data(); }

    /** Handler tokens by word index, parallel to instrData(). */
    const uint8_t *tokenData() const { return toks.data(); }

    /** Superblock run lengths by word index (always >= 1), parallel
     *  to instrData(); saturates at 0xFFFF. */
    const uint16_t *runLenData() const { return runs.data(); }

  private:
    /** Decode the word at text index @p w into both arrays. */
    void decodeWord(const Memory &mem, uint32_t w);

    /** Recompute runs[first, last) and ripple the change into the
     *  straight-line words before @p first. */
    void recomputeRuns(uint32_t first, uint32_t last);

    OpMask enabled{};
    uint32_t textBase = 0;
    uint32_t textSize = 0;         ///< bytes; always a multiple of 4
    std::vector<Instr> instrs;     ///< one per text word
    std::vector<uint8_t> toks;     ///< handler token per text word
    std::vector<uint16_t> runs;    ///< superblock run length per word
};

} // namespace rissp

#endif // RISSP_SIM_DECODED_PROGRAM_HH
