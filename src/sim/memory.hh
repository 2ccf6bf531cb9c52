/**
 * @file
 * Byte-addressable memory shared by the simulators.
 *
 * Little-endian. Two backing stores compose:
 *
 *  - an optional dense arena covering one contiguous span (the
 *    program image plus stack, reserved by the simulators at reset) —
 *    loads and stores inside it are direct array accesses, with
 *    single-instruction word/half fast paths;
 *  - a sparse map of 4 KiB pages allocated on first touch, the
 *    fallback for anything outside the span.
 *
 * Every write into the arena marks its (span-relative) 4 KiB page
 * dirty, so reset() with an unchanged span re-zeroes only what the
 * last run wrote instead of the whole arena.
 *
 * Unwritten locations read as zero, matching an idealized
 * zero-initialized SRAM. Multi-byte accessors address each byte at
 * `addr + i` with 32-bit wrap-around; the simulators trap wrapping
 * data accesses before issuing them (see RefSim/Rissp), so the wrap
 * case is never exercised from simulated code.
 */

#ifndef RISSP_SIM_MEMORY_HH
#define RISSP_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace rissp
{

/** Dense-span + sparse-page little-endian memory. */
class Memory
{
  public:
    static constexpr uint32_t kPageBytes = 4096;

    uint8_t loadByte(uint32_t addr) const
    {
        const uint32_t off = addr - denseBase;
        if (off < dense.size())
            return dense[off];
        return loadByteSparse(addr);
    }

    uint16_t loadHalf(uint32_t addr) const
    {
        const uint32_t off = addr - denseBase;
        if (off < dense.size() && dense.size() - off >= 2) {
            const uint8_t *p = dense.data() + off;
            return static_cast<uint16_t>(p[0] |
                                         (uint32_t{p[1]} << 8));
        }
        return static_cast<uint16_t>(loadByte(addr)) |
            static_cast<uint16_t>(loadByte(addr + 1) << 8);
    }

    uint32_t loadWord(uint32_t addr) const
    {
        const uint32_t off = addr - denseBase;
        if (off < dense.size() && dense.size() - off >= 4) {
            const uint8_t *p = dense.data() + off;
            return p[0] | (uint32_t{p[1]} << 8) |
                (uint32_t{p[2]} << 16) | (uint32_t{p[3]} << 24);
        }
        return static_cast<uint32_t>(loadHalf(addr)) |
            (static_cast<uint32_t>(loadHalf(addr + 2)) << 16);
    }

    void storeByte(uint32_t addr, uint8_t value)
    {
        const uint32_t off = addr - denseBase;
        if (off < dense.size()) {
            dense[off] = value;
            markDirty(off, 1);
            return;
        }
        storeByteSparse(addr, value);
    }

    void storeHalf(uint32_t addr, uint16_t value)
    {
        const uint32_t off = addr - denseBase;
        if (off < dense.size() && dense.size() - off >= 2) {
            dense[off] = static_cast<uint8_t>(value);
            dense[off + 1] = static_cast<uint8_t>(value >> 8);
            markDirty(off, 2);
            return;
        }
        storeByte(addr, static_cast<uint8_t>(value));
        storeByte(addr + 1, static_cast<uint8_t>(value >> 8));
    }

    void storeWord(uint32_t addr, uint32_t value)
    {
        const uint32_t off = addr - denseBase;
        if (off < dense.size() && dense.size() - off >= 4) {
            dense[off] = static_cast<uint8_t>(value);
            dense[off + 1] = static_cast<uint8_t>(value >> 8);
            dense[off + 2] = static_cast<uint8_t>(value >> 16);
            dense[off + 3] = static_cast<uint8_t>(value >> 24);
            markDirty(off, 4);
            return;
        }
        storeHalf(addr, static_cast<uint16_t>(value));
        storeHalf(addr + 2, static_cast<uint16_t>(value >> 16));
    }

    /** Copy a block of bytes into memory. */
    void storeBlock(uint32_t addr, const uint8_t *data, size_t len);

    /** Copy a block of bytes out of memory. */
    std::vector<uint8_t> loadBlock(uint32_t addr, size_t len) const;

    /**
     * Back [base, base+size) with a zero-initialized dense arena.
     * Bytes already stored in the span through the page map are
     * migrated, so reserving over a populated memory is safe. Only
     * one span exists at a time; reserving replaces the previous one
     * (its contents are dropped — callers reserve right after
     * clear()).
     */
    void reserveSpan(uint32_t base, uint32_t size);

    /** Drop all pages and the dense span. */
    void clear()
    {
        pages.clear();
        dense.clear();
        dirtyPages.clear();
        denseBase = 0;
    }

    /**
     * Empty the memory and back [base, base+size) with a zeroed dense
     * arena: clear() then reserveSpan(), except that when the arena
     * already has this geometry only the pages written since the last
     * reset are re-zeroed. A simulator reused across runs then pays
     * for the memory a run touched, not for the whole span.
     */
    void reset(uint32_t base, uint32_t size);

    /** Number of touched pages (for tests; the dense span is not a
     *  page). */
    size_t touchedPages() const { return pages.size(); }

    /** Dense span geometry (for tests). */
    uint32_t spanBase() const { return denseBase; }
    size_t spanSize() const { return dense.size(); }

  private:
    using Page = std::array<uint8_t, kPageBytes>;

    uint8_t loadByteSparse(uint32_t addr) const;
    void storeByteSparse(uint32_t addr, uint8_t value);

    const Page *findPage(uint32_t addr) const;
    Page &touchPage(uint32_t addr);

    /** Mark the arena pages under [off, off+len) dirty (len <= 4). */
    void markDirty(uint32_t off, uint32_t len)
    {
        dirtyPages[off / kPageBytes] = 1;
        dirtyPages[(off + len - 1) / kPageBytes] = 1;
    }
    /** Same for an arbitrary in-arena block. */
    void markDirtyRange(uint32_t off, size_t len);

    uint32_t denseBase = 0;
    std::vector<uint8_t> dense;
    /** One flag per kPageBytes of the arena: written since reset. */
    std::vector<uint8_t> dirtyPages;
    std::unordered_map<uint32_t, std::unique_ptr<Page>> pages;
};

} // namespace rissp

#endif // RISSP_SIM_MEMORY_HH
