#include "sim/memory.hh"

#include <algorithm>
#include <cstring>

namespace rissp
{

const Memory::Page *
Memory::findPage(uint32_t addr) const
{
    auto it = pages.find(addr / kPageBytes);
    return it == pages.end() ? nullptr : it->second.get();
}

Memory::Page &
Memory::touchPage(uint32_t addr)
{
    auto &slot = pages[addr / kPageBytes];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

uint8_t
Memory::loadByteSparse(uint32_t addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr % kPageBytes] : 0;
}

void
Memory::storeByteSparse(uint32_t addr, uint8_t value)
{
    touchPage(addr)[addr % kPageBytes] = value;
}

void
Memory::reserveSpan(uint32_t base, uint32_t size)
{
    denseBase = base;
    dense.assign(size, 0);
    dirtyPages.assign((uint64_t{size} + kPageBytes - 1) / kPageBytes, 0);
    if (size == 0)
        return;
    // Migrate bytes already stored in the span through the page map.
    // Pages swallowed whole by the arena are dropped — in-span reads
    // always hit the arena, so keeping them would only shadow stale
    // duplicates; partially-covered edge pages keep their
    // out-of-span bytes.
    const uint64_t end = static_cast<uint64_t>(base) + size;
    for (auto it = pages.begin(); it != pages.end();) {
        const uint64_t page_base =
            static_cast<uint64_t>(it->first) * kPageBytes;
        const uint64_t lo = page_base > base ? page_base : base;
        const uint64_t hi = page_base + kPageBytes < end
            ? page_base + kPageBytes : end;
        if (lo >= hi) {
            ++it;
            continue;
        }
        std::memcpy(dense.data() + (lo - base),
                    it->second->data() + (lo - page_base), hi - lo);
        markDirtyRange(static_cast<uint32_t>(lo - base),
                       static_cast<size_t>(hi - lo));
        if (lo == page_base && hi == page_base + kPageBytes)
            it = pages.erase(it);
        else
            ++it;
    }
}

void
Memory::reset(uint32_t base, uint32_t size)
{
    if (base != denseBase || size != dense.size()) {
        clear();
        reserveSpan(base, size);
        return;
    }
    pages.clear();
    for (size_t p = 0; p < dirtyPages.size(); ++p) {
        if (!dirtyPages[p])
            continue;
        const size_t lo = p * kPageBytes;
        std::memset(dense.data() + lo, 0,
                    std::min<size_t>(kPageBytes, dense.size() - lo));
        dirtyPages[p] = 0;
    }
}

void
Memory::markDirtyRange(uint32_t off, size_t len)
{
    if (len == 0)
        return;
    const size_t last = (off + len - 1) / kPageBytes;
    for (size_t p = off / kPageBytes; p <= last; ++p)
        dirtyPages[p] = 1;
}

void
Memory::storeBlock(uint32_t addr, const uint8_t *data, size_t len)
{
    const uint32_t off = addr - denseBase;
    if (off < dense.size() && dense.size() - off >= len) {
        std::memcpy(dense.data() + off, data, len);
        markDirtyRange(off, len);
        return;
    }
    for (size_t i = 0; i < len; ++i)
        storeByte(addr + static_cast<uint32_t>(i), data[i]);
}

std::vector<uint8_t>
Memory::loadBlock(uint32_t addr, size_t len) const
{
    std::vector<uint8_t> out(len);
    const uint32_t off = addr - denseBase;
    if (off < dense.size() && dense.size() - off >= len) {
        std::memcpy(out.data(), dense.data() + off, len);
        return out;
    }
    for (size_t i = 0; i < len; ++i)
        out[i] = loadByte(addr + static_cast<uint32_t>(i));
    return out;
}

} // namespace rissp
