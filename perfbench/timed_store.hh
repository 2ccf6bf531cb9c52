/**
 * @file
 * A timing decorator over `store::ArtifactStore`, injected through
 * `ServiceOptions::artifacts`: it forwards every load and publish to
 * the real store, records a `store.load` / `store.publish` span
 * around it, and counts operations and bytes per artifact kind. This
 * measures the store layer from outside, without touching
 * `src/store/`.
 */

#ifndef PERFBENCH_TIMED_STORE_HH
#define PERFBENCH_TIMED_STORE_HH

#include <array>
#include <atomic>
#include <memory>

#include "store/artifact_store.hh"
#include "trace.hh"

namespace perfbench
{

/** Totals over all kinds, read once the sweep has settled. */
struct StoreCounts
{
    uint64_t loads = 0;
    uint64_t loadHits = 0;
    uint64_t publishes = 0;
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    double busyMs = 0; ///< wall time spent inside the store

    StoreCounts &
    operator+=(const StoreCounts &other)
    {
        loads += other.loads;
        loadHits += other.loadHits;
        publishes += other.publishes;
        bytesRead += other.bytesRead;
        bytesWritten += other.bytesWritten;
        busyMs += other.busyMs;
        return *this;
    }
};

class TimedStore final : public rissp::store::ArtifactStore
{
  public:
    explicit TimedStore(std::shared_ptr<rissp::store::ArtifactStore> inner)
        : inner(std::move(inner))
    {
    }

    bool
    load(rissp::store::ArtifactKind kind,
         const rissp::store::ArtifactKey &key,
         std::vector<uint8_t> &payload) override
    {
        Span span("store.load");
        const bool hit = inner->load(kind, key, payload);
        PerKind &k = kinds[static_cast<size_t>(kind)];
        k.loads.fetch_add(1, std::memory_order_relaxed);
        if (hit) {
            k.loadHits.fetch_add(1, std::memory_order_relaxed);
            k.bytesRead.fetch_add(payload.size(),
                                  std::memory_order_relaxed);
        }
        addBusy(span.stop());
        return hit;
    }

    bool
    publish(rissp::store::ArtifactKind kind,
            const rissp::store::ArtifactKey &key,
            const std::vector<uint8_t> &payload) override
    {
        Span span("store.publish");
        const bool ok = inner->publish(kind, key, payload);
        PerKind &k = kinds[static_cast<size_t>(kind)];
        k.publishes.fetch_add(1, std::memory_order_relaxed);
        if (ok)
            k.bytesWritten.fetch_add(payload.size(),
                                     std::memory_order_relaxed);
        addBusy(span.stop());
        return ok;
    }

    rissp::store::StoreStats stats() const override
    {
        return inner->stats();
    }

    /** Counts of one artifact kind (busyMs stays 0: busy time is
     *  only kept in total). */
    StoreCounts
    counts(rissp::store::ArtifactKind kind) const
    {
        const PerKind &k = kinds[static_cast<size_t>(kind)];
        StoreCounts c;
        c.loads = k.loads.load();
        c.loadHits = k.loadHits.load();
        c.publishes = k.publishes.load();
        c.bytesRead = k.bytesRead.load();
        c.bytesWritten = k.bytesWritten.load();
        return c;
    }

    /** Counts over every kind, with the total busy time. */
    StoreCounts
    counts() const
    {
        StoreCounts c;
        for (unsigned i = 0; i < rissp::store::kArtifactKindCount; ++i)
            c += counts(static_cast<rissp::store::ArtifactKind>(i));
        c.busyMs = static_cast<double>(busyNs.load()) / 1e6;
        return c;
    }

  private:
    struct PerKind
    {
        std::atomic<uint64_t> loads{0};
        std::atomic<uint64_t> loadHits{0};
        std::atomic<uint64_t> publishes{0};
        std::atomic<uint64_t> bytesRead{0};
        std::atomic<uint64_t> bytesWritten{0};
    };

    void
    addBusy(double ms)
    {
        busyNs.fetch_add(static_cast<uint64_t>(ms * 1e6),
                         std::memory_order_relaxed);
    }

    std::shared_ptr<rissp::store::ArtifactStore> inner;
    std::array<PerKind, rissp::store::kArtifactKindCount> kinds;
    std::atomic<uint64_t> busyNs{0};
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_STORE_HH
