/**
 * @file
 * Split-transaction shared bus with contention.
 *
 * The bus is modeled as a single serially-reusable resource: a
 * transaction issued at time t is granted at max(t, free time) and
 * occupies the bus for its occupancy; requests are therefore serviced
 * in issue order (FIFO), which approximates the round-robin
 * arbitration of real buses well for trace-driven simulation.
 * Traffic statistics are kept per transaction kind so experiments can
 * report, e.g., the extra traffic of the selective-update protocol.
 */

#ifndef OSCACHE_MEM_BUS_HH
#define OSCACHE_MEM_BUS_HH

#include <array>
#include <cstdint>

#include "common/binio.hh"
#include "common/types.hh"

namespace oscache
{

/** Kinds of bus transactions, for traffic accounting. */
enum class BusTxn : std::uint8_t
{
    LineFill,     ///< Read (or read-exclusive) line transfer.
    WriteBack,    ///< Dirty-line writeback.
    Invalidate,   ///< Address-only invalidation.
    Update,       ///< Firefly word-update broadcast.
    Dma,          ///< DMA-like block-operation transfer.
    NumKinds,
};

/**
 * Passive probe notified of every bus grant.  Attached by the
 * observability hub for occupancy time series and transaction-level
 * timeline events; costs one null-pointer test per acquire when off.
 */
struct BusProbe
{
    virtual ~BusProbe() = default;

    /**
     * A transaction of @p kind was granted at @p grant (after waiting
     * since @p requested) and occupies the bus for @p occupancy.
     */
    virtual void onBusAcquire(BusTxn kind, Cycles requested, Cycles grant,
                              Cycles occupancy, std::uint32_t bytes) = 0;
};

/**
 * The shared split-transaction bus.
 */
class Bus
{
  public:
    /**
     * Acquire the bus at or after @p when for @p occupancy cycles.
     *
     * @param when      Earliest cycle the requester can use the bus.
     * @param occupancy Cycles the transaction occupies the bus.
     * @param kind      Transaction kind, for traffic statistics.
     * @param bytes     Payload bytes moved, for traffic statistics.
     * @return The grant cycle (>= when).
     */
    Cycles
    acquire(Cycles when, Cycles occupancy, BusTxn kind, std::uint32_t bytes)
    {
        const Cycles grant = when > freeAt ? when : freeAt;
        freeAt = grant + occupancy;
        busyCycles += occupancy;
        auto idx = static_cast<std::size_t>(kind);
        txnCount[idx] += 1;
        txnBytes[idx] += bytes;
        txnCycles[idx] += occupancy;
        if (probe != nullptr)
            probe->onBusAcquire(kind, when, grant, occupancy, bytes);
        return grant;
    }

    /** Attach (or, with nullptr, detach) the observability probe. */
    void setProbe(BusProbe *p) { probe = p; }

    /** The attached probe, or nullptr. */
    BusProbe *attachedProbe() const { return probe; }

    /** Cycle at which the bus next becomes free. */
    Cycles nextFree() const { return freeAt; }

    /** Total cycles the bus has been occupied. */
    Cycles totalBusyCycles() const { return busyCycles; }

    /** Number of transactions of @p kind. */
    std::uint64_t
    transactions(BusTxn kind) const
    {
        return txnCount[static_cast<std::size_t>(kind)];
    }

    /** Payload bytes moved by transactions of @p kind. */
    std::uint64_t
    bytes(BusTxn kind) const
    {
        return txnBytes[static_cast<std::size_t>(kind)];
    }

    /** Bus cycles consumed by transactions of @p kind. */
    std::uint64_t
    cycles(BusTxn kind) const
    {
        return txnCycles[static_cast<std::size_t>(kind)];
    }

    /** Total transactions of all kinds. */
    std::uint64_t
    totalTransactions() const
    {
        std::uint64_t n = 0;
        for (auto c : txnCount)
            n += c;
        return n;
    }

    /** Total payload bytes of all kinds. */
    std::uint64_t
    totalBytes() const
    {
        std::uint64_t n = 0;
        for (auto b : txnBytes)
            n += b;
        return n;
    }

    /** Serialize timing and traffic state (the probe is not state). */
    void
    saveState(binio::BinaryWriter &w) const
    {
        w.put(freeAt);
        w.put(busyCycles);
        for (std::size_t i = 0; i < numKinds; ++i) {
            w.put(txnCount[i]);
            w.put(txnBytes[i]);
            w.put(txnCycles[i]);
        }
    }

    /** Inverse of saveState(); false on truncation. */
    bool
    loadState(binio::BinaryReader &r)
    {
        if (!r.get(freeAt) || !r.get(busyCycles))
            return false;
        for (std::size_t i = 0; i < numKinds; ++i)
            if (!r.get(txnCount[i]) || !r.get(txnBytes[i]) ||
                !r.get(txnCycles[i]))
                return false;
        return true;
    }

  private:
    Cycles freeAt = 0;
    Cycles busyCycles = 0;
    BusProbe *probe = nullptr;
    static constexpr std::size_t numKinds =
        static_cast<std::size_t>(BusTxn::NumKinds);
    std::array<std::uint64_t, numKinds> txnCount{};
    std::array<std::uint64_t, numKinds> txnBytes{};
    std::array<std::uint64_t, numKinds> txnCycles{};
};

} // namespace oscache

#endif // OSCACHE_MEM_BUS_HH
