/**
 * @file
 * Single-allocation bump arena for per-run simulation state.
 *
 * The memory system's hot per-access state — every cache's tag bank,
 * the L2 MESI state bank, and both write buffers' entry rings — is
 * sized once per run by the MachineConfig and never grows.  Carving
 * all of it out of one contiguous allocation keeps the banks of all
 * processors adjacent (one or two TLB pages for the whole machine
 * model instead of a dozen scattered vector allocations) and makes
 * the steady-state replay loop allocation-free.
 *
 * The arena is deliberately minimal: reserve once, carve aligned
 * typed spans, no individual free.  Spans are valid for the arena's
 * lifetime; the owning object (MemorySystem) declares the arena
 * before the members that carve from it.
 */

#ifndef OSCACHE_MEM_ARENA_HH
#define OSCACHE_MEM_ARENA_HH

#include <cstddef>
#include <cstring>
#include <memory>

#include "common/log.hh"

namespace oscache
{

/**
 * Bump allocator over one up-front allocation.
 */
class SimArena
{
  public:
    SimArena() = default;

    SimArena(const SimArena &) = delete;
    SimArena &operator=(const SimArena &) = delete;
    SimArena(SimArena &&) = default;
    SimArena &operator=(SimArena &&) = default;

    /** Alignment of every carved span. */
    static constexpr std::size_t alignment = 16;

    /** Bytes @p count objects of @p elem_size cost, carve-aligned. */
    static constexpr std::size_t
    spanBytes(std::size_t count, std::size_t elem_size)
    {
        return (count * elem_size + alignment - 1) & ~(alignment - 1);
    }

    /** Make @p bytes available; discards any previous reservation. */
    void
    reserve(std::size_t bytes)
    {
        storage = std::make_unique<std::byte[]>(bytes);
        std::memset(storage.get(), 0, bytes);
        capacity = bytes;
        used = 0;
    }

    /**
     * Carve a zero-initialized span of @p count objects of T.  The
     * arena never grows: exceeding the reservation is a sizing bug
     * in the caller and panics.
     */
    template <typename T>
    T *
    allocate(std::size_t count)
    {
        static_assert(alignof(T) <= alignment,
                      "SimArena only hands out 16-byte-aligned spans");
        const std::size_t bytes = spanBytes(count, sizeof(T));
        if (used + bytes > capacity)
            panic("SimArena: reservation exhausted (", used, " + ", bytes,
                  " > ", capacity, ")");
        T *span = reinterpret_cast<T *>(storage.get() + used);
        used += bytes;
        return span;
    }

  private:
    std::unique_ptr<std::byte[]> storage;
    std::size_t capacity = 0;
    std::size_t used = 0;
};

} // namespace oscache

#endif // OSCACHE_MEM_ARENA_HH
