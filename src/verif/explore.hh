/**
 * @file
 * Exhaustive reachability explorer over a protocol specification.
 *
 * The explorer enumerates every global state a small configuration
 * (2-4 processors x 1-2 cache slots x 1-2 addresses, plus a bounded
 * per-processor bypass write buffer) can reach under a SchemeSpec's
 * transition tables, breadth-first, and checks the protocol's safety
 * invariants at every state:
 *
 *  - SWMR: an Exclusive/Modified copy is the only valid copy;
 *  - no Exclusive state under MSI;
 *  - data value: every valid copy holds the newest data, and memory
 *    does when no Modified copy or buffered line write exists (so a
 *    silently dropped dirty line, a missed invalidation, or a missed
 *    update is caught as staleness, not just as a state-shape bug);
 *  - write-buffer consistency: buffered bypass lines drain FIFO,
 *    never exceed the configured depth, and no cache holds a valid
 *    copy of a buffer-pending line (the forwarding guarantee);
 *  - no stuck states.
 *
 * Data values are abstracted to freshness bits (per-copy and
 * per-address-in-memory), which keeps the state space finite while
 * still distinguishing "has the newest value" from "stale".
 *
 * States are canonicalized by sorting the per-processor encodings
 * (the processors are interchangeable: same caches, same tables), so
 * symmetric interleavings collapse to one representative; see
 * DESIGN.md for the soundness argument.
 *
 * On a violation the BFS parent chain is rebuilt into the initiating
 * event path, and realizeCounterexample() lowers that path to a
 * replayable trace (one memory record or block operation per step,
 * idle-padded so the engine's min-time scheduler reproduces exactly
 * the explored interleaving) that oscache-dft's oracle differ and the
 * conformance extractor can replay dynamically.
 */

#ifndef OSCACHE_VERIF_EXPLORE_HH
#define OSCACHE_VERIF_EXPLORE_HH

#include <cstdint>
#include <vector>

#include "check/finding.hh"
#include "core/blockop/schemes.hh"
#include "mem/config.hh"
#include "trace/trace.hh"
#include "verif/spec.hh"

namespace oscache
{
namespace verif
{

/** Size of the explored configuration. */
struct ExploreConfig
{
    /** Processors (2..4). */
    unsigned cpus = 2;
    /** Distinct line addresses (1..2). */
    unsigned addrs = 2;
    /**
     * Cache slots (sets) per processor (1..2).  Addresses whose
     * index collides modulo this conflict: filling one evicts the
     * other, which is how replacement edges are explored.
     */
    unsigned sets = 1;
    /** Modeled bypass write-buffer entries per processor (0..2). */
    unsigned wbDepth = 2;
    /**
     * Sockets of the two-level interconnect (must divide cpus; 1 =
     * flat bus).  The home-node directory filter is precise, so the
     * protocol tables are socket-blind and the reachable state space
     * is the same; what changes is the symmetry group used for
     * canonicalization (only within-socket and whole-socket-block
     * permutations are automorphisms of the filtered machine) and the
     * cross-socket annotation on SWMR findings.
     */
    unsigned sockets = 1;
};

/** One initiating step of the explored system. */
struct ExploreStep
{
    enum class Op : std::uint8_t
    {
        Read,        ///< Processor load.
        Write,       ///< Processor store.
        Evict,       ///< Replacement of a resident line.
        Drain,       ///< Drain one bypass write-buffer entry.
        BypassWrite, ///< Blk_Bypass full-line destination write.
        BypassRead,  ///< Blk_Bypass source read (no allocation).
        DmaZero,     ///< Blk_Dma zero of a line.
        DmaCopy,     ///< Blk_Dma copy between two addresses.
    };

    std::uint8_t cpu = 0;
    Op op = Op::Read;
    std::uint8_t addr = 0;  ///< Primary (destination) address index.
    std::uint8_t addr2 = 0; ///< DmaCopy source address index.
};

/** Human-readable rendering of one step. */
std::string formatStep(const ExploreStep &step);

/** Outcome of an exhaustive exploration. */
struct ExploreResult
{
    /** Canonical states reached (including the initial state). */
    std::uint64_t states = 0;
    /** Transitions (edges) examined. */
    std::uint64_t transitions = 0;
    /** Invariant violations; empty on a clean run. */
    std::vector<CheckFinding> findings;
    /** Initiating-step path from reset to the first violation. */
    std::vector<ExploreStep> path;

    bool ok() const { return findings.empty(); }
};

/**
 * Exhaustively explore @p spec under @p cfg.  Stops at the first
 * invariant violation (with the path populated); otherwise visits
 * the entire reachable space.
 */
ExploreResult explore(const SchemeSpec &spec, const ExploreConfig &cfg);

/**
 * A violation path lowered to a concrete replayable system: a chunked
 * trace over a tiny direct-mapped machine, plus the block-operation
 * scheme the replay must use.
 */
struct Counterexample
{
    Trace trace;
    MachineConfig machine;
    BlockScheme blockScheme = BlockScheme::Base;
    /** Model address index -> concrete line address. */
    std::vector<Addr> addrOf;

    Counterexample() : trace(1) {}
};

/**
 * Lower @p path (as returned by explore()) to a replayable trace.
 * Each step becomes one memory record or block operation on its
 * initiating processor, scheduled into its own exclusive time slot
 * with idle padding so the replay engine serializes the steps in
 * exactly the explored order.
 */
Counterexample realizeCounterexample(const SchemeSpec &spec,
                                     const ExploreConfig &cfg,
                                     const std::vector<ExploreStep> &path);

} // namespace verif
} // namespace oscache

#endif // OSCACHE_VERIF_EXPLORE_HH
