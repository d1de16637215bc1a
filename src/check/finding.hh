/**
 * @file
 * Findings produced by the verification passes.
 *
 * The passes of the oscache-lint subsystem — the coherence invariant
 * checker (src/check/invariants.hh) and the trace linter with its
 * lockset race detection (src/check/tracelint.hh) — all report
 * through the same finding record so the CLI, the runner, and the
 * tests can treat them uniformly.
 *
 * Severity semantics: an Error is a defect (a broken protocol state,
 * a malformed trace, a locking bug); a Warning flags behaviour that
 * is legal but worth a look (e.g. an unlocked write to a
 * frequently-shared variable with intentional producer-consumer
 * sharing).  Tools fail on Errors only.
 */

#ifndef OSCACHE_CHECK_FINDING_HH
#define OSCACHE_CHECK_FINDING_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace oscache
{

/** What a verification pass found. */
enum class CheckCode : std::uint8_t
{
    /** @name Coherence invariant checker @{ */
    /** More than one Modified/Exclusive copy, or owner + sharers. */
    SwmrViolation,
    /** A primary-resident line is missing from its secondary cache. */
    InclusionViolation,
    /** A MESI transition the protocol can never take (e.g. S->E). */
    IllegalTransition,
    /** The observer's shadow state disagrees with the real caches. */
    ShadowMismatch,
    /** A write completed without ownership of the written line. */
    OwnershipViolation,
    /** A write buffer scheduled drains out of FIFO order. */
    WriteBufferInconsistency,
    /** @} */

    /** @name Trace linter @{ */
    /** BlockOpBegin without End (or End without Begin). */
    UnbalancedBlockOp,
    /** BlockOpEnd closing a different operation than the open one. */
    MismatchedBlockOpEnd,
    /** Block-operation id with no table entry. */
    UnknownBlockOp,
    /** LockRelease of a lock the processor does not hold. */
    UnpairedLockRelease,
    /** LockAcquire of a lock the processor already holds. */
    RecursiveLockAcquire,
    /** Lock still held at the end of the stream. */
    UnreleasedLock,
    /** Barrier arrival counts cannot release every participant. */
    BarrierCountMismatch,
    /** The same barrier used with different participant counts. */
    BarrierPartiesChanged,
    /** DataCategory inconsistent with the address-space region. */
    CategoryRegionMismatch,
    /** A record that cannot advance simulated time (e.g. exec 0). */
    NoProgress,
    /** @} */

    /** @name Trace linter: lockset discipline @{ */
    /** Multi-processor shared write with an empty candidate lockset. */
    UnlockedSharedWrite,
    /** @} */

    /** @name Protocol model checker (src/verif) @{ */
    /** A valid copy or memory can return stale data (dirty line
     *  dropped, missed invalidation/update). */
    DataValueViolation,
    /** A reachable state with no enabled protocol step. */
    StuckState,
    /** The implementation took a transition the spec table forbids,
     *  or reached a different next state than the spec prescribes. */
    ForbiddenTransition,
    /** A spec transition never exercised by the conformance corpus
     *  (coverage gap, reported as a warning). */
    UnexercisedTransition,
    /** @} */
};

/** Severity of a finding. */
enum class Severity : std::uint8_t
{
    Warning,
    Error,
};

/** One verification finding. */
struct CheckFinding
{
    CheckCode code = CheckCode::SwmrViolation;
    Severity severity = Severity::Error;
    /** Processor the finding is attributed to (or 0 when global). */
    CpuId cpu = 0;
    /** Address (line or word) the finding concerns. */
    Addr addr = 0;
    /** Record index in the processor's stream, for trace findings. */
    std::size_t index = 0;
    std::string message;
};

/** Stable name of a CheckCode, for reports and tests. */
std::string_view toString(CheckCode code);

/** One-line human-readable rendering of a finding. */
std::string format(const CheckFinding &finding);

/** Number of Error-severity findings in @p findings. */
std::size_t countErrors(const std::vector<CheckFinding> &findings);

} // namespace oscache

#endif // OSCACHE_CHECK_FINDING_HH
