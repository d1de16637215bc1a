/**
 * @file
 * Static trace linter.
 *
 * lintTrace() validates the well-formedness of a Trace without
 * simulating it: properties the replay engine assumes and would
 * otherwise only discover as a mid-run panic (or worse, silently
 * misattribute misses over).
 *
 * Checked per processor stream:
 *  - block-operation brackets are balanced, properly nested, and
 *    reference table entries that exist;
 *  - lock acquire/release pairs match (no recursive acquire, no
 *    release of an unheld lock, nothing held at stream end);
 *  - every record can advance simulated time (no zero-instruction
 *    Exec, zero-cycle Idle, or zero-byte data reference).
 *
 * Checked across streams:
 *  - each barrier is used with one participant count, the count is
 *    satisfiable by the machine, the set of arriving processors
 *    matches it, and arrival counts are equal (anything else
 *    deadlocks the replay);
 *  - kernel data categories carry kernel-region addresses, and lock
 *    and barrier words live in the kernel region (the
 *    kernel_layout address map places them there);
 *  - the Eraser lockset discipline (Savage et al., SOSP 1997): every
 *    write to a shared kernel variable (FreqShared, OtherShared, or
 *    a stray plain write to a Lock word) should hold some lock that
 *    is held on *every* write to it.  The walk intersects, per
 *    written address, the locks its writers held; an address written
 *    by two or more processors with an empty intersection is an
 *    UnlockedSharedWrite.  The paper's workloads deliberately include
 *    unlocked producer-consumer traffic on FreqShared data
 *    (resource-table pointers, cpievents mailboxes), so FreqShared
 *    findings are Warnings; OtherShared and Lock findings are Errors.
 *
 * User-category references are deliberately unconstrained: the
 * kernel legitimately touches user pages and the page pool on behalf
 * of a process (copy-in/out, freshly mapped frames).
 *
 * Findings come out per processor in stream order, then the barrier
 * findings, then the lockset findings in address order.
 */

#ifndef OSCACHE_CHECK_TRACELINT_HH
#define OSCACHE_CHECK_TRACELINT_HH

#include <vector>

#include "check/finding.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace oscache
{

/** Address-region bounds the category checks lint against. */
struct LintLimits
{
    /** Kernel data region: [kernelBase, kernelEnd). */
    Addr kernelBase = kernelSpaceBase;
    Addr kernelEnd = codeSpaceBase;
};

/**
 * Statically validate @p trace.  Returns all findings (Errors and
 * Warnings); an empty vector means the trace is well-formed.
 */
std::vector<CheckFinding> lintTrace(const Trace &trace,
                                    const LintLimits &limits = {});

/**
 * As lintTrace(), but pulling records through @p source's cursors —
 * one pass per processor, bounded memory on streamed sources.  A
 * finding's index is the count of records consumed before it (the
 * same index lintTrace() reports).
 */
std::vector<CheckFinding> lintSource(TraceSource &source,
                                     const LintLimits &limits = {});

} // namespace oscache

#endif // OSCACHE_CHECK_TRACELINT_HH
