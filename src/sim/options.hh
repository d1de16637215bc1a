/**
 * @file
 * Tunable parameters of the simulation engine that are not hardware
 * configuration (those live in MachineConfig).
 */

#ifndef OSCACHE_SIM_OPTIONS_HH
#define OSCACHE_SIM_OPTIONS_HH

#include "common/types.hh"
#include "obs/options.hh"

namespace oscache
{

/** Behavioural knobs of the trace-driven processor model. */
struct SimOptions
{
    /**
     * Instruction-miss stall cycles charged per executed OS
     * instruction.  The paper's instruction side is not simulated in
     * detail (its companion work covers it); this coarse model keeps
     * the Exec / I-Miss share of OS time realistic so the relative
     * gains of the data-side optimizations match Figure 3.
     */
    double osImissCpi = 0.35;

    /** Same, for user instructions (applications miss far less). */
    double userImissCpi = 0.04;

    /**
     * Simulate the 16-KB primary instruction cache in detail instead
     * of the statistical per-instruction I-miss charge.  Off by
     * default: the statistical model is what the workload profiles
     * were calibrated with; the detailed model is exercised by the
     * I-cache ablation.
     */
    bool modelICache = false;

    /**
     * Cycles a processor spins locally between re-checks of a held
     * lock or an incomplete barrier (test-and-test-and-set loop).
     */
    Cycles spinQuantum = 25;

    /** Machine word size in bytes (the FX/8 is a 32-bit machine). */
    std::uint32_t wordSize = 4;

    /**
     * Attach the coherence invariant checker (src/check) to the
     * memory system and panic on any violation.  On by default: it
     * turns a subtle protocol bug into an immediate, attributed
     * failure.  Measured cost: a checked replay takes about 1.5× as
     * long as a bare one (checker time 0.44–0.54 of replay time across
     * the perfbench workloads; 1.3–2.0× per workload in
     * bench/perf_simulator; Release builds on a shared 4-core Xeon VM).
     */
    bool checkCoherence = true;

    /**
     * Observability opt-ins (src/obs).  All off by default — the
     * memory system then pays only a flag test per event.  The runner
     * attaches exactly the observers these ask for.
     */
    ObsOptions obs;
};

} // namespace oscache

#endif // OSCACHE_SIM_OPTIONS_HH
