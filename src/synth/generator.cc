#include "synth/generator.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "synth/activities.hh"
#include "synth/bbids.hh"
#include "synth/emitter.hh"
#include "synth/kernel_layout.hh"

namespace oscache
{

namespace
{

/** One planned activity within a quantum. */
struct Task
{
    enum class Kind : std::uint8_t
    {
        User,
        PageFault,
        Fork,
        Exec,
        Syscall,
        FileIo,
        Network,
        DirScan,
        CpiSend,
        CpiReceive,
        TimerTick,
        Pager,
    };

    Kind kind = Kind::User;
    CpuId peer = 0; ///< CPI destination (for CpiSend).
};

/** floor(rate) events plus one more with the fractional probability. */
unsigned
sampleCount(Rng &rng, double rate)
{
    const unsigned whole = static_cast<unsigned>(rate);
    const double frac = rate - whole;
    return whole + (rng.chance(frac) ? 1u : 0u);
}

/** Fisher-Yates shuffle driven by the master RNG. */
template <typename T>
void
shuffle(Rng &rng, std::vector<T> &items)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

} // namespace

struct TraceGenerator::Impl
{
    Impl(const WorkloadProfile &wl_profile, const CoherenceOptions &options,
         unsigned num_cpus)
        : profile(wl_profile), numCpus(num_cpus), layout(num_cpus, options),
          pages(layout.updatePages()), acts(layout, this->profile),
          rng(wl_profile.seed),
          procs(std::min<unsigned>(wl_profile.numProcs,
                                   KernelLayout::numProcs)),
          curProc(num_cpus)
    {
        emitters.reserve(num_cpus);
        for (CpuId cpu = 0; cpu < num_cpus; ++cpu) {
            emitters.emplace_back(parked, table, profile.osExecScale);
            curProc[cpu] = cpu % procs;
        }
    }

    WorkloadProfile profile;
    unsigned numCpus;
    KernelLayout layout;
    std::unordered_set<Addr> pages;
    BlockOpTable table;
    Activities acts;
    Rng rng;
    unsigned procs;
    std::vector<unsigned> curProc;
    /** Emitters point here outside their cpu's emission; never written. */
    RecordStream parked;
    std::vector<Emitter> emitters;
    unsigned barrierEpisode = 0;
    unsigned quantum = 0;
};

TraceGenerator::TraceGenerator(const WorkloadProfile &profile,
                               const CoherenceOptions &options,
                               unsigned num_cpus)
    : impl(std::make_unique<Impl>(profile, options, num_cpus))
{}

TraceGenerator::~TraceGenerator() = default;

unsigned
TraceGenerator::numCpus() const
{
    return impl->numCpus;
}

const std::unordered_set<Addr> &
TraceGenerator::updatePages() const
{
    return impl->pages;
}

const BlockOpTable &
TraceGenerator::blockOps() const
{
    return impl->table;
}

BlockOpTable &
TraceGenerator::blockOps()
{
    return impl->table;
}

bool
TraceGenerator::done() const
{
    return impl->quantum >= impl->profile.quanta;
}

void
TraceGenerator::nextQuantum(const std::vector<RecordStream *> &sinks,
                            const std::function<void(CpuId)> &emitted)
{
    Impl &st = *impl;
    if (done())
        panic("TraceGenerator::nextQuantum called after the last quantum");
    if (sinks.size() != st.numCpus)
        panic("TraceGenerator::nextQuantum: ", sinks.size(),
              " sinks for ", st.numCpus, " cpus");

    const WorkloadProfile &profile = st.profile;
    const unsigned num_cpus = st.numCpus;
    Rng &rng = st.rng;
    Activities &acts = st.acts;

    const unsigned q = st.quantum;

    // ---- Machine-wide planning (same draws for every layout). ------
    const unsigned barriers = sampleCount(rng, profile.barrierEpisodes);
    const unsigned cpi_events = sampleCount(rng, profile.cpis);
    const unsigned pager_events = sampleCount(rng, profile.pagerRuns);

    // Per-CPU task lists.
    std::vector<std::vector<Task>> tasks(num_cpus);
    for (CpuId cpu = 0; cpu < num_cpus; ++cpu) {
        auto &list = tasks[cpu];
        auto add = [&list](Task::Kind kind, unsigned count) {
            for (unsigned i = 0; i < count; ++i)
                list.push_back(Task{kind, 0});
        };
        add(Task::Kind::User, profile.userSlices);
        add(Task::Kind::PageFault, sampleCount(rng, profile.pageFaults));
        add(Task::Kind::Fork, sampleCount(rng, profile.forks));
        add(Task::Kind::Exec, sampleCount(rng, profile.execs));
        add(Task::Kind::Syscall, sampleCount(rng, profile.syscalls));
        add(Task::Kind::FileIo, sampleCount(rng, profile.fileIos));
        add(Task::Kind::Network, sampleCount(rng, profile.networkOps));
        add(Task::Kind::DirScan, sampleCount(rng, profile.dirScans));
        add(Task::Kind::TimerTick, 1);
    }
    for (unsigned i = 0; i < cpi_events; ++i) {
        const CpuId src = CpuId(rng.below(num_cpus));
        CpuId dst = CpuId(rng.below(num_cpus));
        if (dst == src)
            dst = CpuId((dst + 1) % num_cpus);
        tasks[src].push_back(Task{Task::Kind::CpiSend, dst});
        tasks[dst].push_back(Task{Task::Kind::CpiReceive, dst});
    }
    for (unsigned i = 0; i < pager_events; ++i) {
        const CpuId cpu = CpuId(rng.below(num_cpus));
        tasks[cpu].push_back(Task{Task::Kind::Pager, 0});
    }
    for (CpuId cpu = 0; cpu < num_cpus; ++cpu)
        shuffle(rng, tasks[cpu]);

    // ---- Emission. -------------------------------------------------
    // One processor plays scheduling master each quantum and flips
    // the regime variable the others poll.
    const CpuId master = CpuId(q % num_cpus);

    for (CpuId cpu = 0; cpu < num_cpus; ++cpu) {
        Emitter &em = st.emitters[cpu];
        em.retarget(*sinks[cpu]);
        const std::uint64_t estimate_before = em.cycleEstimate();
        if (cpu == master)
            acts.regimeChange(em, rng, cpu);
        // Long-running jobs often keep their processor for several
        // quanta.
        const unsigned next_proc = rng.chance(profile.procStickiness)
            ? st.curProc[cpu] : unsigned(rng.below(st.procs));
        acts.contextSwitch(em, rng, cpu, st.curProc[cpu], next_proc);
        st.curProc[cpu] = next_proc;

        // Gang-scheduled parallel phase: the barrier episodes run as
        // a burst at the head of the quantum with balanced slices of
        // the parallel application between them, as a gang-scheduled
        // program does.  The balance keeps the spin time per barrier
        // small; the arrival/release misses are what the coherence
        // analysis cares about.
        for (unsigned b = 0; b < barriers; ++b) {
            acts.gangBarrier(em, rng, cpu, st.barrierEpisode + b,
                             num_cpus);
            em.userExec(200, bb::userNumeric);
        }

        const auto &list = tasks[cpu];
        for (std::size_t t = 0; t < list.size(); ++t) {
            const Task &task = list[t];
            switch (task.kind) {
              case Task::Kind::User:
                acts.userCompute(em, rng, cpu, st.curProc[cpu]);
                break;
              case Task::Kind::PageFault:
                acts.pageFault(em, rng, cpu, st.curProc[cpu]);
                break;
              case Task::Kind::Fork: {
                const unsigned child = unsigned(rng.below(st.procs));
                acts.fork(em, rng, cpu, st.curProc[cpu], child);
                break;
              }
              case Task::Kind::Exec:
                acts.execProcess(em, rng, cpu, st.curProc[cpu]);
                break;
              case Task::Kind::Syscall:
                acts.syscall(em, rng, cpu, st.curProc[cpu]);
                break;
              case Task::Kind::FileIo:
                acts.fileIo(em, rng, cpu, st.curProc[cpu]);
                break;
              case Task::Kind::Network:
                acts.networkOp(em, rng, cpu, st.curProc[cpu]);
                break;
              case Task::Kind::DirScan:
                acts.dirScan(em, rng, cpu);
                break;
              case Task::Kind::CpiSend:
                acts.cpiSend(em, rng, cpu, task.peer);
                break;
              case Task::Kind::CpiReceive:
                acts.cpiReceive(em, rng, cpu);
                break;
              case Task::Kind::TimerTick:
                acts.timerTick(em, rng, cpu, st.curProc[cpu]);
                break;
              case Task::Kind::Pager:
                acts.pagerRun(em, rng, cpu);
                break;
            }
        }
        // Idle tail of the quantum (no runnable process).
        if (profile.idleFraction > 0.0) {
            const double busy_estimate =
                double(em.cycleEstimate() - estimate_before);
            const double idle = busy_estimate * profile.idleFraction /
                (1.0 - profile.idleFraction);
            em.idle(static_cast<std::uint32_t>(idle));
        }
        em.retarget(st.parked);
        if (emitted)
            emitted(cpu);
    }
    st.barrierEpisode += barriers;
    st.quantum += 1;
}

Trace
generateTrace(const WorkloadProfile &profile,
              const CoherenceOptions &options, unsigned num_cpus)
{
    TraceGenerator gen(profile, options, num_cpus);
    Trace trace(num_cpus);
    trace.updatePages() = gen.updatePages();

    std::vector<RecordStream *> sinks(num_cpus);
    for (CpuId cpu = 0; cpu < num_cpus; ++cpu)
        sinks[cpu] = &trace.stream(cpu);
    while (!gen.done())
        gen.nextQuantum(sinks);

    trace.blockOps() = std::move(gen.blockOps());
    return trace;
}

Trace
generateTrace(WorkloadKind kind, const CoherenceOptions &options,
              unsigned num_cpus)
{
    return generateTrace(WorkloadProfile::forKind(kind), options, num_cpus);
}

PackedTrace
generatePacked(const WorkloadProfile &profile,
               const CoherenceOptions &options, unsigned num_cpus)
{
    TraceGenerator gen(profile, options, num_cpus);
    PackedTrace::Builder builder(num_cpus);
    // Every cpu emits into one sink, packed as soon as it is full.
    RecordStream records;
    const std::vector<RecordStream *> sinks(num_cpus, &records);
    while (!gen.done())
        gen.nextQuantum(sinks, [&](CpuId cpu) {
            builder.append(cpu, records.data(), records.size());
            records.clear();
        });
    return std::move(builder).finish(gen.blockOps(), gen.updatePages());
}

} // namespace oscache
