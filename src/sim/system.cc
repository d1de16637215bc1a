#include "sim/system.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.hh"

namespace oscache
{

System::System(TraceSource &source_, MemorySystem &mem_,
               BlockOpExecutor &executor_, const SimOptions &options,
               SimStats &stats)
    : source(source_), mem(mem_), executor(executor_), opts(options),
      simStats(stats), cur(&stats), cpus(source_.numCpus())
{
    attach();
}

void
System::setSampling(SampleController *controller, SimStats *warm_sink)
{
    if (controller != nullptr && warm_sink == nullptr)
        panic("System::setSampling: controller without a warm sink");
    sampler = controller;
    warmSink = warm_sink;
    if (sampler == nullptr)
        cur = &simStats;
}

void
System::attach()
{
    if (source.numCpus() != mem.config().numCpus)
        fatal("System: trace has ", source.numCpus(),
              " cpus but machine has ", mem.config().numCpus);
    mem.setUpdatePages(&source.updatePages());
    cursors.reserve(source.numCpus());
    for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu)
        cursors.push_back(source.cursor(cpu));
}

void
System::run()
{
    if (opts.modelICache)
        runBatched<true>();
    else
        runBatched<false>();
}

template <bool ModelICache>
void
System::runBatched()
{
    const unsigned num_cpus = source.numCpus();
    for (;;) {
        // One pass computes the exact tick() schedule (smallest
        // local time, ties broken toward the lowest id) and the
        // runner-up: the smallest time among the other live
        // processors, again with the lowest id among its achievers.
        // Iterating in id order keeps both tie-breaks right — a
        // demoted leader has a lower id than everything after it.
        CpuId best = 0, rival = 0;
        bool any = false, has_rival = false;
        Cycles best_time = 0;
        Cycles rival_time = ~Cycles{0};
        for (unsigned c = 0; c < num_cpus; ++c) {
            const CpuState &st = cpus[c];
            if (st.state == CpuRunState::Done)
                continue;
            if (!any) {
                any = true;
                best = CpuId(c);
                best_time = st.time;
            } else if (st.time < best_time) {
                rival = best;
                rival_time = best_time;
                has_rival = true;
                best = CpuId(c);
                best_time = st.time;
            } else if (st.time < rival_time) {
                rival = CpuId(c);
                rival_time = st.time;
                has_rival = true;
            }
        }
        if (!any)
            return;
        if (cpus[best].state != CpuRunState::Running) {
            // Spinning on a lock or barrier: the retiming logic and
            // its spin bookkeeping live in step().
            if (sampler == nullptr || !spinToNextBreak())
                step(best);
            continue;
        }
        if (!has_rival) {
            // Alone: nothing can preempt the batch before a complex
            // record or end of stream.
            rival = best;
            rival_time = ~Cycles{0};
        }

        CpuState &cs = cpus[best];
        RecordCursor &cursor = *cursors[best];
        bool yield = false;
        while (!yield) {
            // A sampled span never crosses a phase boundary, so one
            // query routes the whole span's statistics and opens or
            // closes windows where tick() would.
            if (sampler != nullptr)
                cur = sampler->phaseFor(best) == SamplePhase::Measure
                          ? &simStats
                          : warmSink;
            const TraceRecord *span = nullptr;
            const std::size_t n = cursor.peekRun(span);
            if (n == 0) {
                cs.state = CpuRunState::Done;
                break;
            }
            std::size_t used = 0;
            bool complex_head = false;
            while (used < n) {
                const TraceRecord &rec = span[used];
                switch (rec.type) {
                  case RecordType::Exec:
                    applyExec<ModelICache>(best, rec);
                    break;
                  case RecordType::Idle:
                    cur->idle += rec.aux;
                    cs.time += rec.aux;
                    break;
                  case RecordType::Read:
                    applyRead(best, rec);
                    break;
                  case RecordType::Write:
                    applyWrite(best, rec);
                    break;
                  case RecordType::Prefetch:
                    applyPrefetch(best, rec);
                    break;
                  case RecordType::BlockOpEnd:
                    // The Begin handler already did the work.
                    break;
                  default:
                    complex_head = true;
                    break;
                }
                if (complex_head)
                    break;
                ++used;
                // best holds the processor while it still beats the
                // runner-up under the tick() tie-break: strictly
                // earlier, or equal with the lower id.
                if (cs.time > rival_time ||
                    (cs.time == rival_time && rival < best)) {
                    yield = true;
                    break;
                }
            }
            if (used > 0) {
                cursor.advanceRun(used);
                consecutiveSpins = 0;
            }
            if (complex_head) {
                // A block-op or synchronization record: run it
                // through the step path, whose handlers may suspend
                // the processor or touch the shared sync tables.
                step(best);
                break;
            }
        }
    }
}

bool
System::tick()
{
    const unsigned num_cpus = source.numCpus();
    CpuId best = 0;
    bool any = false;
    Cycles best_time = 0;
    for (CpuId c = 0; c < num_cpus; ++c) {
        if (cpus[c].state == CpuRunState::Done)
            continue;
        if (!any || cpus[c].time < best_time) {
            any = true;
            best = c;
            best_time = cpus[c].time;
        }
    }
    if (!any)
        return false;
    step(best);
    return true;
}

Cycles
System::imissCycles(CpuId cpu, std::uint64_t instrs, bool os)
{
    const double cpi = os ? opts.osImissCpi : opts.userImissCpi;
    double total = cpus[cpu].imissCarry + static_cast<double>(instrs) * cpi;
    const Cycles whole = static_cast<Cycles>(total);
    cpus[cpu].imissCarry = total - static_cast<double>(whole);
    return whole;
}

void
System::syncRmw(CpuId cpu, Addr addr, DataCategory cat, bool os)
{
    CpuState &cs = cpus[cpu];
    AccessContext ctx;
    ctx.os = os;
    ctx.category = cat;
    const AccessResult rd = mem.read(cpu, addr, cs.time, ctx);
    cur->recordRead(os, false, cat, invalidBasicBlock, rd);
    cs.time = rd.completeAt;
    const AccessResult wr = mem.write(cpu, addr, cs.time, ctx);
    cur->recordWrite(os, false, wr);
    cs.time = wr.completeAt;
}

bool
System::maybeBreakSpin(CpuId cpu)
{
    CpuState &cs = cpus[cpu];
    if (sampler == nullptr ||
        cs.time - cs.spinStart < sampler->spinBreakCycles())
        return false;
    // The record that would have released this wait fell in a
    // skipped stretch; repair locally so replay makes progress.
    ++syncBreakCount;
    if (cs.state == CpuRunState::SpinLock) {
        auto &lock = locks[cs.waitAddr];
        syncRmw(cpu, cs.waitAddr, DataCategory::Lock, true);
        lock.held = true;
        lock.holder = cpu;
    } else {
        AccessContext ctx;
        ctx.os = true;
        ctx.category = DataCategory::Barrier;
        const AccessResult rd = mem.read(cpu, cs.waitAddr, cs.time, ctx);
        cur->recordRead(true, false, DataCategory::Barrier,
                        invalidBasicBlock, rd);
        cs.time = rd.completeAt;
    }
    cs.state = CpuRunState::Running;
    cursors[cpu]->advance();
    consecutiveSpins = 0;
    return true;
}

bool
System::spinToNextBreak()
{
    const Cycles quantum = opts.spinQuantum;
    const Cycles budget = sampler->spinBreakCycles();
    if (quantum == 0)
        return false;

    // Rounded-up quotient that cannot overflow near the Cycles limit.
    const auto quanta_in = [quantum](Cycles span) -> std::uint64_t {
        return span / quantum + (span % quantum != 0 ? 1 : 0);
    };

    // Applies only while no processor can move: every live one spins
    // on a lock that stays held or a barrier episode that stays open.
    // The next event is then the earliest forced break, keyed like
    // the scheduler by (time, id).
    bool found = false;
    CpuId breaker = 0;
    Cycles break_at = 0;
    for (CpuId c = 0; c < cpus.size(); ++c) {
        const CpuState &cs = cpus[c];
        if (cs.state == CpuRunState::Done)
            continue;
        if (cs.state == CpuRunState::Running)
            return false;
        if (cs.state == CpuRunState::SpinLock) {
            const auto lock = locks.find(cs.waitAddr);
            if (lock == locks.end() || !lock->second.held)
                return false;
        } else {
            const auto bar = barriers.find(cs.waitAddr);
            if (bar == barriers.end() ||
                bar->second.episode > cs.waitEpisode)
                return false;
        }
        // Its break step is the first k with
        // time + quantum·k − spinStart ≥ budget.
        const Cycles waited = cs.time - cs.spinStart;
        const Cycles k = waited >= budget ? 0 : quanta_in(budget - waited);
        // Beyond the panic budget it cannot break first without
        // the step-at-a-time path panicking on the way.
        if (k > spinLimit || k > (~Cycles{0} - cs.time) / quantum)
            continue;
        const Cycles at = cs.time + quantum * k;
        if (!found || at < break_at) {
            found = true;
            breaker = c;
            break_at = at;
        }
    }
    if (!found)
        return false;

    // Spin quanta each processor runs before the breaker's step, i.e.
    // steps at (time + quantum·j, c) ordered before (break_at, breaker).
    const auto quanta_before = [&](CpuId c) -> std::uint64_t {
        const Cycles t = cpus[c].time;
        if (t > break_at)
            return 0;
        const Cycles gap = break_at - t;
        return quanta_in(gap) + (gap % quantum == 0 && c < breaker ? 1 : 0);
    };
    // Keep the deadlock panic exactly where the stepped path has it.
    std::uint64_t total = consecutiveSpins;
    for (CpuId c = 0; c < cpus.size(); ++c) {
        if (cpus[c].state != CpuRunState::Done)
            total += quanta_before(c);
        if (total > spinLimit)
            return false;
    }

    for (CpuId c = 0; c < cpus.size(); ++c) {
        if (cpus[c].state == CpuRunState::Done)
            continue;
        const std::uint64_t n = quanta_before(c);
        if (n == 0)
            continue;
        // A parked cursor's phase query has no side effect.
        SimStats *sink = sampler->phaseFor(c) == SamplePhase::Measure
                             ? &simStats
                             : warmSink;
        cpus[c].time += quantum * n;
        sink->osSpin += quantum * n;
    }
    consecutiveSpins = total;
    step(breaker);
    return true;
}

void
System::step(CpuId cpu)
{
    CpuState &cs = cpus[cpu];

    // Route this step's statistics: measured windows record into the
    // primary sink, functional-warming windows into the scratch one.
    if (sampler != nullptr)
        cur = sampler->phaseFor(cpu) == SamplePhase::Measure ? &simStats
                                                             : warmSink;

    if (cs.state == CpuRunState::SpinLock) {
        auto &lock = locks[cs.waitAddr];
        if (!lock.held) {
            // Lock became free: the release write invalidated our
            // copy, so this re-read plus test-and-set misses.
            syncRmw(cpu, cs.waitAddr, DataCategory::Lock, true);
            lock.held = true;
            lock.holder = cpu;
            cs.state = CpuRunState::Running;
            cursors[cpu]->advance();
            consecutiveSpins = 0;
        } else if (!maybeBreakSpin(cpu)) {
            cs.time += opts.spinQuantum;
            cur->osSpin += opts.spinQuantum;
            if (++consecutiveSpins > spinLimit)
                panic("System: lock deadlock at addr ", cs.waitAddr);
        }
        return;
    }

    if (cs.state == CpuRunState::SpinBarrier) {
        auto &bar = barriers[cs.waitAddr];
        if (bar.episode > cs.waitEpisode) {
            if (bar.releaseAt > cs.time) {
                cur->osSpin += bar.releaseAt - cs.time;
                cs.time = bar.releaseAt;
            }
            // The releasing write invalidated (or, under the update
            // protocol, updated in place) the spinners' copies; this
            // read observes the release.
            AccessContext ctx;
            ctx.os = true;
            ctx.category = DataCategory::Barrier;
            const AccessResult rd = mem.read(cpu, cs.waitAddr, cs.time, ctx);
            cur->recordRead(true, false, DataCategory::Barrier,
                            invalidBasicBlock, rd);
            cs.time = rd.completeAt;
            cs.state = CpuRunState::Running;
            cursors[cpu]->advance();
            consecutiveSpins = 0;
        } else if (!maybeBreakSpin(cpu)) {
            cs.time += opts.spinQuantum;
            cur->osSpin += opts.spinQuantum;
            if (++consecutiveSpins > spinLimit)
                panic("System: barrier deadlock at addr ", cs.waitAddr);
        }
        return;
    }

    const TraceRecord *next = cursors[cpu]->peek();
    if (next == nullptr) {
        cs.state = CpuRunState::Done;
        return;
    }
    // Copy: on streamed sources the peeked storage is recycled once
    // a handler advances the cursor.
    const TraceRecord rec = *next;
    consecutiveSpins = 0;

    switch (rec.type) {
      case RecordType::Exec:
        handleExec(cpu, rec);
        break;
      case RecordType::Idle:
        cur->idle += rec.aux;
        cs.time += rec.aux;
        cursors[cpu]->advance();
        break;
      case RecordType::Read:
      case RecordType::Write:
      case RecordType::Prefetch:
        handleData(cpu, rec);
        break;
      case RecordType::BlockOpBegin:
        handleBlockOp(cpu, rec);
        break;
      case RecordType::BlockOpEnd:
        cursors[cpu]->advance(); // The Begin handler already did the work.
        break;
      case RecordType::LockAcquire:
        handleLockAcquire(cpu, rec);
        break;
      case RecordType::LockRelease:
        handleLockRelease(cpu, rec);
        break;
      case RecordType::BarrierArrive:
        handleBarrier(cpu, rec);
        break;
    }
}

template <bool ModelICache>
void
System::applyExec(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    const Cycles exec = rec.aux;
    // Instruction footprint: each basic block owns a stretch of the
    // code segment proportional to the instructions executed under
    // its id (capped at 4 KB).
    Cycles imiss = 0;
    if (rec.bb != invalidBasicBlock) {
        const Addr code_base = codeSpaceBase + Addr{rec.bb} * 4096;
        const std::uint32_t bytes =
            std::min<std::uint32_t>(4096, rec.aux * 8);
        if constexpr (ModelICache) {
            // Detailed model: probe the primary I-cache and charge
            // the real fill latencies.
            imiss = mem.instructionFetch(cpu, code_base, bytes, cs.time);
        } else {
            // Statistical model: capacity effect on the unified L2
            // plus a calibrated per-instruction charge.
            mem.codeFill(cpu, code_base, bytes);
            imiss = imissCycles(cpu, rec.aux, rec.isOs());
        }
    } else {
        imiss = imissCycles(cpu, rec.aux, rec.isOs());
    }
    cur->recordExec(rec.isOs(), rec.isBlockOpBody(), rec.aux, exec,
                    imiss);
    cs.time += exec + imiss;
}

void
System::applyRead(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    AccessContext ctx;
    ctx.os = rec.isOs();
    ctx.blockOpBody = rec.isBlockOpBody();
    ctx.category = rec.category;
    ctx.bb = rec.bb;
    const AccessResult res = mem.read(cpu, rec.addr, cs.time, ctx);
    cur->recordRead(ctx.os, ctx.blockOpBody, ctx.category, ctx.bb, res);
    cs.time = res.completeAt;
}

void
System::applyWrite(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    AccessContext ctx;
    ctx.os = rec.isOs();
    ctx.blockOpBody = rec.isBlockOpBody();
    ctx.category = rec.category;
    ctx.bb = rec.bb;
    const AccessResult res = mem.write(cpu, rec.addr, cs.time, ctx);
    cur->recordWrite(ctx.os, ctx.blockOpBody, res);
    cs.time = res.completeAt;
}

void
System::applyPrefetch(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    AccessContext ctx;
    ctx.os = rec.isOs();
    ctx.blockOpBody = rec.isBlockOpBody();
    ctx.category = rec.category;
    ctx.bb = rec.bb;
    mem.prefetch(cpu, rec.addr, cs.time, ctx);
    cur->recordExec(ctx.os, false, 1, 1, 0);
    cs.time += 1;
}

void
System::handleExec(CpuId cpu, const TraceRecord &rec)
{
    if (opts.modelICache)
        applyExec<true>(cpu, rec);
    else
        applyExec<false>(cpu, rec);
    cursors[cpu]->advance();
}

void
System::handleData(CpuId cpu, const TraceRecord &rec)
{
    if (rec.type == RecordType::Read)
        applyRead(cpu, rec);
    else if (rec.type == RecordType::Write)
        applyWrite(cpu, rec);
    else
        applyPrefetch(cpu, rec);
    cursors[cpu]->advance();
}

void
System::handleBlockOp(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    // By value: on streamed sources the table may grow (and its
    // storage move) while other processors' cursors refill.
    const BlockOp op = source.blockOps().get(rec.aux);
    const Cycles start = cs.time;
    if (sampler != nullptr)
        executor.retargetStats(*cur);
    cs.time = executor.execute(cpu, op, cs.time, rec.isOs());
    if (mem.observers().active())
        mem.observers().onBlockOp(cpu, op, start, cs.time);
    cursors[cpu]->advance();
}

void
System::handleLockAcquire(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    auto &lock = locks[rec.addr];
    if (!lock.held) {
        syncRmw(cpu, rec.addr, DataCategory::Lock, rec.isOs());
        lock.held = true;
        lock.holder = cpu;
        cursors[cpu]->advance();
        return;
    }
    if (lock.holder == cpu) {
        if (sampler != nullptr) {
            // The matching release was skipped; treat as re-entry.
            ++syncBreakCount;
            cursors[cpu]->advance();
            return;
        }
        panic("System: cpu ", int(cpu), " re-acquiring held lock ",
              rec.addr);
    }
    // Contended: one read observes the held lock, then spin locally.
    AccessContext ctx;
    ctx.os = rec.isOs();
    ctx.category = DataCategory::Lock;
    const AccessResult rd = mem.read(cpu, rec.addr, cs.time, ctx);
    cur->recordRead(ctx.os, false, DataCategory::Lock,
                    invalidBasicBlock, rd);
    cs.time = rd.completeAt;
    cs.state = CpuRunState::SpinLock;
    cs.waitAddr = rec.addr;
    cs.spinStart = cs.time;
}

void
System::handleLockRelease(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    auto it = locks.find(rec.addr);
    const bool matched = it != locks.end() && it->second.held &&
                         it->second.holder == cpu;
    if (!matched) {
        if (sampler == nullptr)
            panic("System: cpu ", int(cpu), " releasing lock ", rec.addr,
                  " it does not hold");
        // The matching acquire was skipped; perform the release write
        // anyway so the lock ends up free.
        ++syncBreakCount;
    }
    // Release consistency: drain buffered writes before the release.
    cs.time = mem.fence(cpu, cs.time);
    AccessContext ctx;
    ctx.os = rec.isOs();
    ctx.category = DataCategory::Lock;
    const AccessResult wr = mem.write(cpu, rec.addr, cs.time, ctx);
    cur->recordWrite(ctx.os, false, wr);
    cs.time = wr.completeAt;
    locks[rec.addr].held = false;
    cursors[cpu]->advance();
}

void
System::handleBarrier(CpuId cpu, const TraceRecord &rec)
{
    CpuState &cs = cpus[cpu];
    auto &bar = barriers[rec.addr];
    const std::uint32_t parties = rec.aux;

    // Release semantics, then the arrival read-modify-write.
    cs.time = mem.fence(cpu, cs.time);
    syncRmw(cpu, rec.addr, DataCategory::Barrier, rec.isOs());

    bar.arrived += 1;
    if (bar.arrived >= parties) {
        // Last arriver releases the episode.
        bar.arrived = 0;
        bar.episode += 1;
        bar.releaseAt = cs.time;
        cursors[cpu]->advance();
    } else {
        cs.state = CpuRunState::SpinBarrier;
        cs.waitAddr = rec.addr;
        cs.waitEpisode = bar.episode;
        cs.spinStart = cs.time;
    }
}

void
System::saveState(binio::BinaryWriter &w) const
{
    w.put(std::uint32_t(cpus.size()));
    for (const CpuState &cs : cpus) {
        w.put(cs.time);
        w.put(std::uint8_t(cs.state));
        w.put(cs.waitAddr);
        w.put(cs.waitEpisode);
        w.put(cs.imissCarry);
        w.put(cs.spinStart);
    }
    // Maps serialized sorted so identical states produce identical
    // bytes (the checkpoint store is content-addressed).
    std::vector<std::pair<Addr, LockState>> lks(locks.begin(), locks.end());
    std::sort(lks.begin(), lks.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.put(std::uint64_t(lks.size()));
    for (const auto &[addr, lock] : lks) {
        w.put(addr);
        w.put(std::uint8_t(lock.held));
        w.put(lock.holder);
    }
    std::vector<std::pair<Addr, BarrierState>> bars(barriers.begin(),
                                                    barriers.end());
    std::sort(bars.begin(), bars.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.put(std::uint64_t(bars.size()));
    for (const auto &[addr, bar] : bars) {
        w.put(addr);
        w.put(bar.arrived);
        w.put(bar.episode);
        w.put(bar.releaseAt);
    }
    w.put(consecutiveSpins);
    w.put(syncBreakCount);
}

bool
System::loadState(binio::BinaryReader &r, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    std::uint32_t n = 0;
    if (!r.get(n) || n != cpus.size())
        return fail("cpu count mismatch");
    for (CpuState &cs : cpus) {
        std::uint8_t state = 0;
        if (!r.get(cs.time) || !r.get(state) || !r.get(cs.waitAddr) ||
            !r.get(cs.waitEpisode) || !r.get(cs.imissCarry) ||
            !r.get(cs.spinStart))
            return fail("truncated cpu state");
        if (state > std::uint8_t(CpuRunState::Done))
            return fail("bad cpu run state");
        cs.state = CpuRunState(state);
    }
    std::uint64_t count = 0;
    if (!r.get(count) || count > (1u << 24))
        return fail("bad lock count");
    locks.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr addr = 0;
        std::uint8_t held = 0;
        LockState lock;
        if (!r.get(addr) || !r.get(held) || !r.get(lock.holder))
            return fail("truncated lock table");
        lock.held = held != 0;
        locks.emplace(addr, lock);
    }
    if (!r.get(count) || count > (1u << 24))
        return fail("bad barrier count");
    barriers.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr addr = 0;
        BarrierState bar;
        if (!r.get(addr) || !r.get(bar.arrived) || !r.get(bar.episode) ||
            !r.get(bar.releaseAt))
            return fail("truncated barrier table");
        barriers.emplace(addr, bar);
    }
    if (!r.get(consecutiveSpins) || !r.get(syncBreakCount))
        return fail("truncated spin counters");
    return true;
}

} // namespace oscache
