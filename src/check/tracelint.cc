#include "check/tracelint.hh"

#include <bitset>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace oscache
{

namespace
{

/** Categories that only ever name kernel-region data. */
bool
kernelOnlyCategory(DataCategory cat)
{
    switch (cat) {
      case DataCategory::KernelPrivate:
      case DataCategory::Barrier:
      case DataCategory::InfreqComm:
      case DataCategory::FreqShared:
      case DataCategory::Lock:
      case DataCategory::OtherShared:
      case DataCategory::PageTable:
      case DataCategory::KernelOther:
        return true;
      case DataCategory::User:
      case DataCategory::BlockSrc:
      case DataCategory::BlockDst:
        // The kernel legitimately touches user pages and the page
        // pool on a process's behalf; these are unconstrained.
        return false;
      case DataCategory::NumCategories:
        break;
    }
    return false;
}

/** Categories subject to the lockset discipline. */
bool
locksetCategory(DataCategory cat)
{
    return cat == DataCategory::FreqShared ||
           cat == DataCategory::OtherShared || cat == DataCategory::Lock;
}

/** Lockset state accumulated for one written shared address. */
struct WriteUse
{
    /** Locks held on every write so far. */
    std::unordered_set<Addr> lockset;
    /** Writing processors, one bit for every CpuId. */
    std::bitset<std::numeric_limits<CpuId>::max() + 1> writers;
    DataCategory category = DataCategory::OtherShared;
    CpuId firstCpu = 0;
    std::size_t firstIndex = 0;
};

/** Per-barrier usage gathered across all streams. */
struct BarrierUse
{
    std::uint32_t parties = 0;
    bool partiesChanged = false;
    /** Arrival count per processor. */
    std::map<CpuId, std::uint64_t> arrivals;
    CpuId firstCpu = 0;
    std::size_t firstIndex = 0;
};

class Linter
{
  public:
    Linter(TraceSource &src, const LintLimits &lint_limits)
        : source(src), limits(lint_limits)
    {}

    std::vector<CheckFinding>
    run()
    {
        for (CpuId c = 0; c < source.numCpus(); ++c)
            lintStream(c);
        lintBarriers();
        lintLocksets();
        return std::move(found);
    }

  private:
    void
    report(CheckCode code, Severity severity, CpuId cpu, Addr addr,
           std::size_t index, std::string message)
    {
        CheckFinding f;
        f.code = code;
        f.severity = severity;
        f.cpu = cpu;
        f.addr = addr;
        f.index = index;
        f.message = std::move(message);
        found.push_back(std::move(f));
    }

    bool
    inKernelRegion(Addr addr) const
    {
        return addr >= limits.kernelBase && addr < limits.kernelEnd;
    }

    void
    lintStream(CpuId cpu)
    {
        std::vector<BlockOpId> openOps;
        std::unordered_set<Addr> heldLocks;

        auto cursor = source.cursor(cpu);
        std::size_t i = 0;
        for (const TraceRecord *recp = cursor->peek(); recp != nullptr;
             cursor->advance(), recp = cursor->peek(), ++i) {
            const TraceRecord &rec = *recp;
            switch (rec.type) {
              case RecordType::Exec:
              case RecordType::Idle:
                if (rec.aux == 0)
                    report(CheckCode::NoProgress, Severity::Warning, cpu,
                           0, i, "record advances simulated time by zero");
                break;
              case RecordType::Read:
              case RecordType::Write:
              case RecordType::Prefetch:
                if (rec.type != RecordType::Prefetch && rec.size == 0)
                    report(CheckCode::NoProgress, Severity::Warning, cpu,
                           rec.addr, i, "zero-byte data reference");
                if (kernelOnlyCategory(rec.category) &&
                    !inKernelRegion(rec.addr)) {
                    std::ostringstream os;
                    os << "category " << toString(rec.category)
                       << " outside the kernel data region";
                    report(CheckCode::CategoryRegionMismatch,
                           Severity::Error, cpu, rec.addr, i, os.str());
                }
                if (rec.type == RecordType::Write &&
                    locksetCategory(rec.category))
                    noteWrite(rec, cpu, i, heldLocks);
                break;
              case RecordType::BlockOpBegin:
                if (rec.aux >= source.blockOps().size())
                    report(CheckCode::UnknownBlockOp, Severity::Error, cpu,
                           0, i, "block-op id has no table entry");
                openOps.push_back(rec.aux);
                break;
              case RecordType::BlockOpEnd:
                if (openOps.empty()) {
                    report(CheckCode::UnbalancedBlockOp, Severity::Error,
                           cpu, 0, i, "BlockOpEnd without an open Begin");
                } else {
                    if (openOps.back() != rec.aux) {
                        std::ostringstream os;
                        os << "BlockOpEnd " << rec.aux
                           << " closes open operation " << openOps.back();
                        report(CheckCode::MismatchedBlockOpEnd,
                               Severity::Error, cpu, 0, i, os.str());
                    }
                    openOps.pop_back();
                }
                break;
              case RecordType::LockAcquire:
                if (!inKernelRegion(rec.addr))
                    report(CheckCode::CategoryRegionMismatch,
                           Severity::Error, cpu, rec.addr, i,
                           "lock word outside the kernel data region");
                if (!heldLocks.insert(rec.addr).second)
                    report(CheckCode::RecursiveLockAcquire, Severity::Error,
                           cpu, rec.addr, i,
                           "acquiring a lock this processor already holds");
                break;
              case RecordType::LockRelease:
                if (heldLocks.erase(rec.addr) == 0)
                    report(CheckCode::UnpairedLockRelease, Severity::Error,
                           cpu, rec.addr, i,
                           "releasing a lock this processor does not hold");
                break;
              case RecordType::BarrierArrive: {
                if (!inKernelRegion(rec.addr))
                    report(CheckCode::CategoryRegionMismatch,
                           Severity::Error, cpu, rec.addr, i,
                           "barrier word outside the kernel data region");
                BarrierUse &use = barriers[rec.addr];
                if (use.arrivals.empty()) {
                    use.parties = rec.aux;
                    use.firstCpu = cpu;
                    use.firstIndex = i;
                } else if (use.parties != rec.aux) {
                    use.partiesChanged = true;
                }
                use.arrivals[cpu] += 1;
                break;
              }
            }
        }

        for (const BlockOpId id : openOps) {
            std::ostringstream os;
            os << "block operation " << id << " still open at stream end";
            report(CheckCode::UnbalancedBlockOp, Severity::Error, cpu, 0,
                   i, os.str());
        }
        for (const Addr lock : heldLocks) {
            report(CheckCode::UnreleasedLock, Severity::Error, cpu, lock,
                   i, "lock still held at stream end");
        }
    }

    /**
     * A shared write: narrow its address's lockset to the locks
     * @p held and add @p cpu to its writers.
     */
    void
    noteWrite(const TraceRecord &rec, CpuId cpu, std::size_t index,
              const std::unordered_set<Addr> &held)
    {
        const auto [it, first] = writes.try_emplace(rec.addr);
        WriteUse &use = it->second;
        if (first) {
            use.lockset = held;
            use.category = rec.category;
            use.firstCpu = cpu;
            use.firstIndex = index;
        } else {
            std::erase_if(use.lockset,
                          [&](Addr lock) { return held.count(lock) == 0; });
        }
        use.writers.set(cpu);
    }

    void
    lintBarriers()
    {
        for (const auto &[addr, use] : barriers) {
            if (use.partiesChanged) {
                report(CheckCode::BarrierPartiesChanged, Severity::Error,
                       use.firstCpu, addr, use.firstIndex,
                       "barrier used with differing participant counts");
                continue; // The count checks below would be noise.
            }
            if (use.parties == 0 || use.parties > source.numCpus()) {
                std::ostringstream os;
                os << use.parties << " participants on a "
                   << source.numCpus() << "-processor trace";
                report(CheckCode::BarrierCountMismatch, Severity::Error,
                       use.firstCpu, addr, use.firstIndex, os.str());
                continue;
            }
            if (use.arrivals.size() != use.parties) {
                std::ostringstream os;
                os << use.arrivals.size() << " processors arrive at a "
                   << use.parties << "-party barrier";
                report(CheckCode::BarrierCountMismatch, Severity::Error,
                       use.firstCpu, addr, use.firstIndex, os.str());
                continue;
            }
            // Unequal arrival counts leave some processor waiting for
            // an episode that never completes.
            const std::uint64_t expected = use.arrivals.begin()->second;
            for (const auto &[cpu, count] : use.arrivals) {
                if (count != expected) {
                    std::ostringstream os;
                    os << "cpu " << int(cpu) << " arrives " << count
                       << " times but cpu " << int(use.arrivals.begin()->first)
                       << " arrives " << expected << " times";
                    report(CheckCode::BarrierCountMismatch, Severity::Error,
                           cpu, addr, use.firstIndex, os.str());
                    break;
                }
            }
        }
    }

    void
    lintLocksets()
    {
        for (const auto &[addr, use] : writes) {
            // A single writer cannot race with itself, and any
            // surviving common lock makes the discipline hold.
            if (use.writers.count() < 2 || !use.lockset.empty())
                continue;
            std::ostringstream os;
            os << toString(use.category) << " data written by "
               << use.writers.count() << " processors with no common lock";
            report(CheckCode::UnlockedSharedWrite,
                   use.category == DataCategory::FreqShared
                       ? Severity::Warning
                       : Severity::Error,
                   use.firstCpu, addr, use.firstIndex, os.str());
        }
    }

    TraceSource &source;
    LintLimits limits;
    std::unordered_map<Addr, BarrierUse> barriers;
    /** std::map so lockset findings come out in address order. */
    std::map<Addr, WriteUse> writes;
    std::vector<CheckFinding> found;
};

} // namespace

std::vector<CheckFinding>
lintTrace(const Trace &trace, const LintLimits &limits)
{
    MaterializedTraceSource source(trace);
    return lintSource(source, limits);
}

std::vector<CheckFinding>
lintSource(TraceSource &source, const LintLimits &limits)
{
    Linter linter(source, limits);
    return linter.run();
}

} // namespace oscache
