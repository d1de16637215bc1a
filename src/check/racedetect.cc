#include "check/racedetect.hh"

#include <algorithm>
#include <bitset>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

namespace oscache
{

namespace
{

/** Categories subject to the lockset discipline. */
bool
locksetCategory(DataCategory cat)
{
    return cat == DataCategory::FreqShared ||
           cat == DataCategory::OtherShared || cat == DataCategory::Lock;
}

/** Lockset state accumulated for one written address. */
struct AddrState
{
    /** Locks held on every write so far; meaningless until a write. */
    std::unordered_set<Addr> lockset;
    bool written = false;
    /** Writing processors, one bit for every CpuId. */
    std::bitset<std::numeric_limits<CpuId>::max() + 1> writers;
    DataCategory category = DataCategory::OtherShared;
    CpuId firstCpu = 0;
    std::size_t firstIndex = 0;
};

} // namespace

std::vector<CheckFinding>
detectRaces(const Trace &trace, const RaceCrossCheck &cross)
{
    // std::map so findings come out in a stable address order.
    std::map<Addr, AddrState> state;

    for (unsigned c = 0; c < trace.numCpus(); ++c) {
        const CpuId cpu = CpuId(c);
        const RecordStream &stream = trace.stream(cpu);
        std::unordered_set<Addr> held;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const TraceRecord &rec = stream[i];
            switch (rec.type) {
              case RecordType::LockAcquire:
                held.insert(rec.addr);
                break;
              case RecordType::LockRelease:
                held.erase(rec.addr);
                break;
              case RecordType::Write: {
                if (!locksetCategory(rec.category))
                    break;
                AddrState &st = state[rec.addr];
                if (!st.written) {
                    st.written = true;
                    st.lockset = held;
                    st.category = rec.category;
                    st.firstCpu = cpu;
                    st.firstIndex = i;
                } else {
                    std::erase_if(st.lockset, [&](Addr lock) {
                        return held.count(lock) == 0;
                    });
                }
                st.writers.set(cpu);
                break;
              }
              default:
                break;
            }
        }
    }

    std::vector<CheckFinding> found;
    for (const auto &[addr, st] : state) {
        // A single writer cannot race with itself, and any surviving
        // common lock makes the discipline hold.
        if (st.writers.count() < 2 || !st.lockset.empty())
            continue;
        CheckFinding f;
        f.code = CheckCode::UnlockedSharedWrite;
        f.severity = st.category == DataCategory::FreqShared
                         ? Severity::Warning
                         : Severity::Error;
        f.cpu = st.firstCpu;
        f.addr = addr;
        f.index = st.firstIndex;
        std::ostringstream os;
        os << toString(st.category) << " data written by "
           << st.writers.count()
           << " processors with no common lock";
        if (cross.multiWriterLines && cross.lineSize) {
            const Addr line = alignDown(addr, cross.lineSize);
            os << (cross.multiWriterLines->count(line)
                       ? "; the simulator saw the line gain multiple "
                         "writers"
                       : "; the simulator never saw the line gain "
                         "multiple writers");
        }
        f.message = os.str();
        found.push_back(std::move(f));
    }
    return found;
}

} // namespace oscache
