#include "obs/timeline.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"
#include "common/log.hh"

namespace oscache
{

namespace
{

char
phaseCode(TimelinePhase phase)
{
    switch (phase) {
      case TimelinePhase::Instant:  return 'i';
      case TimelinePhase::Complete: return 'X';
      case TimelinePhase::Counter:  return 'C';
    }
    panic("unknown TimelinePhase");
}

} // namespace

Timeline::Timeline(std::size_t capacity) : ring(capacity == 0 ? 1 : capacity)
{}

void
Timeline::record(const TimelineEvent &event)
{
    if (count == ring.size())
        ++droppedEvents;
    else
        ++count;
    ring[head] = event;
    head = (head + 1) % ring.size();
}

const char *
Timeline::intern(const std::string &label)
{
    interned.push_back(label);
    return interned.back().c_str();
}

std::vector<TimelineEvent>
Timeline::sorted() const
{
    std::vector<TimelineEvent> out;
    out.reserve(count);
    // Oldest first: when wrapped, the oldest event sits at `head`.
    const std::size_t start = count == ring.size() ? head : 0;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring[(start + i) % ring.size()]);
    std::stable_sort(out.begin(), out.end(),
                     [](const TimelineEvent &a, const TimelineEvent &b) {
                         return a.ts < b.ts;
                     });
    return out;
}

void
Timeline::writeChromeTrace(std::ostream &os, const char *process) const
{
    os << "{\"traceEvents\":[";
    bool first = true;

    // Process metadata row so the UI shows a friendly name.
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
          "\"args\":{\"name\":\""
       << jsonEscapeString(process) << "\"}}";
    first = false;

    for (const TimelineEvent &e : sorted()) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << jsonEscapeString(e.name) << "\",\"cat\":\""
           << jsonEscapeString(e.category[0] == '\0' ? "sim" : e.category)
           << "\",\"ph\":\"" << phaseCode(e.phase) << "\""
           << ",\"ts\":" << e.ts << ",\"pid\":0,\"tid\":" << e.tid;
        if (e.phase == TimelinePhase::Complete)
            os << ",\"dur\":" << e.dur;
        if (e.phase == TimelinePhase::Instant)
            os << ",\"s\":\"t\"";
        if (e.argName != nullptr) {
            os << ",\"args\":{\"" << jsonEscapeString(e.argName)
               << "\":" << e.arg << "}";
        }
        os << "}";
    }
    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"droppedEvents\":"
       << droppedEvents << "}}\n";
}

} // namespace oscache
