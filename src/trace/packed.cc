#include "trace/packed.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>

#include "common/log.hh"

namespace oscache
{

static_assert(std::endian::native == std::endian::little,
              "the packed codec stores and loads fields little-endian");
static_assert(offsetof(TraceRecord, addr) == 0 &&
                  offsetof(TraceRecord, aux) == 8 &&
                  offsetof(TraceRecord, bb) == 12 &&
                  offsetof(TraceRecord, type) == 16 &&
                  offsetof(TraceRecord, category) == 17 &&
                  offsetof(TraceRecord, size) == 18 &&
                  offsetof(TraceRecord, flags) == 19,
              "the decoder writes a record's last four fields as one word");

namespace
{

/** Payload widths, in bytes, a form may give each field. */
constexpr unsigned addrWidths[] = {1, 2, 4, 8};
constexpr unsigned auxWidths[] = {1, 2, 4};
/** Width 0 repeats the previous basic block. */
constexpr unsigned bbWidths[] = {0, 2, 4};

/**
 * @name Header bytes
 * Each group of forms occupies a range of header values, indexed by
 * the width choices above; escapeHeader carries a whole record.
 * @{
 */
/** Read, Write, Prefetch x os x category byte x address x bb: 144. */
constexpr unsigned
dataHeader(unsigned type, unsigned os, unsigned cat_byte, unsigned aw,
           unsigned bw)
{
    return (((type * 2 + os) * 2 + cat_byte) * 4 + aw) * 3 + bw;
}
/** Exec: os x aux x bb, 18 from 144. */
constexpr unsigned
execHeader(unsigned os, unsigned xw, unsigned bw)
{
    return 144 + (os * 3 + xw) * 3 + bw;
}
/** Idle: aux, 3 from 162. */
constexpr unsigned
idleHeader(unsigned xw)
{
    return 162 + xw;
}
/** BlockOpBegin, BlockOpEnd x aux: 6 from 165. */
constexpr unsigned
blockOpHeader(unsigned end, unsigned xw)
{
    return 165 + end * 3 + xw;
}
/** LockAcquire, LockRelease x address: 8 from 171. */
constexpr unsigned
lockHeader(unsigned release, unsigned aw)
{
    return 171 + release * 4 + aw;
}
/** BarrierArrive: address x aux, 12 from 179. */
constexpr unsigned
barrierHeader(unsigned aw, unsigned xw)
{
    return 179 + aw * 3 + xw;
}
constexpr unsigned escapeHeader = 255;
static_assert(dataHeader(2, 1, 1, 3, 2) < execHeader(0, 0, 0) &&
              execHeader(1, 2, 2) < idleHeader(0) &&
              idleHeader(2) < blockOpHeader(0, 0) &&
              blockOpHeader(1, 2) < lockHeader(0, 0) &&
              lockHeader(1, 3) < barrierHeader(0, 0) &&
              barrierHeader(3, 2) < escapeHeader);
/** @} */

/** The escape form's payload: a record's fields in its own layout. */
constexpr std::size_t escapeBytes = 20;
static_assert(PackedTrace::maxRecordBytes == 1 + escapeBytes);

/** What a header's record carries, and what the rest of it holds. */
struct FormSpec
{
    /** False for header values no form claims. */
    bool assigned = false;
    RecordType type = RecordType::Exec;
    std::uint8_t flags = 0;
    /** The category of a record that is not a data record. */
    DataCategory category = DataCategory::User;
    /**
     * A data record (Read, Write, Prefetch): its category is the
     * payload's first byte, or else the previous data record's.
     */
    bool data = false;
    bool categoryByte = false;
    /** The address is a delta; otherwise it is 0. */
    bool address = false;
    unsigned addrWidth = 0;
    unsigned auxWidth = 0;
    /** The basic block is a delta; otherwise invalidBasicBlock. */
    bool basicBlock = false;
    unsigned bbWidth = 0;

    /** Payload bytes, in order: category, address, aux, basic block. */
    constexpr unsigned
    payload() const
    {
        return (categoryByte ? 1 : 0) + addrWidth + auxWidth + bbWidth;
    }
};

constexpr std::array<FormSpec, 256>
buildSpecs()
{
    std::array<FormSpec, 256> t{};
    const auto set = [&t](unsigned header, FormSpec spec) {
        spec.assigned = true;
        t[header] = spec;
    };
    constexpr RecordType dataTypes[] = {
        RecordType::Read, RecordType::Write, RecordType::Prefetch};
    for (unsigned ty = 0; ty < 3; ++ty)
        for (unsigned os = 0; os < 2; ++os)
            for (unsigned cat = 0; cat < 2; ++cat)
                for (unsigned aw = 0; aw < 4; ++aw)
                    for (unsigned bw = 0; bw < 3; ++bw)
                        set(dataHeader(ty, os, cat, aw, bw),
                            {.type = dataTypes[ty],
                             .flags = std::uint8_t(os ? flagOs : 0),
                             .data = true,
                             .categoryByte = cat != 0,
                             .address = true,
                             .addrWidth = addrWidths[aw],
                             .basicBlock = true,
                             .bbWidth = bbWidths[bw]});
    for (unsigned os = 0; os < 2; ++os)
        for (unsigned xw = 0; xw < 3; ++xw)
            for (unsigned bw = 0; bw < 3; ++bw)
                set(execHeader(os, xw, bw),
                    {.type = RecordType::Exec,
                     .flags = std::uint8_t(os ? flagOs : 0),
                     .auxWidth = auxWidths[xw],
                     .basicBlock = true,
                     .bbWidth = bbWidths[bw]});
    for (unsigned xw = 0; xw < 3; ++xw) {
        set(idleHeader(xw),
            {.type = RecordType::Idle, .auxWidth = auxWidths[xw]});
        for (unsigned end = 0; end < 2; ++end)
            set(blockOpHeader(end, xw),
                {.type = end ? RecordType::BlockOpEnd
                             : RecordType::BlockOpBegin,
                 .flags = flagOs,
                 .auxWidth = auxWidths[xw]});
    }
    for (unsigned aw = 0; aw < 4; ++aw) {
        for (unsigned release = 0; release < 2; ++release)
            set(lockHeader(release, aw),
                {.type = release ? RecordType::LockRelease
                                 : RecordType::LockAcquire,
                 .flags = flagOs,
                 .category = DataCategory::Lock,
                 .address = true,
                 .addrWidth = addrWidths[aw]});
        for (unsigned xw = 0; xw < 3; ++xw)
            set(barrierHeader(aw, xw),
                {.type = RecordType::BarrierArrive,
                 .flags = flagOs,
                 .category = DataCategory::Barrier,
                 .address = true,
                 .addrWidth = addrWidths[aw],
                 .auxWidth = auxWidths[xw]});
    }
    return t;
}

constexpr std::array<FormSpec, 256> specs = buildSpecs();

constexpr std::uint64_t
lowMask(unsigned bytes)
{
    return bytes >= 8 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (8 * bytes)) - 1;
}

/**
 * What a delta of @p bytes bytes is stored plus: half its range, so
 * the stored value is unsigned and decodes as raw - bias.  8-byte
 * deltas wrap instead.
 */
constexpr std::uint64_t
signBias(unsigned bytes)
{
    return bytes == 0 || bytes >= 8 ? 0
                                    : std::uint64_t{1} << (8 * bytes - 1);
}

/**
 * The decoder's view of a header.  Most records repeat the previous
 * basic block and data category and carry one payload field, the
 * address delta or the aux value; their forms decode with one masked
 * load and no branch.  Every other form is general: the decoder reads
 * it field by field from its FormSpec.
 */
struct alignas(32) Form
{
    /** The payload field's mask and, for an address delta, its bias. */
    std::uint64_t mask = 0;
    std::uint64_t bias = 0;
    /** invalidBasicBlock when the record has no basic block, else 0. */
    std::uint32_t bbForce = 0;
    /** Record bytes 16..19: type, fixed category, size, flags. */
    std::uint32_t tail = 0;
    /** 0xff00 for a data record, which takes the previous category. */
    std::uint32_t catOut = 0;
    /** Payload bytes. */
    std::uint8_t len = 0;
    /** The payload field is the address delta; otherwise it is aux. */
    bool address = false;
    bool general = true;
};

constexpr std::array<Form, 256>
buildForms()
{
    std::array<Form, 256> t{};
    for (unsigned h = 0; h < 256; ++h) {
        const FormSpec &s = specs[h];
        Form &f = t[h];
        f.len = std::uint8_t(s.payload());
        f.general = !s.assigned || s.categoryByte || s.bbWidth != 0 ||
                    (s.address && s.auxWidth != 0);
        if (f.general)
            continue;
        f.address = s.address;
        f.mask = lowMask(s.address ? s.addrWidth : s.auxWidth);
        f.bias = s.address ? signBias(s.addrWidth) : 0;
        f.bbForce = s.basicBlock ? 0 : invalidBasicBlock;
        f.tail = std::uint32_t(s.type) |
                 (s.data ? 0 : std::uint32_t(s.category)) << 8 |
                 4u << 16 | std::uint32_t(s.flags) << 24;
        f.catOut = s.data ? 0xff00 : 0;
    }
    t[escapeHeader].len = escapeBytes;
    return t;
}

constexpr std::array<Form, 256> forms = buildForms();

/** @name Width choices: the narrowest that holds the value @{ */
unsigned
addrWidthIndex(std::uint64_t delta)
{
    const auto d = std::int64_t(delta);
    if (d >= INT8_MIN && d <= INT8_MAX)
        return 0;
    if (d >= INT16_MIN && d <= INT16_MAX)
        return 1;
    return d >= INT32_MIN && d <= INT32_MAX ? 2 : 3;
}

unsigned
auxWidthIndex(std::uint32_t aux)
{
    return aux <= 0xff ? 0 : aux <= 0xffff ? 1 : 2;
}

unsigned
bbWidthIndex(std::uint32_t delta)
{
    if (delta == 0)
        return 0;
    const auto d = std::int32_t(delta);
    return d >= INT16_MIN && d <= INT16_MAX ? 1 : 2;
}
/** @} */

/** What both sides carry from record to record within a block. */
struct Predictor
{
    Addr addr = 0;
    BasicBlockId bb = 0;
    std::uint8_t category = 0;
};

/**
 * Write @p r's payload at @p cursor, advance it, and return the
 * record's header byte.  A form only fits when every field it does
 * not carry holds the value the decoder gives it; anything else
 * escapes.  The buffer has 8 bytes of slack past the longest payload,
 * so every field is one 8-byte store, of which the next field
 * overwrites what is not its own.
 */
std::uint8_t
encodeRecord(const TraceRecord &r, Predictor &pred, std::uint8_t *&cursor)
{
    // Locals, so the stores through at cannot alias them.
    std::uint8_t *at = cursor;
    Predictor p = pred;
    const auto put = [&at](std::uint64_t value, unsigned bytes) {
        std::memcpy(at, &value, sizeof(value));
        at += bytes;
    };
    const auto put_delta = [&put](std::uint64_t delta, unsigned bytes) {
        put(delta + signBias(bytes), bytes);
    };
    const unsigned os = r.flags == flagOs ? 1 : 0;
    const bool plain_flags = (r.flags & ~flagOs) == 0;
    const bool no_bb = r.bb == invalidBasicBlock;
    const bool user = r.category == DataCategory::User;
    const bool fixed_os = r.flags == flagOs && r.size == 4;
    unsigned header = escapeHeader;
    switch (r.type) {
      case RecordType::Read:
      case RecordType::Write:
      case RecordType::Prefetch: {
        if (r.aux != 0 || r.size != 4 || !plain_flags)
            break;
        const unsigned ty = r.type == RecordType::Read    ? 0
                            : r.type == RecordType::Write ? 1
                                                          : 2;
        const auto cat = std::uint8_t(r.category);
        const unsigned cat_byte = cat != p.category ? 1 : 0;
        const unsigned aw = addrWidthIndex(r.addr - p.addr);
        const unsigned bw = bbWidthIndex(r.bb - p.bb);
        put(cat, cat_byte);
        put_delta(r.addr - p.addr, addrWidths[aw]);
        put_delta(r.bb - p.bb, bbWidths[bw]);
        p.addr = r.addr;
        p.bb = r.bb;
        p.category = cat;
        header = dataHeader(ty, os, cat_byte, aw, bw);
        break;
      }
      case RecordType::Exec: {
        if (r.addr != 0 || !user || r.size != 4 || !plain_flags)
            break;
        const unsigned xw = auxWidthIndex(r.aux);
        const unsigned bw = bbWidthIndex(r.bb - p.bb);
        put(r.aux, auxWidths[xw]);
        put_delta(r.bb - p.bb, bbWidths[bw]);
        p.bb = r.bb;
        header = execHeader(os, xw, bw);
        break;
      }
      case RecordType::Idle: {
        if (r.addr != 0 || !no_bb || !user || r.size != 4 || r.flags != 0)
            break;
        const unsigned xw = auxWidthIndex(r.aux);
        put(r.aux, auxWidths[xw]);
        header = idleHeader(xw);
        break;
      }
      case RecordType::BlockOpBegin:
      case RecordType::BlockOpEnd: {
        if (r.addr != 0 || !no_bb || !user || !fixed_os)
            break;
        const unsigned xw = auxWidthIndex(r.aux);
        put(r.aux, auxWidths[xw]);
        header =
            blockOpHeader(r.type == RecordType::BlockOpEnd ? 1 : 0, xw);
        break;
      }
      case RecordType::LockAcquire:
      case RecordType::LockRelease: {
        if (r.aux != 0 || !no_bb || r.category != DataCategory::Lock ||
            !fixed_os)
            break;
        const unsigned aw = addrWidthIndex(r.addr - p.addr);
        put_delta(r.addr - p.addr, addrWidths[aw]);
        p.addr = r.addr;
        header = lockHeader(r.type == RecordType::LockRelease ? 1 : 0, aw);
        break;
      }
      case RecordType::BarrierArrive: {
        if (!no_bb || r.category != DataCategory::Barrier || !fixed_os)
            break;
        const unsigned aw = addrWidthIndex(r.addr - p.addr);
        const unsigned xw = auxWidthIndex(r.aux);
        put_delta(r.addr - p.addr, addrWidths[aw]);
        put(r.aux, auxWidths[xw]);
        p.addr = r.addr;
        header = barrierHeader(aw, xw);
        break;
      }
    }
    // The escape leaves the predictor as it was.
    if (header == escapeHeader) {
        put(r.addr, 8);
        put(r.aux, 4);
        put(r.bb, 4);
        put(std::uint8_t(r.type), 1);
        put(std::uint8_t(r.category), 1);
        put(r.size, 1);
        put(r.flags, 1);
    }
    cursor = at;
    pred = p;
    return std::uint8_t(header);
}

std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** The low @p bytes bytes at @p q, little-endian. */
std::uint64_t
getBytes(const std::uint8_t *q, unsigned bytes)
{
    return load64(q) & lowMask(bytes);
}

/**
 * Decode the record of header @p h, whose payload is at @p q, field by
 * field: the forms the fast loop leaves, and the escape.  Returns
 * null, or why the header is not a record's.
 */
const char *
decodeGeneral(std::uint8_t h, const std::uint8_t *q, Predictor &p,
              TraceRecord &r)
{
    if (h == escapeHeader) {
        std::memcpy(&r.addr, q, 8);
        std::memcpy(&r.aux, q + 8, 4);
        std::memcpy(&r.bb, q + 12, 4);
        r.type = RecordType(q[16]);
        r.category = DataCategory(q[17]);
        r.size = q[18];
        r.flags = q[19];
        return nullptr;
    }
    const FormSpec &s = specs[h];
    if (!s.assigned)
        return "bad record header";
    if (s.categoryByte)
        p.category = *q++;
    p.addr += getBytes(q, s.addrWidth) - signBias(s.addrWidth);
    q += s.addrWidth;
    r.addr = s.address ? p.addr : 0;
    r.aux = std::uint32_t(getBytes(q, s.auxWidth));
    q += s.auxWidth;
    p.bb += std::uint32_t(getBytes(q, s.bbWidth) - signBias(s.bbWidth));
    r.bb = s.basicBlock ? p.bb : invalidBasicBlock;
    r.type = s.type;
    r.category = s.data ? DataCategory(p.category) : s.category;
    r.size = 4;
    r.flags = s.flags;
    return nullptr;
}

} // namespace

void
PackedTrace::Builder::seal(Stream &stream, const TraceRecord *records,
                           std::size_t count)
{
    // Every record's header, then at worst an escape per record, and
    // slack for the encoder's 8-byte stores.
    std::uint8_t block[blockRecords * maxRecordBytes + 8];
    std::uint8_t *payload = block + count;
    Predictor p;
    for (std::size_t i = 0; i < count; ++i)
        block[i] = encodeRecord(records[i], p, payload);
    stream.bytes.insert(stream.bytes.end(), block, payload);
    stream.starts.push_back(stream.bytes.size());
    stream.records += count;
}

PackedTrace::Builder::Builder(unsigned num_cpus) : lanes(num_cpus)
{
    for (Lane &lane : lanes)
        lane.pending.reserve(blockRecords);
}

void
PackedTrace::Builder::append(CpuId cpu, const TraceRecord *records,
                             std::size_t count)
{
    if (cpu >= lanes.size())
        panic("PackedTrace::Builder: bad cpu ", int(cpu));
    Lane &lane = lanes[cpu];
    while (count > 0) {
        if (lane.pending.empty() && count >= blockRecords) {
            seal(lane.stream, records, blockRecords);
            records += blockRecords;
            count -= blockRecords;
            continue;
        }
        const std::size_t take =
            std::min(count, blockRecords - lane.pending.size());
        lane.pending.insert(lane.pending.end(), records, records + take);
        records += take;
        count -= take;
        if (lane.pending.size() == blockRecords) {
            seal(lane.stream, lane.pending.data(), blockRecords);
            lane.pending.clear();
        }
    }
}

void
PackedTrace::Builder::take(CpuId cpu,
                           const std::function<void(const Blocks &)> &write)
{
    if (cpu >= lanes.size())
        panic("PackedTrace::Builder: bad cpu ", int(cpu));
    Stream &s = lanes[cpu].stream;
    if (s.records == 0)
        return;
    write(s.view());
    s.bytes.clear();
    s.starts.assign(1, 0);
    s.records = 0;
}

PackedTrace
PackedTrace::Builder::finish(const BlockOpTable &block_ops,
                             const std::unordered_set<Addr> &update_pages) &&
{
    PackedTrace trace;
    trace.streams.reserve(lanes.size());
    for (Lane &lane : lanes) {
        Stream &s = lane.stream;
        if (!lane.pending.empty())
            seal(s, lane.pending.data(), lane.pending.size());
        s.bytes.resize(s.bytes.size() + loadPadding, 0);
        s.bytes.shrink_to_fit();
        s.starts.shrink_to_fit();
        trace.streams.push_back(std::move(s));
    }
    lanes.clear();
    trace.ops = block_ops;
    trace.pages = update_pages;
    return trace;
}

void
PackedTrace::Builder::adopt(CpuId cpu, const std::uint8_t *block,
                            std::size_t size, std::size_t records)
{
    if (cpu >= lanes.size())
        panic("PackedTrace::Builder: bad cpu ", int(cpu));
    Stream &s = lanes[cpu].stream;
    if (!lanes[cpu].pending.empty() || s.records % blockRecords != 0 ||
        records == 0 || records > blockRecords)
        panic("PackedTrace::Builder: cpu ", int(cpu), " cannot adopt a ",
              records, "-record block after ", s.records, " records");
    s.bytes.insert(s.bytes.end(), block, block + size);
    s.starts.push_back(s.bytes.size());
    s.records += records;
}

PackedTrace
PackedTrace::pack(const Trace &trace)
{
    Builder builder(trace.numCpus());
    for (CpuId cpu = 0; cpu < trace.numCpus(); ++cpu)
        builder.append(cpu, trace.stream(cpu).data(),
                       trace.stream(cpu).size());
    return std::move(builder).finish(trace.blockOps(), trace.updatePages());
}

std::size_t
PackedTrace::totalRecords() const
{
    std::size_t n = 0;
    for (const Stream &s : streams)
        n += s.records;
    return n;
}

const char *
PackedTrace::decode(const std::uint8_t *block, std::size_t size,
                    std::size_t records, TraceRecord *out)
{
    const std::uint8_t *head = block;
    const std::uint8_t *payload = head + records;

    Predictor p;
    std::size_t at = 0;
    for (std::size_t i = 0; i < records; ++i) {
        const std::uint8_t h = head[i];
        const Form &f = forms[h];
        const std::uint8_t *q = payload + at;
        at += f.len;
        TraceRecord &r = out[i];
        if (f.general) [[unlikely]] {
            if (const char *why = decodeGeneral(h, q, p, r))
                return why;
            continue;
        }
        const std::uint64_t v = (load64(q) & f.mask) - f.bias;
        const std::uint64_t to_addr = 0 - std::uint64_t(f.address);
        p.addr += v & to_addr;
        r.addr = p.addr & to_addr;
        r.aux = std::uint32_t(v & ~to_addr);
        r.bb = p.bb | f.bbForce;
        const std::uint32_t tail =
            f.tail | (std::uint32_t(p.category) << 8 & f.catOut);
        std::memcpy(reinterpret_cast<unsigned char *>(&r) +
                        offsetof(TraceRecord, type),
                    &tail, sizeof(tail));
    }
    if (records + at != size)
        return "block length disagrees with its headers";
    return nullptr;
}

std::size_t
PackedTrace::bytes() const
{
    std::size_t n = ops.size() * sizeof(BlockOp) + pages.size() * sizeof(Addr);
    for (const Stream &s : streams)
        n += s.bytes.capacity() + s.starts.capacity() * sizeof(std::uint64_t);
    return n;
}

Trace
PackedTrace::unpack() const
{
    Trace trace(numCpus());
    for (CpuId cpu = 0; cpu < numCpus(); ++cpu) {
        RecordStream &out = trace.stream(cpu);
        out.resize(records(cpu));
        const Blocks run = blocks(cpu);
        for (std::size_t b = 0; b < run.count(); ++b) {
            const std::size_t first = b * blockRecords;
            if (const char *why =
                    decode(run.bytes + run.starts[b],
                           run.starts[b + 1] - run.starts[b],
                           std::min(blockRecords, run.records - first),
                           out.data() + first))
                panic("PackedTrace: block ", b, " of cpu ", int(cpu), ": ",
                      why);
        }
    }
    trace.blockOps() = ops;
    trace.updatePages() = pages;
    return trace;
}

void
PackedBlockCursor::load(std::size_t block)
{
    base = block * PackedTrace::blockRecords;
    filled = std::min(PackedTrace::blockRecords, total - base);
    std::size_t size = 0;
    const std::uint8_t *bytes = blockBytes(block, size);
    const char *why = PackedTrace::decode(bytes, size, filled, buf.data());
    if (why == nullptr && checked != nullptr) {
        why = checkRecords(buf.data(), filled, opBound);
        if (why == nullptr && opBound > checked->size())
            why = "record references unknown block op";
    }
    if (why != nullptr)
        reject(why);
}

const char *
checkRecords(const TraceRecord *records, std::size_t count,
             std::uint64_t &op_bound)
{
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRecord &r = records[i];
        if (std::uint8_t(r.type) > std::uint8_t(RecordType::BarrierArrive))
            return "bad record type";
        if (std::uint8_t(r.category) >=
            std::uint8_t(DataCategory::NumCategories))
            return "bad data category";
        if (r.type == RecordType::BlockOpBegin ||
            r.type == RecordType::BlockOpEnd)
            op_bound = std::max<std::uint64_t>(op_bound, r.aux + 1ull);
    }
    return nullptr;
}

/** A cursor over one stream of a PackedTrace, in memory. */
class PackedTraceSource::Cursor final : public PackedBlockCursor
{
  public:
    Cursor(const PackedTrace &trace, CpuId cpu_id)
        : PackedBlockCursor(trace.records(cpu_id), nullptr),
          run(trace.blocks(cpu_id)), cpu(cpu_id)
    {}

  private:
    const std::uint8_t *
    blockBytes(std::size_t block, std::size_t &size) override
    {
        size = run.starts[block + 1] - run.starts[block];
        return run.bytes + run.starts[block];
    }

    [[noreturn]] void
    reject(const char *why) override
    {
        panic("PackedTrace: cpu ", int(cpu), ": ", why);
    }

    PackedTrace::Blocks run;
    CpuId cpu;
};

std::unique_ptr<RecordCursor>
PackedTraceSource::cursor(CpuId cpu)
{
    if (cpu >= numCpus())
        panic("PackedTraceSource::cursor: bad cpu ", int(cpu));
    return std::make_unique<Cursor>(*packed, cpu);
}

} // namespace oscache
