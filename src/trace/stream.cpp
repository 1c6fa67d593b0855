#include "trace/stream.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>

#include "htm/types.hpp"
#include "sim/logging.hpp"

namespace retcon::trace {

namespace {

/*
 * Frame payload image (66 bytes, little-endian). seq lives in the
 * frame header, not here, so the payload is exactly the Record minus
 * its merge key. sym root/delta/size serialize unconditionally (the
 * defaults are zeros + size 8), which keeps re-encoding byte-stable:
 * decode(encode(r)) == r field for field, and encode(decode(bytes))
 * == bytes for every valid frame.
 */
constexpr std::size_t kOffCycle = 0;
constexpr std::size_t kOffAddr = 8;
constexpr std::size_t kOffA = 16;
constexpr std::size_t kOffB = 24;
constexpr std::size_t kOffVid = 32;
constexpr std::size_t kOffSymRoot = 40;
constexpr std::size_t kOffSymDelta = 48;
constexpr std::size_t kOffCore = 56;
constexpr std::size_t kOffKind = 60;
constexpr std::size_t kOffFlags = 61;
constexpr std::size_t kOffCmp = 62;
constexpr std::size_t kOffAux = 63;
constexpr std::size_t kOffSymSize = 64;
constexpr std::size_t kOffReserved = 65;

constexpr std::uint8_t kPayloadFlagHasSym = 0x1;

void
put16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}

void
put32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
put64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint16_t
get16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] |
                                      (std::uint16_t(p[1]) << 8));
}

std::uint32_t
get32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
get64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

const char *
faultKindName(StreamFault::Kind k)
{
    switch (k) {
      case StreamFault::Kind::BadMagic:
        return "not an .rtt stream (bad magic)";
      case StreamFault::Kind::BadVersion:
        return "unsupported stream version";
      case StreamFault::Kind::BadSync:
        return "frame sync marker not found";
      case StreamFault::Kind::BadLength:
        return "frame length field invalid";
      case StreamFault::Kind::BadChecksum:
        return "frame checksum mismatch";
      case StreamFault::Kind::BadPayload:
        return "frame payload decodes to no legal record";
      case StreamFault::Kind::SeqOrder:
        return "seq order violated";
      case StreamFault::Kind::SeqGap:
        return "seq gap in a dense stream (records lost)";
      case StreamFault::Kind::Truncated:
        return "stream truncated mid-frame";
    }
    return "unknown fault";
}

} // namespace

std::uint32_t
crc32(const unsigned char *data, std::size_t n)
{
    const auto &t = crcTable();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = t[(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
encodeFrame(const Record &r, unsigned char out[kFrameBytes])
{
    out[0] = kFrameSync0;
    out[1] = kFrameSync1;
    put16(out + 2, static_cast<std::uint16_t>(kFramePayloadBytes));
    put64(out + 4, r.seq);
    unsigned char *p = out + 12;
    put64(p + kOffCycle, r.cycle);
    put64(p + kOffAddr, r.addr);
    put64(p + kOffA, r.a);
    put64(p + kOffB, r.b);
    put64(p + kOffVid, r.vid);
    put64(p + kOffSymRoot, r.sym.root);
    put64(p + kOffSymDelta, static_cast<std::uint64_t>(r.sym.delta));
    put32(p + kOffCore, r.core);
    p[kOffKind] = static_cast<unsigned char>(r.kind);
    p[kOffFlags] = r.hasSym ? kPayloadFlagHasSym : 0;
    p[kOffCmp] = static_cast<unsigned char>(r.cmp);
    p[kOffAux] = r.aux;
    p[kOffSymSize] = r.sym.size;
    p[kOffReserved] = 0;
    put32(out + 12 + kFramePayloadBytes,
          crc32(out + 2, 2 + 8 + kFramePayloadBytes));
}

bool
decodePayload(const unsigned char *p, Record &out)
{
    if (p[kOffKind] > static_cast<unsigned char>(EventKind::UserMark))
        return false;
    if (p[kOffCmp] > static_cast<unsigned char>(rtc::CmpOp::GT))
        return false;
    if (p[kOffFlags] & ~kPayloadFlagHasSym)
        return false;
    out.cycle = get64(p + kOffCycle);
    out.addr = get64(p + kOffAddr);
    out.a = get64(p + kOffA);
    out.b = get64(p + kOffB);
    out.vid = get64(p + kOffVid);
    out.sym.root = get64(p + kOffSymRoot);
    out.sym.delta = static_cast<std::int64_t>(get64(p + kOffSymDelta));
    out.sym.size = p[kOffSymSize];
    out.core = get32(p + kOffCore);
    out.kind = static_cast<EventKind>(p[kOffKind]);
    out.hasSym = (p[kOffFlags] & kPayloadFlagHasSym) != 0;
    out.cmp = static_cast<rtc::CmpOp>(p[kOffCmp]);
    out.aux = p[kOffAux];
    // Per-kind strictness: an abort record must name a real cause.
    if (out.kind == EventKind::Abort &&
        out.aux > static_cast<std::uint8_t>(htm::AbortCause::Zombie))
        return false;
    return true;
}

void
encodeStreamHeader(bool dense_seq,
                   unsigned char out[kStreamHeaderBytes])
{
    std::memcpy(out, kStreamMagic, sizeof(kStreamMagic));
    put16(out + 8, kStreamVersion);
    put16(out + 10, static_cast<std::uint16_t>(kStreamHeaderBytes));
    put32(out + 12, dense_seq ? kStreamFlagDenseSeq : 0);
}

// ---------------------------------------------------------------------
// StreamWriter

namespace {

/// Frames batch up to this many bytes before one write() call.
constexpr std::size_t kWriterBufferBytes = 1 << 16;

} // namespace

StreamWriter::StreamWriter(const std::string &path) : _path(path)
{
    _f = std::fopen(path.c_str(), "wb");
    if (!_f)
        fatal("cannot open trace stream %s for writing", path.c_str());
    _buf.reserve(kWriterBufferBytes + kFrameBytes);
    _buf.resize(kStreamHeaderBytes);
    encodeStreamHeader(/*dense_seq=*/true, _buf.data());
}

StreamWriter::~StreamWriter()
{
    close();
}

void
StreamWriter::onEvent(const Record &r)
{
    sim_assert(_f, "trace stream %s written after close",
               _path.c_str());
    std::size_t at = _buf.size();
    _buf.resize(at + kFrameBytes);
    encodeFrame(r, _buf.data() + at);
    ++_stats.records;
    if (_buf.size() >= kWriterBufferBytes)
        flush();
}

void
StreamWriter::flush()
{
    if (!_f || _buf.empty())
        return;
    auto t0 = std::chrono::steady_clock::now();
    std::size_t n = std::fwrite(_buf.data(), 1, _buf.size(), _f);
    _stats.flushWallMs +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (n != _buf.size())
        fatal("short write to trace stream %s (%zu of %zu bytes)",
              _path.c_str(), n, _buf.size());
    _stats.bytesWritten += n;
    ++_stats.flushes;
    _buf.clear();
}

void
StreamWriter::close()
{
    if (!_f)
        return;
    flush();
    std::fclose(_f);
    _f = nullptr;
}

// ---------------------------------------------------------------------
// StreamReader

StreamReader::StreamReader(const std::string &path)
{
    _f = std::fopen(path.c_str(), "rb");
    if (!_f)
        _done = true;
    _buf.reserve(1 << 16);
}

StreamReader::~StreamReader()
{
    if (_f)
        std::fclose(_f);
}

std::uint64_t
StreamReader::offsetAt(std::size_t rel) const
{
    return _base + _pos + rel;
}

void
StreamReader::refill(std::size_t want)
{
    if (avail() >= want || _eof)
        return;
    // Compact: drop consumed bytes so the buffer stays bounded no
    // matter how long the stream is.
    if (_pos > 0) {
        _base += _pos;
        _buf.erase(_buf.begin(),
                   _buf.begin() + static_cast<std::ptrdiff_t>(_pos));
        _pos = 0;
    }
    while (_buf.size() < want && !_eof) {
        unsigned char chunk[1 << 15];
        std::size_t n = std::fread(chunk, 1, sizeof(chunk), _f);
        if (n == 0) {
            _eof = true;
            break;
        }
        _buf.insert(_buf.end(), chunk, chunk + n);
    }
}

StreamReader::Status
StreamReader::fail(StreamFault &fault, StreamFault::Kind kind,
                   std::uint64_t offset, std::uint64_t seq)
{
    fault.kind = kind;
    fault.offset = offset;
    fault.recordIndex = _records;
    fault.prevSeq = _lastSeq;
    fault.seq = seq;
    _done = true;
    return Status::Fault;
}

bool
StreamReader::parseHeader(StreamFault &fault, Status &status)
{
    refill(kStreamHeaderBytes);
    if (avail() < kStreamHeaderBytes) {
        // A torn header still starts with the magic; any other short
        // file is not a stream at all.
        std::size_t n = std::min(avail(), sizeof(kStreamMagic));
        bool torn = n != 0 &&
                    std::memcmp(_buf.data() + _pos, kStreamMagic, n) == 0;
        status = torn ? fail(fault, StreamFault::Kind::Truncated,
                             offsetAt(avail()), 0)
                      : fail(fault, StreamFault::Kind::BadMagic, 0, 0);
        return false;
    }
    const unsigned char *p = _buf.data() + _pos;
    if (std::memcmp(p, kStreamMagic, sizeof(kStreamMagic)) != 0) {
        status = fail(fault, StreamFault::Kind::BadMagic, 0, 0);
        return false;
    }
    std::uint16_t version = get16(p + 8);
    if (version != kStreamVersion) {
        status = fail(fault, StreamFault::Kind::BadVersion, 8, version);
        return false;
    }
    std::uint16_t hdrBytes = get16(p + 10);
    if (hdrBytes < kStreamHeaderBytes) {
        status = fail(fault, StreamFault::Kind::BadLength, 10,
                      hdrBytes);
        return false;
    }
    _dense = (get32(p + 12) & kStreamFlagDenseSeq) != 0;
    // Skip any forward-compatible header extension.
    refill(hdrBytes);
    if (avail() < hdrBytes) {
        status = fail(fault, StreamFault::Kind::Truncated,
                      offsetAt(avail()), 0);
        return false;
    }
    _pos += hdrBytes;
    _headerParsed = true;
    return true;
}

StreamReader::Status
StreamReader::next(Record &out, StreamFault &fault)
{
    if (_done)
        return Status::End;
    Status status = Status::End;
    if (!_headerParsed && !parseHeader(fault, status))
        return status;
    refill(kFrameBytes);
    if (avail() == 0) {
        _done = true;
        return Status::End;
    }
    std::uint64_t frameOff = offsetAt(0);
    const unsigned char *p = _buf.data() + _pos;
    if (p[0] != kFrameSync0 ||
        (avail() >= 2 && p[1] != kFrameSync1))
        return fail(fault, StreamFault::Kind::BadSync, frameOff, 0);
    if (avail() < kFrameBytes) {
        // Sync matched but the stream ends inside the frame: a torn
        // final write. The offset names the first missing byte.
        std::uint64_t endOff = offsetAt(avail());
        std::uint64_t seq = avail() >= 12 ? get64(p + 4) : 0;
        return fail(fault, StreamFault::Kind::Truncated, endOff, seq);
    }
    std::uint16_t len = get16(p + 2);
    if (len != kFramePayloadBytes)
        return fail(fault, StreamFault::Kind::BadLength, frameOff + 2,
                    len);
    std::uint64_t seq = get64(p + 4);
    if (get32(p + 12 + kFramePayloadBytes) !=
        crc32(p + 2, 2 + 8 + kFramePayloadBytes))
        return fail(fault, StreamFault::Kind::BadChecksum, frameOff,
                    seq);
    Record rec;
    if (!decodePayload(p + 12, rec))
        return fail(fault, StreamFault::Kind::BadPayload, frameOff + 12,
                    seq);
    rec.seq = seq;
    if (seq <= _lastSeq)
        return fail(fault, StreamFault::Kind::SeqOrder, frameOff + 4,
                    seq);
    // A dense stream with missing records is an incomplete recording
    // masquerading as a complete one.
    if (_dense && _lastSeq != 0 && seq != _lastSeq + 1)
        return fail(fault, StreamFault::Kind::SeqGap, frameOff + 4, seq);
    _pos += kFrameBytes;
    _lastSeq = seq;
    ++_records;
    out = rec;
    return Status::Record;
}

std::string
StreamFault::describe() const
{
    std::string s = "offset " + std::to_string(offset) + " (record " +
                    std::to_string(recordIndex) + "): " +
                    faultKindName(kind);
    if (kind == Kind::SeqOrder || kind == Kind::SeqGap)
        s += " (seq " + std::to_string(seq) + " after " +
             std::to_string(prevSeq) + ")";
    else if (seq != 0)
        s += " (seq " + std::to_string(seq) + ")";
    return s;
}

// ---------------------------------------------------------------------
// Whole-file reads

StreamReadResult
readStreamFile(const std::string &path,
               const std::function<void(const Record &)> &on_record)
{
    StreamReadResult out;
    StreamReader reader(path);
    if (!reader.ok()) {
        out.error = "cannot open trace stream " + path;
        return out;
    }
    Record r;
    StreamFault fault;
    StreamReader::Status s;
    while ((s = reader.next(r, fault)) == StreamReader::Status::Record)
        on_record(r);
    out.ok = s == StreamReader::Status::End;
    if (!out.ok)
        out.error = path + ": " + fault.describe();
    out.records = reader.recordsRead();
    return out;
}

StreamReadResult
loadStreamFile(const std::string &path, std::vector<Record> &out)
{
    out.clear();
    StreamReadResult res = readStreamFile(
        path, [&out](const Record &r) { out.push_back(r); });
    if (!res.ok)
        out.clear();
    return res;
}

// ---------------------------------------------------------------------
// Binary export

std::size_t
exportBinaryFile(const std::vector<Record> &recs,
                 const std::string &path)
{
    for (std::size_t i = 1; i < recs.size(); ++i)
        sim_assert(recs[i].seq == recs[i - 1].seq + 1,
                   "exportBinaryFile needs consecutive seqs (record %zu)",
                   i);
    StreamWriter w(path);
    for (const Record &r : recs)
        w.onEvent(r);
    w.close();
    return recs.size();
}

} // namespace retcon::trace
