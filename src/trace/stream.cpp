#include "trace/stream.hpp"

#include <algorithm>
#include <array>
#include <bit>
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

// The frame fields are stored little-endian; on a little-endian host
// that is the native byte order, so each field is one memcpy.
static_assert(std::endian::native == std::endian::little,
              ".rtt fields are copied in native byte order");

void
put16(unsigned char *p, std::uint16_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

void
put32(unsigned char *p, std::uint32_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

void
put64(unsigned char *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof(v));
}

std::uint16_t
get16(const unsigned char *p)
{
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint32_t
get32(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
get64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/*
 * Slicing-by-8 tables for the reflected IEEE polynomial. kCrc[0] is the
 * classic byte table; kCrc[k][i] is the CRC of byte i followed by k
 * zero bytes, so one step folds eight input bytes with eight lookups
 * (or four bytes with kCrc[3..0]).
 */
constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}();

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
    std::uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; data += 8, n -= 8) {
        std::uint32_t lo = get32(data) ^ c;
        std::uint32_t hi = get32(data + 4);
        c = kCrc[7][lo & 0xFF] ^ kCrc[6][(lo >> 8) & 0xFF] ^
            kCrc[5][(lo >> 16) & 0xFF] ^ kCrc[4][lo >> 24] ^
            kCrc[3][hi & 0xFF] ^ kCrc[2][(hi >> 8) & 0xFF] ^
            kCrc[1][(hi >> 16) & 0xFF] ^ kCrc[0][hi >> 24];
    }
    // A frame's 76-byte span leaves exactly this one 4-byte step.
    if (n >= 4) {
        std::uint32_t lo = get32(data) ^ c;
        c = kCrc[3][lo & 0xFF] ^ kCrc[2][(lo >> 8) & 0xFF] ^
            kCrc[1][(lo >> 16) & 0xFF] ^ kCrc[0][lo >> 24];
        data += 4;
        n -= 4;
    }
    for (; n > 0; ++data, --n)
        c = kCrc[0][(c ^ *data) & 0xFF] ^ (c >> 8);
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
    // One frame past the flush threshold: onEvent never grows it.
    _buf.resize(kWriterBufferBytes + kFrameBytes);
    encodeStreamHeader(/*dense_seq=*/true, _buf.data());
    _len = kStreamHeaderBytes;
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
    encodeFrame(r, _buf.data() + _len);
    _len += kFrameBytes;
    ++_stats.records;
    if (_len >= kWriterBufferBytes)
        flush();
}

void
StreamWriter::flush()
{
    if (!_f || _len == 0)
        return;
    auto t0 = std::chrono::steady_clock::now();
    std::size_t n = std::fwrite(_buf.data(), 1, _len, _f);
    _stats.flushWallMs +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (n != _len)
        fatal("short write to trace stream %s (%zu of %zu bytes)",
              _path.c_str(), n, _len);
    _stats.bytesWritten += n;
    ++_stats.flushes;
    _len = 0;
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

namespace {

/// Bytes of file the reader holds at once. Every refill() request
/// (a frame, or a header length, which is a u16) fits.
constexpr std::size_t kReaderBufferBytes = 1 << 16;
static_assert(kReaderBufferBytes > 0xFFFF);

} // namespace

StreamReader::StreamReader(const std::string &path)
{
    _f = std::fopen(path.c_str(), "rb");
    if (!_f)
        _done = true;
    _buf.resize(kReaderBufferBytes);
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
        std::memmove(_buf.data(), _buf.data() + _pos, avail());
        _end -= _pos;
        _pos = 0;
    }
    while (_end < want && !_eof) {
        std::size_t n = std::fread(_buf.data() + _end, 1,
                                   _buf.size() - _end, _f);
        if (n == 0) {
            _eof = true;
            break;
        }
        _end += n;
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
    // The CRC is checked first: it covers the length field too, so a
    // flipped length bit is in-place corruption like any other, and
    // BadLength is left for a well-formed frame of another size.
    std::uint64_t seq = get64(p + 4);
    if (get32(p + 12 + kFramePayloadBytes) !=
        crc32(p + 2, 2 + 8 + kFramePayloadBytes))
        return fail(fault, StreamFault::Kind::BadChecksum, frameOff,
                    seq);
    std::uint16_t len = get16(p + 2);
    if (len != kFramePayloadBytes)
        return fail(fault, StreamFault::Kind::BadLength, frameOff + 2,
                    len);
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
