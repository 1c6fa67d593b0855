/**
 * @file
 * Streaming binary trace format (.rtt): an append-only framed record
 * stream written while the run is live, so trace length is bounded by
 * disk, not memory (docs/trace-format.md). It is the only
 * storage format: every trace file is an .rtt stream.
 *
 * Layout (all integers little-endian):
 *
 *   file header (16 bytes)
 *     [0..7]   magic "RTCSTRM1"
 *     [8..9]   u16 format version (1)
 *     [10..11] u16 header length in bytes (>= 16; readers skip extra)
 *     [12..15] u32 flags (bit 0: seq values are dense — every record
 *              present, machine-global seq N, N+1, N+2, ...)
 *
 *   frame (82 bytes per record)
 *     [0..1]   sync marker 0xA5 0x5C
 *     [2..3]   u16 payload length (66 for version 1)
 *     [4..11]  u64 machine-global seq
 *     [12..77] payload (fixed 66-byte Record image, see stream.cpp)
 *     [78..81] u32 CRC-32 (IEEE) over bytes [2..77] — length, seq,
 *              and payload; the sync marker is excluded so a marker
 *              found by scanning is validated by the checksum.
 *
 * The framing is escape-free: payload bytes are written verbatim. The
 * reader treats the first integrity fault as terminal; the per-frame
 * seq tells a diagnostic exactly how many records a gap swallowed.
 */

#ifndef RETCON_TRACE_STREAM_HPP
#define RETCON_TRACE_STREAM_HPP

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "trace/sink.hpp"

namespace retcon::trace {

/** File-header magic; any other leading bytes fail as BadMagic. */
inline constexpr char kStreamMagic[8] = {'R', 'T', 'C', 'S',
                                         'T', 'R', 'M', '1'};
inline constexpr std::uint16_t kStreamVersion = 1;
inline constexpr std::size_t kStreamHeaderBytes = 16;
/** Header flag bit 0: seqs are dense (no record ever dropped). */
inline constexpr std::uint32_t kStreamFlagDenseSeq = 0x1;

inline constexpr unsigned char kFrameSync0 = 0xA5;
inline constexpr unsigned char kFrameSync1 = 0x5C;
inline constexpr std::size_t kFramePayloadBytes = 66;
/** sync(2) + length(2) + seq(8) + payload + crc(4). */
inline constexpr std::size_t kFrameBytes = 2 + 2 + 8 +
                                           kFramePayloadBytes + 4;

/**
 * CRC-32 (IEEE 802.3, reflected poly 0xEDB88320), slicing-by-8 over
 * constexpr tables, no deps. Not CRC-32C: the SSE4.2 instruction
 * computes a different polynomial and would change the format.
 */
std::uint32_t crc32(const unsigned char *data, std::size_t n);

/** Serialize one record as a complete frame (sync..crc). */
void encodeFrame(const Record &r, unsigned char out[kFrameBytes]);

/**
 * Decode a frame payload back into @p out (seq comes from the frame
 * header, not the payload — the caller sets it). @return false when
 * the payload is structurally invalid: unknown event kind, unknown
 * constraint operator, undefined flag bits, or an abort record whose
 * cause byte names no htm::AbortCause.
 */
bool decodePayload(const unsigned char *payload, Record &out);

/** Serialize the 16-byte file header (@p dense_seq sets flag bit 0). */
void encodeStreamHeader(bool dense_seq,
                        unsigned char out[kStreamHeaderBytes]);

/**
 * TraceSink that appends every record to an .rtt file as it happens.
 * Buffered: frames accumulate in memory and are written out in
 * batches, so the simulation only stalls on actual disk writes —
 * Stats::flushWallMs is exactly that stall time. The writer performs
 * no validation (the mux feed is ascending by construction; the
 * reader is the integrity check), and fatal()s on I/O errors — a
 * trace that silently stopped recording is worse than no run.
 */
class StreamWriter final : public TraceSink
{
  public:
    struct Stats {
        std::uint64_t records = 0;
        std::uint64_t bytesWritten = 0; ///< Includes the file header.
        std::uint64_t flushes = 0;      ///< Batched write() calls.
        double flushWallMs = 0.0;       ///< Host time blocked writing.
    };

    /**
     * Always sets the header's dense flag: a live machine-attached
     * writer sees every record (seq 1, 2, 3, ...), so a reader may
     * treat any gap as data loss.
     */
    explicit StreamWriter(const std::string &path);
    ~StreamWriter() override;
    StreamWriter(const StreamWriter &) = delete;
    StreamWriter &operator=(const StreamWriter &) = delete;

    void onEvent(const Record &r) override;

    /** Write out any buffered frames now. */
    void flush();

    /** Flush and close the file; further records are an error. */
    void close();

    const Stats &stats() const { return _stats; }

  private:
    std::FILE *_f = nullptr;
    std::string _path;
    std::vector<unsigned char> _buf; ///< Sized once; frames encode in place.
    std::size_t _len = 0;            ///< Bytes of _buf awaiting flush().
    Stats _stats;
};

/** One integrity fault detected while reading a stream. */
struct StreamFault {
    enum class Kind : std::uint8_t {
        BadMagic,    ///< File does not start with the .rtt header.
        BadVersion,  ///< Header version this reader cannot parse.
        BadSync,     ///< Expected frame start, found other bytes.
        BadLength,   ///< Header length too short, or a frame with a
                     ///< valid CRC whose length is not a v1 payload.
        BadChecksum, ///< Frame CRC mismatch (corrupted in place).
        BadPayload,  ///< CRC valid but the payload decodes to no
                     ///< legal record (hand-crafted/wrong-version).
        SeqOrder,    ///< Frame seq <= the previous frame's seq.
        SeqGap,      ///< Dense stream skipped seqs: records lost.
        Truncated,   ///< Stream ends mid-frame (torn final write).
    };
    Kind kind = Kind::BadSync;
    std::uint64_t offset = 0;      ///< Byte offset of the fault.
    std::uint64_t recordIndex = 0; ///< Records yielded before it.
    std::uint64_t prevSeq = 0;     ///< Last good seq (0 = none yet).
    std::uint64_t seq = 0;         ///< Faulting frame's seq, if known.

    /** Offset-precise one-line diagnostic. */
    std::string describe() const;
};

/**
 * Incremental .rtt reader: yields one record per next() call from a
 * bounded internal buffer, so resident memory never depends on trace
 * length. The first fault is terminal — next() reports it once and
 * then returns End: a corrupted or truncated trace must not
 * masquerade as a recording.
 */
class StreamReader
{
  public:
    enum class Status : std::uint8_t {
        Record, ///< @p out holds the next record.
        Fault,  ///< @p fault describes a detected integrity fault.
        End,    ///< Clean end of stream (or after a fault).
    };

    explicit StreamReader(const std::string &path);
    ~StreamReader();
    StreamReader(const StreamReader &) = delete;
    StreamReader &operator=(const StreamReader &) = delete;

    /** File opened successfully (false: next() returns End only). */
    bool ok() const { return _f != nullptr; }

    Status next(Record &out, StreamFault &fault);

    /** Header dense flag (valid after the first next()). */
    bool denseSeq() const { return _dense; }
    std::uint64_t recordsRead() const { return _records; }

  private:
    std::size_t avail() const { return _end - _pos; }
    void refill(std::size_t want);
    std::uint64_t offsetAt(std::size_t rel) const;
    Status fail(StreamFault &fault, StreamFault::Kind kind,
                std::uint64_t offset, std::uint64_t seq);
    bool parseHeader(StreamFault &fault, Status &status);

    std::FILE *_f = nullptr;
    bool _headerParsed = false;
    bool _done = false;
    bool _dense = false;
    bool _eof = false;
    std::vector<unsigned char> _buf; ///< Sized once; fread fills its tail.
    std::size_t _pos = 0;       ///< Read cursor into _buf.
    std::size_t _end = 0;       ///< End of the bytes read into _buf.
    std::uint64_t _base = 0;    ///< File offset of _buf[0].
    std::uint64_t _lastSeq = 0;
    std::uint64_t _records = 0;
};

/** Outcome of reading a whole .rtt file (readStreamFile). */
struct StreamReadResult {
    /** Opened and read to a clean end with no integrity fault. */
    bool ok = false;
    /** Offset-precise diagnostic, prefixed with the path, when !ok. */
    std::string error;
    /** Records handed to the callback (those before any fault). */
    std::uint64_t records = 0;
};

/**
 * Read the .rtt file @p path with a strict StreamReader, handing each
 * record to @p on_record in file order. The first fault ends the read
 * (a corrupted or truncated trace must not masquerade as a
 * recording); a file that cannot be opened fails the same way. Every
 * whole-file consumer reads through here: loadStreamFile, the
 * offline validator (query::validateStreamFile) and the tools.
 */
StreamReadResult
readStreamFile(const std::string &path,
               const std::function<void(const Record &)> &on_record);

/**
 * Load every record of @p path into @p out (replacing its contents).
 * On a fault @p out is left empty: the load is all or nothing.
 */
StreamReadResult loadStreamFile(const std::string &path,
                                std::vector<Record> &out);

/**
 * Write @p recs as one .rtt stream (how tests build fixture streams
 * from an in-memory capture). The stream claims dense seqs, so @p recs
 * must be a complete capture (consecutive seqs).
 * @return records written.
 */
std::size_t exportBinaryFile(const std::vector<Record> &recs,
                             const std::string &path);

} // namespace retcon::trace

#endif // RETCON_TRACE_STREAM_HPP
