/**
 * @file
 * Tests for the streaming binary trace format (src/trace/stream) and
 * its windowed consumption path (query::StreamingReplay /
 * validateStreamFile): the CRC-32 against a bytewise reference, the
 * pinned v1 frame bytes, payload codec round trips, writer/reader and
 * loader file round trips (bit-exact), corruption detection with
 * offset-precise diagnostics (every bit of a frame, truncation at
 * every length, seq gap, seq regression), and windowed-vs-post-hoc
 * verdict identity with the resident-state bound
 * (docs/trace-format.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "exec/cluster.hpp"
#include "query/replay.hpp"
#include "trace/sink.hpp"
#include "trace/stream.hpp"

#include "counter_harness.hpp"

using namespace retcon;
using namespace retcon::exec;
using namespace retcon::test;

namespace {

/** Contended-counter run under RETCON, fully recorded (dense seq). */
std::vector<trace::Record>
recordCounterRun()
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.tm.mode = htm::TMMode::Retcon;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));
    std::vector<trace::Record> recs;
    trace::CaptureSink capture(recs);
    cluster.setTraceSink(&capture);
    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    cluster.run();
    EXPECT_EQ(cluster.memory().readWord(kCounter),
              Word{kThreads} * kIters);
    return recs;
}

std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(is),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path,
           const std::vector<unsigned char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Drain a reader; returns records and counts faults by kind. */
struct DrainResult {
    std::vector<trace::Record> records;
    std::vector<trace::StreamFault> faults;
};

DrainResult
drain(trace::StreamReader &reader)
{
    DrainResult out;
    trace::Record r;
    trace::StreamFault f;
    while (true) {
        trace::StreamReader::Status s = reader.next(r, f);
        if (s == trace::StreamReader::Status::Record)
            out.records.push_back(r);
        else if (s == trace::StreamReader::Status::Fault)
            out.faults.push_back(f);
        else
            return out;
    }
}

/** Hand-craft an .rtt file from explicit records (test harness for
 *  seq-fault injection — the writer itself never misorders). */
void
craftStream(const std::string &path, bool dense,
            const std::vector<trace::Record> &recs)
{
    std::vector<unsigned char> bytes(trace::kStreamHeaderBytes);
    trace::encodeStreamHeader(dense, bytes.data());
    for (const trace::Record &r : recs) {
        std::size_t at = bytes.size();
        bytes.resize(at + trace::kFrameBytes);
        trace::encodeFrame(r, bytes.data() + at);
    }
    writeBytes(path, bytes);
}

std::string
toHex(const unsigned char *p, std::size_t n)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
        s += digits[p[i] >> 4];
        s += digits[p[i] & 0xF];
    }
    return s;
}

std::vector<unsigned char>
fromHex(const std::string &hex)
{
    std::vector<unsigned char> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<unsigned char>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    return out;
}

/**
 * CRC-32 (IEEE, reflected 0xEDB88320) one bit at a time: the reference
 * the table-driven trace::crc32 must match on every input.
 */
std::uint32_t
crc32Bytewise(const unsigned char *data, std::size_t n)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

/** Every field nonzero, a negative delta, and a distinct byte pattern
 *  per field, so a swapped or mis-sized field changes the frame. */
trace::Record
populatedRecord()
{
    trace::Record r;
    r.seq = 0x8877665544332211ull;
    r.cycle = 0x0102030405060708ull;
    r.core = 0x0A0B0C0Du;
    r.kind = trace::EventKind::SymStore;
    r.addr = 0x1112131415161718ull;
    r.a = 0x2122232425262728ull;
    r.b = 0x3132333435363738ull;
    r.vid = 0x4142434445464748ull;
    r.hasSym = true;
    r.sym.root = 0x5152535455565758ull;
    r.sym.delta = -0x123456789Al;
    r.sym.size = 4;
    r.cmp = rtc::CmpOp::GE;
    r.aux = 0x3C;
    return r;
}

trace::Record
sampleRecord(std::uint64_t seq, trace::EventKind kind)
{
    trace::Record r;
    r.cycle = 1000 + seq;
    r.core = static_cast<CoreId>(seq % kThreads);
    r.kind = kind;
    r.addr = kCounter + 8 * seq;
    r.a = 0xA0000000ull + seq;
    r.b = 0xB0000000ull + seq;
    r.seq = seq;
    r.vid = seq * 3;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// CRC-32 and the pinned v1 bytes
// ---------------------------------------------------------------------

TEST(StreamCrc, KnownAnswers)
{
    const unsigned char check[] = "123456789";
    EXPECT_EQ(trace::crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32Bytewise(check, 9), 0xCBF43926u);
    EXPECT_EQ(trace::crc32(check, 0), 0u);
}

TEST(StreamCrc, MatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    // Slicing bugs live in the tail bytes and in misaligned words, so
    // every length 0..256 is checked at every start offset 0..7.
    std::vector<unsigned char> buf(256 + 8);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (unsigned char &c : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c = static_cast<unsigned char>(x);
    }
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t len = 0; len <= 256; ++len)
            ASSERT_EQ(trace::crc32(buf.data() + off, len),
                      crc32Bytewise(buf.data() + off, len))
                << "offset " << off << " length " << len;
}

TEST(StreamCodec, V1BytesArePinned)
{
    // The exact frame of one fully populated record and the exact
    // dense header, as every earlier writer produced them: a codec
    // change that moves a byte breaks every recorded .rtt file.
    const std::string frameHex =
        "a55c4200112233445566778808070605040302011817161514131211"
        "28272625242322213837363534333231484746454443424158575655"
        "545352516687a9cbedffffff0d0c0b0a0501043c0400d70b33fe";
    const std::string headerHex = "5254435354524d3101001000"
                                  "01000000";
    ASSERT_EQ(frameHex.size(), 2 * trace::kFrameBytes);

    trace::Record r = populatedRecord();
    unsigned char frame[trace::kFrameBytes];
    trace::encodeFrame(r, frame);
    EXPECT_EQ(toHex(frame, trace::kFrameBytes), frameHex);
    unsigned char header[trace::kStreamHeaderBytes];
    trace::encodeStreamHeader(/*dense_seq=*/true, header);
    EXPECT_EQ(toHex(header, trace::kStreamHeaderBytes), headerHex);

    // The pinned bytes decode back to the record, directly and through
    // a reader (which also checks the pinned CRC).
    std::vector<unsigned char> bytes = fromHex(frameHex);
    trace::Record back;
    ASSERT_TRUE(trace::decodePayload(bytes.data() + 12, back));
    back.seq = r.seq;
    EXPECT_TRUE(trace::recordsIdentical(back, r));

    const std::string path = "test_stream_pinned.rtt";
    bytes.insert(bytes.begin(), header,
                 header + trace::kStreamHeaderBytes);
    writeBytes(path, bytes);
    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_TRUE(got.faults.empty());
    ASSERT_EQ(got.records.size(), 1u);
    EXPECT_TRUE(trace::recordsIdentical(got.records[0], r));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Codec: payload round trips, byte-stable re-encode
// ---------------------------------------------------------------------

TEST(StreamCodec, EveryKindRoundTripsThroughAFrame)
{
    for (int k = 0; k <= static_cast<int>(trace::EventKind::UserMark);
         ++k) {
        trace::Record r =
            sampleRecord(7 + static_cast<std::uint64_t>(k),
                         static_cast<trace::EventKind>(k));
        // Exercise the conditional fields: a symbolic tag with a
        // negative delta, a non-default operator, and a legal aux
        // (Abort's aux must name a real cause).
        if (k % 2 == 0) {
            r.hasSym = true;
            r.sym.root = 0x2000;
            r.sym.delta = -17;
            r.sym.size = 4;
        }
        r.cmp = rtc::CmpOp::GE;
        r.aux = r.kind == trace::EventKind::Abort
                    ? static_cast<std::uint8_t>(htm::AbortCause::Zombie)
                    : trace::kCommitAuxDatmForwarded;

        unsigned char frame[trace::kFrameBytes];
        trace::encodeFrame(r, frame);
        EXPECT_EQ(frame[0], trace::kFrameSync0);
        EXPECT_EQ(frame[1], trace::kFrameSync1);

        trace::Record back;
        ASSERT_TRUE(trace::decodePayload(frame + 12, back));
        back.seq = r.seq; // seq travels in the frame header.
        EXPECT_TRUE(trace::recordsIdentical(r, back))
            << "kind " << k;

        // Re-encoding the decode reproduces the frame byte for byte —
        // the property behind file-level binary round-trip identity.
        unsigned char again[trace::kFrameBytes];
        trace::encodeFrame(back, again);
        EXPECT_EQ(std::memcmp(frame, again, trace::kFrameBytes), 0);
    }
}

TEST(StreamCodec, IllegalPayloadsAreRejected)
{
    trace::Record r = sampleRecord(1, trace::EventKind::Commit);
    unsigned char frame[trace::kFrameBytes];
    trace::Record out;

    // Unknown event kind.
    trace::encodeFrame(r, frame);
    frame[12 + 60] =
        static_cast<unsigned char>(trace::EventKind::UserMark) + 1;
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));

    // Unknown constraint operator.
    trace::encodeFrame(r, frame);
    frame[12 + 62] = static_cast<unsigned char>(rtc::CmpOp::GT) + 1;
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));

    // Undefined flag bits.
    trace::encodeFrame(r, frame);
    frame[12 + 61] = 0x2;
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));

    // Abort cause beyond the enum.
    r.kind = trace::EventKind::Abort;
    r.aux = static_cast<std::uint8_t>(htm::AbortCause::Zombie) + 1;
    trace::encodeFrame(r, frame);
    EXPECT_FALSE(trace::decodePayload(frame + 12, out));
}

// ---------------------------------------------------------------------
// File round trips: writer/reader and loader bit-exactness
// ---------------------------------------------------------------------

TEST(StreamFile, WriterReaderRoundTripIsLossless)
{
    const std::string path = "test_stream_roundtrip.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    ASSERT_FALSE(recs.empty());

    trace::StreamWriter writer(path);
    for (const trace::Record &r : recs)
        writer.onEvent(r);
    writer.close();
    EXPECT_EQ(writer.stats().records, recs.size());
    EXPECT_EQ(writer.stats().bytesWritten,
              trace::kStreamHeaderBytes +
                  recs.size() * trace::kFrameBytes);
    EXPECT_GE(writer.stats().flushes, 1u);

    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_TRUE(got.faults.empty());
    EXPECT_TRUE(reader.denseSeq());
    ASSERT_EQ(got.records.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(trace::recordsIdentical(got.records[i], recs[i]))
            << "record " << i;

    // The loader reads the same stream strictly.
    std::vector<trace::Record> loaded;
    trace::StreamReadResult load = trace::loadStreamFile(path, loaded);
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.records, recs.size());
    ASSERT_EQ(loaded.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        ASSERT_TRUE(trace::recordsIdentical(loaded[i], recs[i]));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Fault detection: checksum, truncation, seq gap/regression
// ---------------------------------------------------------------------

TEST(StreamFile, ChecksumCorruptionIsRejectedWithItsOffset)
{
    const std::string path = "test_stream_corrupt.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    // Flip one payload byte in the middle frame.
    std::vector<unsigned char> bytes = readBytes(path);
    const std::size_t frame = recs.size() / 2;
    const std::size_t frameOff =
        trace::kStreamHeaderBytes + frame * trace::kFrameBytes;
    bytes[frameOff + 20] ^= 0x40;
    writeBytes(path, bytes);

    // Strict reader: the records before the corruption, then one
    // terminal BadChecksum fault naming the frame's exact offset.
    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_EQ(got.records.size(), frame);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind,
              trace::StreamFault::Kind::BadChecksum);
    EXPECT_EQ(got.faults[0].offset, frameOff);
    EXPECT_EQ(got.faults[0].recordIndex, frame);

    // The loader refuses the whole file with the same diagnostic.
    std::vector<trace::Record> loaded;
    trace::StreamReadResult load = trace::loadStreamFile(path, loaded);
    EXPECT_FALSE(load.ok);
    EXPECT_EQ(load.records, frame);
    EXPECT_NE(load.error.find("offset " + std::to_string(frameOff)),
              std::string::npos)
        << load.error;
    EXPECT_NE(load.error.find("checksum"), std::string::npos);
    EXPECT_TRUE(loaded.empty());
    std::remove(path.c_str());
}

TEST(StreamFile, EveryBitFlipInAFrameIsABadChecksum)
{
    // Negative control for the CRC: every single-bit flip in the
    // checksummed span and the stored CRC (bytes [2..81]) of the middle
    // frame fails that frame, and only that frame, as BadChecksum.
    const std::string path = "test_stream_bitflip.rtt";
    trace::Record mid = populatedRecord();
    mid.seq = 2;
    craftStream(path, /*dense=*/true,
                {sampleRecord(1, trace::EventKind::TxBegin), mid,
                 sampleRecord(3, trace::EventKind::Commit)});
    const std::vector<unsigned char> clean = readBytes(path);
    const std::size_t frameOff =
        trace::kStreamHeaderBytes + trace::kFrameBytes;

    for (std::size_t byte = 2; byte < trace::kFrameBytes; ++byte)
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<unsigned char> bytes = clean;
            bytes[frameOff + byte] ^= static_cast<unsigned char>(1 << bit);
            writeBytes(path, bytes);
            trace::StreamReader reader(path);
            DrainResult got = drain(reader);
            ASSERT_EQ(got.records.size(), 1u)
                << "byte " << byte << " bit " << bit;
            ASSERT_EQ(got.faults.size(), 1u);
            EXPECT_EQ(got.faults[0].kind,
                      trace::StreamFault::Kind::BadChecksum)
                << "byte " << byte << " bit " << bit;
            EXPECT_EQ(got.faults[0].offset, frameOff);
        }
    std::remove(path.c_str());
}

TEST(StreamFile, FrameWithValidCrcAndAnotherLengthIsBadLength)
{
    // A well-formed frame of a size this reader does not parse (say,
    // from a later format version) is BadLength, not BadChecksum.
    const std::string path = "test_stream_badlen.rtt";
    craftStream(path, /*dense=*/true,
                {sampleRecord(1, trace::EventKind::TxBegin)});
    std::vector<unsigned char> bytes = readBytes(path);
    unsigned char *frame = bytes.data() + trace::kStreamHeaderBytes;
    frame[2] = static_cast<unsigned char>(trace::kFramePayloadBytes - 1);
    std::uint32_t crc =
        trace::crc32(frame + 2, 2 + 8 + trace::kFramePayloadBytes);
    for (int i = 0; i < 4; ++i)
        frame[12 + trace::kFramePayloadBytes + i] =
            static_cast<unsigned char>(crc >> (8 * i));
    writeBytes(path, bytes);

    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_TRUE(got.records.empty());
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::BadLength);
    EXPECT_EQ(got.faults[0].offset, trace::kStreamHeaderBytes + 2);
    std::remove(path.c_str());
}

TEST(StreamFile, EveryPrefixOfAStreamReadsCleanly)
{
    // A file cut at any byte yields exactly its whole frames. A cut at
    // a frame boundary then ends cleanly (the reader cannot tell it
    // from a shorter run); any other cut ends in one terminal fault,
    // and an empty file is no stream at all.
    const std::string path = "test_stream_prefix.rtt";
    craftStream(path, /*dense=*/true,
                {sampleRecord(1, trace::EventKind::TxBegin),
                 sampleRecord(2, trace::EventKind::Store),
                 sampleRecord(3, trace::EventKind::Commit)});
    const std::vector<unsigned char> full = readBytes(path);
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        auto end = full.begin() + static_cast<std::ptrdiff_t>(cut);
        writeBytes(path, {full.begin(), end});
        trace::StreamReader reader(path);
        DrainResult got = drain(reader);
        std::size_t whole =
            cut < trace::kStreamHeaderBytes
                ? 0
                : (cut - trace::kStreamHeaderBytes) / trace::kFrameBytes;
        EXPECT_EQ(got.records.size(), whole) << "cut " << cut;
        if (cut != 0 && cut == trace::kStreamHeaderBytes +
                                   whole * trace::kFrameBytes) {
            EXPECT_TRUE(got.faults.empty()) << "cut " << cut;
            continue;
        }
        ASSERT_EQ(got.faults.size(), 1u) << "cut " << cut;
        if (cut == 0) {
            EXPECT_EQ(got.faults[0].kind,
                      trace::StreamFault::Kind::BadMagic);
            continue;
        }
        EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::Truncated)
            << "cut " << cut;
        EXPECT_EQ(got.faults[0].offset, cut) << "cut " << cut;
    }
    std::remove(path.c_str());
}

TEST(StreamFile, TruncationIsRejected)
{
    const std::string path = "test_stream_trunc.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    // Tear the final frame: keep all but its last 10 bytes.
    std::vector<unsigned char> bytes = readBytes(path);
    bytes.resize(bytes.size() - 10);
    writeBytes(path, bytes);

    trace::StreamReader reader(path);
    DrainResult got = drain(reader);
    EXPECT_EQ(got.records.size(), recs.size() - 1);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::Truncated);
    EXPECT_EQ(got.faults[0].offset, bytes.size());

    std::vector<trace::Record> loaded;
    trace::StreamReadResult load = trace::loadStreamFile(path, loaded);
    EXPECT_FALSE(load.ok);
    EXPECT_NE(load.error.find("truncated"), std::string::npos)
        << load.error;
    std::remove(path.c_str());
}

TEST(StreamFile, TextTracesAreRejectedAsBadMagic)
{
    // `.rtt` is the only trace format: JSON Lines or CSV content fails
    // the load with the reader's diagnostic and yields no records,
    // also when it is shorter than a stream header.
    const std::string path = "test_stream_text.rtt";
    for (std::string text :
         {"{\"cycle\":1,\"seq\":1,\"core\":0,\"kind\":\"begin\"}\n",
          "cycle,core,kind,addr,a,b\n1,0,begin,0,0,0\n", "{}\n"}) {
        writeBytes(path, {text.begin(), text.end()});
        std::vector<trace::Record> loaded;
        trace::StreamReadResult load = trace::loadStreamFile(path, loaded);
        EXPECT_FALSE(load.ok);
        EXPECT_NE(load.error.find("bad magic"), std::string::npos)
            << load.error;
        EXPECT_TRUE(loaded.empty());
    }
    // An empty file is no stream either, and a missing one fails too.
    std::vector<trace::Record> loaded;
    writeBytes(path, {});
    EXPECT_FALSE(trace::loadStreamFile(path, loaded).ok);
    std::remove(path.c_str());
    trace::StreamReadResult missing = trace::loadStreamFile(path, loaded);
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.error.find("cannot open"), std::string::npos)
        << missing.error;
}

TEST(StreamFile, DenseSeqGapIsFatalInStrictMode)
{
    const std::string path = "test_stream_gap.rtt";
    std::vector<trace::Record> recs = {
        sampleRecord(1, trace::EventKind::TxBegin),
        sampleRecord(2, trace::EventKind::Load),
        sampleRecord(4, trace::EventKind::Commit), // 3 missing.
    };
    craftStream(path, /*dense=*/true, recs);

    trace::StreamReader strict(path);
    DrainResult got = drain(strict);
    EXPECT_EQ(got.records.size(), 2u);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::SeqGap);
    EXPECT_EQ(got.faults[0].prevSeq, 2u);
    EXPECT_EQ(got.faults[0].seq, 4u);

    // A header without the dense flag makes the same seqs legal: the
    // flag is part of the v1 format, so the reader honours it even
    // though the writer always sets it.
    craftStream(path, /*dense=*/false, recs);
    trace::StreamReader sparse(path);
    DrainResult got3 = drain(sparse);
    EXPECT_EQ(got3.records.size(), 3u);
    EXPECT_TRUE(got3.faults.empty());
    std::remove(path.c_str());
}

TEST(StreamFile, SeqRegressionIsRejected)
{
    const std::string path = "test_stream_seqorder.rtt";
    std::vector<trace::Record> recs = {
        sampleRecord(5, trace::EventKind::TxBegin),
        sampleRecord(3, trace::EventKind::Load), // Regression.
        sampleRecord(6, trace::EventKind::Commit),
    };
    craftStream(path, /*dense=*/false, recs);

    trace::StreamReader strict(path);
    DrainResult got = drain(strict);
    EXPECT_EQ(got.records.size(), 1u);
    ASSERT_EQ(got.faults.size(), 1u);
    EXPECT_EQ(got.faults[0].kind, trace::StreamFault::Kind::SeqOrder);
    EXPECT_EQ(got.faults[0].prevSeq, 5u);
    EXPECT_EQ(got.faults[0].seq, 3u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Windowed validation: verdict identity and the resident-state bound
// ---------------------------------------------------------------------

TEST(StreamValidate, WindowedVerdictMatchesPostHocFieldForField)
{
    const std::string path = "test_stream_validate.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    query::ReplayResult post = query::replayValidate(recs);
    ASSERT_TRUE(post.report.ok()) << post.report.summary();

    query::StreamValidateResult inc = query::validateStreamFile(path);
    ASSERT_TRUE(inc.streamOk) << inc.error;
    EXPECT_EQ(inc.recordsRead, recs.size());
    EXPECT_TRUE(inc.ok());

    const trace::ReenactReport &a = inc.replay.report;
    const trace::ReenactReport &b = post.report;
    EXPECT_EQ(a.commitsChecked, b.commitsChecked);
    EXPECT_EQ(a.repairsChecked, b.repairsChecked);
    EXPECT_EQ(a.constraintsChecked, b.constraintsChecked);
    EXPECT_EQ(a.pinsChecked, b.pinsChecked);
    EXPECT_EQ(a.abortsSeen, b.abortsSeen);
    EXPECT_EQ(a.forwardsChecked, b.forwardsChecked);
    EXPECT_EQ(a.forwardedCommitsChecked, b.forwardedCommitsChecked);
    EXPECT_EQ(a.forwardedCommitsSkipped, b.forwardedCommitsSkipped);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(inc.replay.unknownReads, post.unknownReads);
    EXPECT_EQ(inc.replay.seededWords, post.seededWords);

    // The windowed-validation memory contract: resident state peaks
    // at the number of cores that can hold an attempt open, never the
    // run length — and the run really did open attempts.
    EXPECT_GT(inc.replay.peakOpenAttempts, 0u);
    EXPECT_LE(inc.replay.peakOpenAttempts, kThreads);
    EXPECT_EQ(inc.replay.peakOpenAttempts, post.peakOpenAttempts);
    std::remove(path.c_str());
}

TEST(StreamValidate, CorruptedStreamIsNotScored)
{
    const std::string path = "test_stream_validate_bad.rtt";
    std::vector<trace::Record> recs = recordCounterRun();
    trace::exportBinaryFile(recs, path);

    std::vector<unsigned char> bytes = readBytes(path);
    bytes[bytes.size() / 2] ^= 0xFF;
    writeBytes(path, bytes);

    query::StreamValidateResult v = query::validateStreamFile(path);
    EXPECT_FALSE(v.streamOk);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.error.find("offset"), std::string::npos) << v.error;
    std::remove(path.c_str());
}
