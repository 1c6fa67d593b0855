/**
 * @file
 * Offline trace loader: read a recorded `.rtt` stream
 * (docs/trace-format.md) back into trace::Record form.
 *
 * Loading is strict: the first bad magic, checksum, seq-order, seq-gap
 * (dense streams), truncation, or payload fault fails the load with
 * the reader's offset-precise diagnostic instead of silently yielding
 * a partial stream — a truncated or hand-edited trace must not
 * masquerade as a recorded run (tests/unit/test_stream.cpp pins the
 * negative controls). A file that is not an `.rtt` stream at all
 * fails with "not an .rtt stream (bad magic)".
 */

#ifndef RETCON_QUERY_LOADER_HPP
#define RETCON_QUERY_LOADER_HPP

#include <string>
#include <vector>

#include "trace/event.hpp"

namespace retcon::query {

/** Outcome of a load: the records, or an offset-precise diagnostic. */
struct LoadResult {
    bool ok = true;
    std::string error;
    std::vector<trace::Record> records;
};

/** Load a framed `.rtt` trace file (strict trace::StreamReader). */
LoadResult loadTraceFile(const std::string &path);

} // namespace retcon::query

#endif // RETCON_QUERY_LOADER_HPP
