#include "query/loader.hpp"

#include "trace/stream.hpp"

namespace retcon::query {

LoadResult
loadTraceFile(const std::string &path)
{
    LoadResult result;
    trace::StreamReader reader(path); // Strict: first fault fails.
    if (!reader.ok()) {
        result.ok = false;
        result.error = "cannot open trace file " + path;
        return result;
    }
    trace::Record r;
    trace::StreamFault fault;
    while (true) {
        trace::StreamReader::Status s = reader.next(r, fault);
        if (s == trace::StreamReader::Status::Record) {
            result.records.push_back(r);
            continue;
        }
        if (s == trace::StreamReader::Status::Fault) {
            result.ok = false;
            result.error = path + ": " + fault.describe();
            result.records.clear();
        }
        return result;
    }
}

} // namespace retcon::query
