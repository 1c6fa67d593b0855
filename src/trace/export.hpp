/**
 * @file
 * JSON Lines view of provenance records: one object per record, for
 * reading a trace with line-oriented tools. `.rtt` (trace/stream.hpp)
 * is the only storage format; this is the rendering behind
 * `retcon-query <file.rtt> dump`. The field-by-field schema is
 * documented in docs/trace-format.md.
 */

#ifndef RETCON_TRACE_EXPORT_HPP
#define RETCON_TRACE_EXPORT_HPP

#include <ostream>

#include "trace/event.hpp"

namespace retcon::trace {

/** Stable operator spelling ("<", "<=", "==", ...). */
const char *cmpOpName(rtc::CmpOp op);

/** Serialize one record as a single JSON object (no newline). */
void writeJsonRecord(const Record &r, std::ostream &os);

} // namespace retcon::trace

#endif // RETCON_TRACE_EXPORT_HPP
