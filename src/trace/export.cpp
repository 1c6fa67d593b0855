#include "trace/export.hpp"

namespace retcon::trace {

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::TxBegin: return "begin";
      case EventKind::Load: return "load";
      case EventKind::SymLoad: return "sym-load";
      case EventKind::Store: return "store";
      case EventKind::Forward: return "forward";
      case EventKind::SymStore: return "sym-store";
      case EventKind::Freeze: return "freeze";
      case EventKind::Pin: return "pin";
      case EventKind::Constraint: return "constraint";
      case EventKind::BlockLost: return "block-lost";
      case EventKind::CommitStart: return "commit-start";
      case EventKind::TokenWait: return "token-wait";
      case EventKind::CommitDrain: return "commit-drain";
      case EventKind::Repair: return "repair";
      case EventKind::Commit: return "commit";
      case EventKind::Abort: return "abort";
      case EventKind::UserMark: return "mark";
    }
    return "?";
}

const char *
cmpOpName(rtc::CmpOp op)
{
    switch (op) {
      case rtc::CmpOp::LT: return "<";
      case rtc::CmpOp::LE: return "<=";
      case rtc::CmpOp::EQ: return "==";
      case rtc::CmpOp::NE: return "!=";
      case rtc::CmpOp::GE: return ">=";
      case rtc::CmpOp::GT: return ">";
    }
    return "?";
}

void
writeJsonRecord(const Record &r, std::ostream &os)
{
    os << "{\"cycle\":" << r.cycle << ",\"seq\":" << r.seq
       << ",\"core\":" << r.core << ",\"kind\":\""
       << eventKindName(r.kind) << "\""
       << ",\"addr\":" << r.addr << ",\"a\":" << r.a << ",\"b\":" << r.b;
    if (r.hasSym) {
        os << ",\"sym\":{\"root\":" << r.sym.root
           << ",\"delta\":" << r.sym.delta << "}";
    }
    if (r.vid != 0)
        os << ",\"vid\":" << r.vid;
    if (r.kind == EventKind::Forward)
        os << ",\"producer_uid\":" << r.b;
    if (r.kind == EventKind::Constraint)
        os << ",\"cmp\":\"" << cmpOpName(r.cmp) << "\"";
    if (r.kind == EventKind::Abort) {
        os << ",\"cause\":\""
           << htm::abortCauseName(static_cast<htm::AbortCause>(r.aux))
           << "\"";
        if (r.addr != 0)
            os << ",\"blame\":" << r.addr;
    }
    if (r.kind == EventKind::Commit)
        os << ",\"datm_forwarded\":"
           << ((r.aux & kCommitAuxDatmForwarded) ? "true" : "false");
    if (r.kind == EventKind::UserMark)
        os << ",\"annotation\":" << r.a;
    os << "}";
}

} // namespace retcon::trace
