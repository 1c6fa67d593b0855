#include "api/whatif.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>

namespace retcon::api {

namespace {

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return errno == 0 && end == s.c_str() + s.size();
}

bool
parseBool(const std::string &s, bool &out)
{
    if (s == "1" || s == "true" || s == "on") {
        out = true;
        return true;
    }
    if (s == "0" || s == "false" || s == "off") {
        out = false;
        return true;
    }
    return false;
}

bool
tmModeFromName(const std::string &s, htm::TMMode &out)
{
    for (int m = 0; m <= static_cast<int>(htm::TMMode::DATM); ++m) {
        auto mode = static_cast<htm::TMMode>(m);
        if (s == htm::tmModeName(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

} // namespace

const char *
reachClassName(ReachClass c)
{
    switch (c) {
      case ReachClass::Nothing:    return "nothing";
      case ReachClass::Conflicts:  return "conflicts";
      case ReachClass::Repairs:    return "repairs";
      case ReachClass::Forwards:   return "forwards";
      case ReachClass::Everything: return "everything";
    }
    return "?";
}

ReachClass
classifyKnob(const std::string &knob)
{
    if (knob == "shards" || knob == "memBanks")
        return ReachClass::Nothing;
    if (knob == "backoff" || knob == "contentionSched" ||
        knob == "commitTokenArbitration" ||
        knob == "memBankOccupancy" || knob == "shardBandwidth")
        return ReachClass::Conflicts;
    if (knob == "faultInjectRepairXor")
        return ReachClass::Repairs;
    if (knob == "faultInjectForwardXor")
        return ReachClass::Forwards;
    // seed, workload, nthreads, scale, tm.mode, partitioning — and,
    // deliberately, anything unknown: never under-estimate reach.
    return ReachClass::Everything;
}

bool
applyKnob(RunConfig &cfg, const std::string &knob,
          const std::string &value)
{
    std::uint64_t u = 0;
    double d = 0.0;
    bool b = false;

    if (knob == "seed") {
        if (!parseU64(value, u))
            return false;
        cfg.seed = u;
    } else if (knob == "workload") {
        if (value.empty())
            return false;
        cfg.workload = value;
    } else if (knob == "nthreads") {
        if (!parseU64(value, u) || u == 0 || u > 64)
            return false;
        cfg.nthreads = static_cast<unsigned>(u);
    } else if (knob == "scale") {
        if (!parseDouble(value, d) || d <= 0.0)
            return false;
        cfg.scale = d;
    } else if (knob == "servicePartitions") {
        if (!parseU64(value, u) || u == 0)
            return false;
        cfg.servicePartitions = static_cast<unsigned>(u);
    } else if (knob == "clusters") {
        if (!parseU64(value, u) || u == 0)
            return false;
        cfg.clusters = static_cast<unsigned>(u);
    } else if (knob == "crossClusterFraction") {
        if (!parseDouble(value, d) || d < 0.0 || d > 1.0)
            return false;
        cfg.crossClusterFraction = d;
    } else if (knob == "tm.mode") {
        htm::TMMode mode;
        if (!tmModeFromName(value, mode))
            return false;
        cfg.tm.mode = mode;
    } else if (knob == "backoff") {
        // backoffPolicyFromName panics on unknown names; gate it.
        if (value != "none" && value != "linear" && value != "exp" &&
            value != "prop")
            return false;
        cfg.tm.backoff.policy = htm::backoffPolicyFromName(value.c_str());
    } else if (knob == "contentionSched") {
        if (!parseBool(value, b))
            return false;
        cfg.contentionSched = b;
    } else if (knob == "commitTokenArbitration") {
        if (!parseBool(value, b))
            return false;
        cfg.tm.commitTokenArbitration = b;
    } else if (knob == "memBankOccupancy") {
        if (!parseU64(value, u))
            return false;
        cfg.memBankOccupancy = u;
    } else if (knob == "shardBandwidth") {
        if (!parseU64(value, u))
            return false;
        cfg.shardBandwidth = static_cast<unsigned>(u);
    } else if (knob == "faultInjectRepairXor") {
        if (!parseU64(value, u))
            return false;
        cfg.tm.faultInjectRepairXor = u;
    } else if (knob == "faultInjectForwardXor") {
        if (!parseU64(value, u))
            return false;
        cfg.tm.faultInjectForwardXor = u;
    } else if (knob == "shards") {
        if (!parseU64(value, u) || u == 0)
            return false;
        cfg.shards = static_cast<unsigned>(u);
    } else if (knob == "memBanks") {
        if (!parseU64(value, u) || u == 0 || u > 64)
            return false;
        cfg.memBanks = static_cast<unsigned>(u);
    } else {
        return false;
    }
    return true;
}

WhatIfResult
runWhatIf(const RunConfig &base, const std::vector<KnobChange> &changes)
{
    WhatIfResult out;

    // Both runs record with identical trace settings; captureInto
    // (set below) holds each run's complete stream.
    RunConfig rec = base;
    rec.trace.enabled = true;

    RunConfig var = rec;
    out.reach = ReachClass::Nothing;
    for (const KnobChange &c : changes) {
        if (!applyKnob(var, c.knob, c.value)) {
            out.error = "bad knob change: " + c.knob + "=" + c.value;
            return out;
        }
        ReachClass rc = classifyKnob(c.knob);
        if (static_cast<int>(rc) > static_cast<int>(out.reach))
            out.reach = rc;
    }

    rec.trace.captureInto = &out.recorded;
    out.baseResult = runOnce(rec);
    var.trace.captureInto = &out.variant;
    out.variantResult = runOnce(var);

    // Reach frontier of the change set, from the recorded graph.
    trace::DepGraph graph = trace::buildDepGraph(out.recorded);
    switch (out.reach) {
      case ReachClass::Nothing:
        out.firstReachableSeq = trace::kSeqUnreached;
        break;
      case ReachClass::Conflicts:
        out.firstReachableSeq = graph.firstContentionSeq;
        break;
      case ReachClass::Repairs:
        out.firstReachableSeq = graph.firstRepairSeq;
        break;
      case ReachClass::Forwards:
        out.firstReachableSeq = graph.firstForwardSeq;
        break;
      case ReachClass::Everything:
        out.firstReachableSeq = graph.firstSeq;
        break;
    }

    // Splice: recorded prefix verbatim + variant suffix. The prefix
    // proof checks the variant actually reproduced the prefix — if a
    // knob were misclassified, this is where it shows.
    std::vector<trace::Record> prefix =
        trace::reusablePrefix(out.recorded, out.firstReachableSeq);
    out.prefixRecords = prefix.size();
    out.prefixReuse =
        out.recorded.empty()
            ? 1.0
            : static_cast<double>(prefix.size()) /
                  static_cast<double>(out.recorded.size());
    out.prefixProofHeld = prefix.size() <= out.variant.size();
    for (std::size_t i = 0; out.prefixProofHeld && i < prefix.size();
         ++i)
        out.prefixProofHeld =
            trace::recordsIdentical(prefix[i], out.variant[i]);

    out.reconstructed = prefix;
    out.reconstructed.insert(out.reconstructed.end(),
                             out.variant.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(prefix.size(),
                                          out.variant.size())),
                             out.variant.end());

    // Divergence: first record where the streams differ.
    std::size_t n = std::min(out.recorded.size(), out.variant.size());
    std::size_t firstDiff = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (!trace::recordsIdentical(out.recorded[i], out.variant[i])) {
            firstDiff = i;
            break;
        }
    }
    out.bitIdentical = firstDiff == n &&
                       out.recorded.size() == out.variant.size();
    out.diverged = !out.bitIdentical;
    if (out.diverged) {
        if (firstDiff < out.recorded.size())
            out.firstDivergentSeq = out.recorded[firstDiff].seq;
        else if (firstDiff < out.variant.size())
            out.firstDivergentSeq = out.variant[firstDiff].seq;
        // (one stream is a strict prefix of the other otherwise —
        // divergence starts past the shorter stream's end)
        else if (!out.recorded.empty())
            out.firstDivergentSeq = out.recorded.back().seq + 1;
    }

    // Per-block churn: which addresses the change actually moved.
    std::map<Addr, std::int64_t> delta;
    for (const trace::Record &r : out.recorded)
        --delta[blockAddr(r.addr)];
    for (const trace::Record &r : out.variant)
        ++delta[blockAddr(r.addr)];
    for (const auto &[block, d] : delta)
        if (d != 0)
            out.blockDeltas.emplace_back(block, d);
    std::sort(out.blockDeltas.begin(), out.blockDeltas.end(),
              [](const auto &x, const auto &y) {
                  auto ax = x.second < 0 ? -x.second : x.second;
                  auto ay = y.second < 0 ? -y.second : y.second;
                  return ax != ay ? ax > ay : x.first < y.first;
              });

    // The spliced stream must be a coherent history, not just a
    // concatenation: reenact it offline.
    out.reenact = query::replayValidate(out.reconstructed);

    out.ok = true;
    return out;
}

} // namespace retcon::api
