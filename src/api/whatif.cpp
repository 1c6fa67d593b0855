#include "api/whatif.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>

#include "query/index.hpp"

namespace retcon::api {

namespace {

/** Parse all of @p s into @p out if it lies in [lo, hi]. A sign on a
 *  count or trailing garbage fails; on failure @p out is untouched. */
template <class T>
bool
setIn(const std::string &s, T &out,
      T lo = std::numeric_limits<T>::lowest(),
      T hi = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || p != end || s.empty() || !(v >= lo && v <= hi))
        return false;
    out = v;
    return true;
}

bool
setBool(const std::string &s, bool &out)
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

/** One knob-table row: the knob's reach and how to apply a value. */
struct Knob {
    const char *name;
    ReachClass reach;
    bool (*apply)(RunConfig &cfg, const std::string &value);
};

using C = RunConfig &;
using V = const std::string &;
constexpr ReachClass Everything = ReachClass::Everything;
constexpr ReachClass Conflicts = ReachClass::Conflicts;

const Knob kKnobs[] = {
    {"seed", Everything, [](C c, V v) { return setIn(v, c.seed); }},
    {"workload", Everything,
     [](C c, V v) {
         if (v.empty())
             return false;
         c.workload = v;
         return true;
     }},
    {"nthreads", Everything,
     [](C c, V v) { return setIn(v, c.nthreads, 1u, 64u); }},
    // Positive and finite.
    {"scale", Everything,
     [](C c, V v) {
         return setIn(v, c.scale, std::numeric_limits<double>::min());
     }},
    {"servicePartitions", Everything,
     [](C c, V v) { return setIn(v, c.servicePartitions, 1u); }},
    {"clusters", Everything, [](C c, V v) { return setIn(v, c.clusters, 1u); }},
    {"crossClusterFraction", Everything,
     [](C c, V v) { return setIn(v, c.crossClusterFraction, 0.0, 1.0); }},
    {"tm.mode", Everything,
     [](C c, V v) { return tmModeFromName(v, c.tm.mode); }},
    {"backoff", Conflicts,
     [](C c, V v) {
         return htm::backoffPolicyFromName(v.c_str(), c.tm.backoff.policy);
     }},
    {"contentionSched", Conflicts,
     [](C c, V v) { return setBool(v, c.contentionSched); }},
    {"commitTokenArbitration", Conflicts,
     [](C c, V v) { return setBool(v, c.tm.commitTokenArbitration); }},
    {"memBankOccupancy", Conflicts,
     [](C c, V v) { return setIn(v, c.memBankOccupancy); }},
    {"shardBandwidth", Conflicts,
     [](C c, V v) { return setIn(v, c.shardBandwidth); }},
    {"faultInjectRepairXor", ReachClass::Repairs,
     [](C c, V v) { return setIn(v, c.tm.faultInjectRepairXor); }},
    {"faultInjectForwardXor", ReachClass::Forwards,
     [](C c, V v) { return setIn(v, c.tm.faultInjectForwardXor); }},
    {"shards", ReachClass::Nothing,
     [](C c, V v) { return setIn(v, c.shards, 1u); }},
    {"memBanks", ReachClass::Nothing,
     [](C c, V v) { return setIn(v, c.memBanks, 1u, 64u); }},
};

const Knob *
knobByName(const std::string &name)
{
    for (const Knob &k : kKnobs)
        if (name == k.name)
            return &k;
    return nullptr;
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
    // Unknown knobs reach everything: never under-estimate reach.
    const Knob *k = knobByName(knob);
    return k ? k->reach : ReachClass::Everything;
}

bool
applyKnob(RunConfig &cfg, const std::string &knob,
          const std::string &value)
{
    const Knob *k = knobByName(knob);
    return k && k->apply(cfg, value);
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

    for (const RunConfig *cfg : {&rec, &var}) {
        std::string bad = sizeError(*cfg);
        if (!bad.empty()) {
            out.error = (cfg == &rec ? "base run: " : "variant: ") + bad;
            return out;
        }
    }

    rec.trace.captureInto = &out.recorded;
    out.baseResult = runOnce(rec);
    var.trace.captureInto = &out.variant;
    out.variantResult = runOnce(var);

    // First record the change set could reach, from the recording.
    const query::ReachSeqs reachSeqs =
        query::TraceIndex(out.recorded).reach();
    switch (out.reach) {
      case ReachClass::Nothing:
        out.firstReachableSeq = trace::kSeqUnreached;
        break;
      case ReachClass::Conflicts:
        out.firstReachableSeq = reachSeqs.contention;
        break;
      case ReachClass::Repairs:
        out.firstReachableSeq = reachSeqs.repair;
        break;
      case ReachClass::Forwards:
        out.firstReachableSeq = reachSeqs.forward;
        break;
      case ReachClass::Everything:
        out.firstReachableSeq = reachSeqs.first;
        break;
    }

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
    // Past the shorter stream's end, the longer one's next record.
    if (out.diverged)
        out.firstDivergentSeq = firstDiff < out.recorded.size()
                                    ? out.recorded[firstDiff].seq
                                    : out.variant[firstDiff].seq;
    // Seqs ascend, so "the first difference is at or after the first
    // reachable record" is "every record before it is unchanged".
    out.reachHeld =
        !out.diverged || out.firstDivergentSeq >= out.firstReachableSeq;

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

    // The variant must be a coherent history: reenact it offline.
    out.reenact = query::replayValidate(out.variant);

    out.ok = true;
    return out;
}

} // namespace retcon::api
