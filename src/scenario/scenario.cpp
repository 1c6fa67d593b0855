/**
 * @file
 * The scenario mode table. Each row's setup hook derives its Plan
 * deterministically from the Env — window offsets and victim picks
 * come from a seed hash, sizes from the workload scale. The plan alone
 * drives the run (scenario::Runtime::rateMult, stallWait).
 *
 * Adding a scenario = adding one row here (docs/scenarios.md walks
 * through it). Names are part of the CLI surface (`sweep_main
 * --scenario NAME`) and the bench JSON schema, so renames are
 * breaking changes.
 */

#include "scenario/scenario.hpp"

namespace retcon::scenario {

namespace {

/** splitmix64: decorrelate the seed into per-knob draws. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ---- Setup hooks -----------------------------------------------------

void
setupSteady(Plan &, const Env &)
{
    // The control row: the closed-loop stationary workload, run
    // through the scenario machinery so the grid has a baseline.
}

void
setupPoisson(Plan &p, const Env &env)
{
    p.arrival.kind = ArrivalKind::Poisson;
    // Near the service rate: backlogs form and drain, few drops.
    p.arrival.meanGap = 220.0 + mix(env.seed) % 40;
    p.arrival.queueBound = 24;
}

void
setupBursty(Plan &p, const Env &env)
{
    p.arrival.kind = ArrivalKind::Bursty;
    // Bursts run ~3.3x the sustainable rate (1/onFraction), so the
    // bound engages and tail-drops are expected — the burstiest
    // registered shape, used for the audit negative control.
    p.arrival.meanGap = 240.0;
    p.arrival.period = 6000 + mix(env.seed ^ 1) % 1000;
    p.arrival.onFraction = 0.3;
    p.arrival.offRate = 0.1;
    p.arrival.queueBound = 16;
}

void
setupDiurnal(Plan &p, const Env &env)
{
    p.arrival.kind = ArrivalKind::Diurnal;
    p.arrival.meanGap = 200.0;
    p.arrival.period = 20000 + mix(env.seed ^ 2) % 4000;
    p.arrival.troughRate = 0.2;
    p.arrival.queueBound = 32;
}

void
setupMixRotate(Plan &p, const Env &)
{
    p.shift.phases = 4;
    p.shift.rotateMix = true;
}

void
setupHotsetMigrate(Plan &p, const Env &)
{
    p.shift.phases = 4;
    p.shift.migrateHotset = true;
}

void
setupShardStall(Plan &p, const Env &env)
{
    FaultConfig &f = p.fault;
    f.coreStall = true;
    f.stallGroupMod = 4;
    f.stallVictim =
        static_cast<unsigned>(mix(env.seed ^ 3) % f.stallGroupMod);
    f.stallPeriod = 8000;
    f.stallLen = 1500;
    f.stallOffset = mix(env.seed ^ 4) % f.stallPeriod;
}

void
setupBankSlow(Plan &p, const Env &env)
{
    FaultConfig &f = p.fault;
    f.bankSlow = true;
    f.bankSliceMod = 16;
    f.bankSliceVictim =
        static_cast<unsigned>(mix(env.seed ^ 5) % f.bankSliceMod);
    f.bankPeriod = 6000;
    f.bankLen = 2400;
    f.bankOffset = mix(env.seed ^ 6) % f.bankPeriod;
    f.bankExtra = 40;
}

void
setupLinkDegrade(Plan &p, const Env &env)
{
    // Open-loop base so the scenario is interesting even where the
    // fault is inert (clusters == 1 has no interconnect).
    setupPoisson(p, env);
    FaultConfig &f = p.fault;
    f.linkDegrade = true;
    f.linkSelector = mix(env.seed ^ 7);
    f.linkPeriod = 7000;
    f.linkLen = 2800;
    f.linkOffset = mix(env.seed ^ 8) % f.linkPeriod;
    f.linkLatencyMult = 4;
}

void
setupStorm(Plan &p, const Env &env)
{
    // Composition check: the burstiest arrivals, a rotating mix, and
    // a stalling shard at once — the families are orthogonal by
    // construction and this row keeps them that way.
    setupBursty(p, env);
    p.shift.phases = 4;
    p.shift.rotateMix = true;
    setupShardStall(p, env);
}

const std::vector<Scenario> &
table()
{
    static const std::vector<Scenario> rows = {
        {"steady-closed",
         "closed-loop stationary baseline (the pre-scenario workload)",
         setupSteady},
        {"poisson-open",
         "open loop, exponential inter-arrival gaps near service rate",
         setupPoisson},
        {"bursty-onoff",
         "open loop, on/off duty cycle; bursts overload the backlog "
         "bound (tail drops expected)",
         setupBursty},
        {"diurnal-ramp",
         "open loop, slow triangle ramp trough -> peak -> trough",
         setupDiurnal},
        {"mix-rotate",
         "request-class mix rotates one class per quarter, phase "
         "boundaries annotated",
         setupMixRotate},
        {"hotset-migrate",
         "Zipfian hotset shifts a quarter of the key space per "
         "quarter, phase boundaries annotated",
         setupHotsetMigrate},
        {"shard-stall",
         "one shard slot's cores freeze for periodic windows",
         setupShardStall},
        {"bank-slow",
         "one directory bank's address slice runs at k-times "
         "occupancy in periodic windows",
         setupBankSlow},
        {"link-degrade",
         "one interconnect link at 4x hop latency in periodic "
         "windows, over Poisson arrivals (link inert at 1 cluster)",
         setupLinkDegrade},
        {"storm",
         "bursty arrivals + rotating mix + stalling shard composed",
         setupStorm},
    };
    return rows;
}

} // namespace

const std::vector<Scenario> &
registry()
{
    return table();
}

const Scenario *
scenarioByName(const std::string &name)
{
    for (const Scenario &s : registry())
        if (name == s.name)
            return &s;
    return nullptr;
}

} // namespace retcon::scenario
