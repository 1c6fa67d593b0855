/** @file Unit tests for the RETCON hardware structures (Figure 5). */

#include <gtest/gtest.h>

#include "retcon/constraint_buffer.hpp"
#include "retcon/ivb.hpp"
#include "retcon/predictor.hpp"
#include "retcon/ssb.hpp"
#include "retcon/symbolic.hpp"

using namespace retcon;
using namespace retcon::rtc;

// ---------------------------------------------------------------------
// SymTag / evalSym
// ---------------------------------------------------------------------

TEST(SymbolicValue, EvalAppliesDelta)
{
    SymTag t{0x1000, 5, 8};
    EXPECT_EQ(evalSym(t, 10), 15u);
    t.delta = -3;
    EXPECT_EQ(evalSym(t, 10), 7u);
}

TEST(SymbolicValue, EvalWrapsLikeHardware)
{
    SymTag t{0x1000, 1, 8};
    EXPECT_EQ(evalSym(t, ~Word(0)), 0u);
}

TEST(SymbolicValue, SubWordEvalMasks)
{
    SymTag t{0x1000, 1, 4};
    EXPECT_EQ(evalSym(t, 0xffffffffull), 0u);
    SymTag t2{0x1000, 0, 2};
    EXPECT_EQ(evalSym(t2, 0x12345678ull), 0x5678u);
}

// ---------------------------------------------------------------------
// InitialValueBuffer
// ---------------------------------------------------------------------

TEST(Ivb, AllocateAndFind)
{
    InitialValueBuffer ivb(4);
    std::array<Word, kWordsPerBlock> words{1, 2, 3, 4, 5, 6, 7, 8};
    IvbEntry *e = ivb.allocate(0x1000, words);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->initWords[2], 3u);
    EXPECT_EQ(e->curWords[2], 3u);
    EXPECT_EQ(ivb.find(0x1000), &ivb.entries()[0]);
    EXPECT_EQ(ivb.find(0x2000), nullptr);
}

TEST(Ivb, CapacityLimitReturnsNull)
{
    InitialValueBuffer ivb(2);
    std::array<Word, kWordsPerBlock> words{};
    EXPECT_NE(ivb.allocate(0x1000, words), nullptr);
    EXPECT_NE(ivb.allocate(0x2000, words), nullptr);
    EXPECT_TRUE(ivb.full());
    EXPECT_EQ(ivb.allocate(0x3000, words), nullptr);
}

TEST(Ivb, LostCountTracksStolenBlocks)
{
    InitialValueBuffer ivb(4);
    std::array<Word, kWordsPerBlock> words{};
    ivb.allocate(0x1000, words);
    ivb.allocate(0x2000, words);
    EXPECT_EQ(ivb.lostCount(), 0u);
    ivb.find(0x1000)->lost = true;
    EXPECT_EQ(ivb.lostCount(), 1u);
}

TEST(Ivb, EntriesKeepInsertionOrder)
{
    InitialValueBuffer ivb(4);
    std::array<Word, kWordsPerBlock> words{};
    ivb.allocate(0x3000, words);
    ivb.allocate(0x1000, words);
    ivb.allocate(0x2000, words);
    EXPECT_EQ(ivb.entries()[0].block, 0x3000u);
    EXPECT_EQ(ivb.entries()[1].block, 0x1000u);
    EXPECT_EQ(ivb.entries()[2].block, 0x2000u);
}

// ---------------------------------------------------------------------
// ConstraintBuffer
// ---------------------------------------------------------------------

TEST(ConstraintBuffer, RecordsAndChecks)
{
    ConstraintBuffer cb(4);
    EXPECT_EQ(cb.record(0x1000, CmpOp::GT, 4),
              ConstraintBuffer::Record::Ok);
    EXPECT_TRUE(cb.satisfied(0x1000, 5));
    EXPECT_FALSE(cb.satisfied(0x1000, 4));
    EXPECT_TRUE(cb.satisfied(0x9999, -100)); // Unconstrained root.
}

TEST(ConstraintBuffer, IntersectsConstraintsOnSameRoot)
{
    ConstraintBuffer cb(4);
    cb.record(0x1000, CmpOp::GT, 0);
    cb.record(0x1000, CmpOp::LT, 7);
    EXPECT_TRUE(cb.satisfied(0x1000, 3));
    EXPECT_FALSE(cb.satisfied(0x1000, 0));
    EXPECT_FALSE(cb.satisfied(0x1000, 7));
    EXPECT_EQ(cb.size(), 1u);
}

TEST(ConstraintBuffer, FullForcesFallback)
{
    ConstraintBuffer cb(1);
    EXPECT_EQ(cb.record(0x1000, CmpOp::GT, 0),
              ConstraintBuffer::Record::Ok);
    EXPECT_EQ(cb.record(0x2000, CmpOp::GT, 0),
              ConstraintBuffer::Record::Full);
    // Existing roots still accept refinements.
    EXPECT_EQ(cb.record(0x1000, CmpOp::LT, 9),
              ConstraintBuffer::Record::Ok);
}

TEST(ConstraintBuffer, InteriorNeReportsInexact)
{
    ConstraintBuffer cb(4);
    cb.record(0x1000, CmpOp::GE, 0);
    cb.record(0x1000, CmpOp::LE, 10);
    EXPECT_EQ(cb.record(0x1000, CmpOp::NE, 5),
              ConstraintBuffer::Record::Inexact);
    // The interval must be unchanged after the refusal.
    EXPECT_TRUE(cb.satisfied(0x1000, 5));
}

// ---------------------------------------------------------------------
// SymbolicStoreBuffer
// ---------------------------------------------------------------------

TEST(Ssb, PutFindInvalidate)
{
    SymbolicStoreBuffer ssb(4);
    EXPECT_EQ(ssb.put(0x1000, 42, SymTag{0x2000, 1, 8}, 8),
              SymbolicStoreBuffer::Put::Inserted);
    SsbEntry *e = ssb.find(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->concrete, 42u);
    ASSERT_TRUE(e->sym.has_value());
    EXPECT_EQ(e->sym->root, 0x2000u);
    ssb.invalidate(0x1000);
    EXPECT_EQ(ssb.find(0x1000), nullptr);
}

TEST(Ssb, OverwriteReplacesInPlace)
{
    SymbolicStoreBuffer ssb(2);
    ssb.put(0x1000, 1, std::nullopt, 8);
    ssb.put(0x1000, 2, std::nullopt, 8);
    EXPECT_EQ(ssb.size(), 1u);
    EXPECT_EQ(ssb.find(0x1000)->concrete, 2u);
}

TEST(Ssb, FullRejectsNewEntries)
{
    SymbolicStoreBuffer ssb(1);
    EXPECT_EQ(ssb.put(0x1000, 1, std::nullopt, 8),
              SymbolicStoreBuffer::Put::Inserted);
    EXPECT_EQ(ssb.put(0x2000, 2, std::nullopt, 8),
              SymbolicStoreBuffer::Put::Full);
    // Overwrites of existing entries still succeed.
    EXPECT_EQ(ssb.put(0x1000, 3, std::nullopt, 8),
              SymbolicStoreBuffer::Put::Updated);
}

TEST(Ssb, DrainOrderIsInsertionOrder)
{
    SymbolicStoreBuffer ssb(4);
    ssb.put(0x3000, 1, std::nullopt, 8);
    ssb.put(0x1000, 2, std::nullopt, 8);
    EXPECT_EQ(ssb.entries()[0].word, 0x3000u);
    EXPECT_EQ(ssb.entries()[1].word, 0x1000u);
}

// ---------------------------------------------------------------------
// ConflictPredictor
// ---------------------------------------------------------------------

TEST(Predictor, UntrainedBlocksNotTracked)
{
    ConflictPredictor p;
    EXPECT_FALSE(p.shouldTrack(0x1000));
}

TEST(Predictor, TrainsUpOnTheFirstConflict)
{
    static_assert(ConflictPredictor::kTrainUpThreshold == 1);
    ConflictPredictor p;
    p.observeConflict(0x1000);
    EXPECT_TRUE(p.shouldTrack(0x1000));
}

TEST(Predictor, ViolationTrainsDownFor100Conflicts)
{
    ConflictPredictor p(ConflictPredictor::Config{100});
    p.observeConflict(0x1000);
    ASSERT_TRUE(p.shouldTrack(0x1000));
    p.observeViolation(0x1000);
    EXPECT_FALSE(p.shouldTrack(0x1000));
    for (int i = 0; i < 99; ++i)
        p.observeConflict(0x1000);
    EXPECT_FALSE(p.shouldTrack(0x1000));
    p.observeConflict(0x1000); // The 100th observation re-arms.
    EXPECT_TRUE(p.shouldTrack(0x1000));
    EXPECT_EQ(p.totalViolations(), 1u);
}

TEST(Predictor, BlocksAreIndependent)
{
    ConflictPredictor p(ConflictPredictor::Config{100});
    p.observeConflict(0x1000);
    p.observeViolation(0x1000);
    p.observeConflict(0x2000);
    EXPECT_FALSE(p.shouldTrack(0x1000));
    EXPECT_TRUE(p.shouldTrack(0x2000));
}
