/**
 * @file
 * Unit tests for the discrete-event kernel as one queue: a 1-shard
 * ShardedEventQueue. Cross-shard order, cancellation, bandwidth slips
 * and stealing are covered in test_sharded_queue.cpp.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/sharded_queue.hpp"

using namespace retcon;

TEST(EventKernel, SameCycleWakesFireInWakeOrder)
{
    // Slot ids do not order wakes; the order they were woken in does.
    ShardedEventQueue eq({}, std::vector<unsigned>(16, 0));
    std::vector<int> woken, fired;
    for (int i = 0; i < 16; ++i)
        woken.push_back((i * 7) % 16);
    for (int s : woken)
        eq.wake(s, 5);
    for (int s; (s = eq.step()) >= 0;)
        fired.push_back(s);
    EXPECT_EQ(fired, woken);
}

TEST(EventKernel, ClockAdvancesOnlyWhenWakesFire)
{
    ShardedEventQueue eq({}, {0});
    eq.wake(0, 100);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.step(), 0);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventKernel, AFiredSlotCanWakeAgain)
{
    ShardedEventQueue eq({}, {0});
    int depth = 0;
    eq.wake(0, 0);
    while (eq.step() == 0)
        if (++depth < 5)
            eq.wake(0, 7);
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventKernel, ExecutedCountsFiredWakesOnly)
{
    ShardedEventQueue eq({}, {0, 0});
    eq.wake(0, 1);
    eq.wake(1, 2);
    eq.cancel(0);
    while (eq.step() >= 0) {
    }
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventKernelDeath, WakePastTheLastCyclePanics)
{
    // A wake delta is never negative; the one cycle it cannot reach is
    // the last one, ~0, past the end of the clock. The cycle before it
    // can still be woken and dispatched, also as a parked wake.
    constexpr Cycle kLast = ~Cycle(0) - 1;
    ShardedEventQueue eq({}, {0, 0});
    eq.wake(0, 50);
    eq.step();
    eq.wake(1, kLast - 50);
    eq.park(1, 0, 1);
    EXPECT_EQ(eq.step(), 1);
    EXPECT_EQ(eq.takeParked(1), 1u);
    EXPECT_EQ(eq.now(), kLast);
    eq.wake(0, 0);
    EXPECT_DEATH(eq.wake(1, 1), "end of time");
}

TEST(EventKernelDeath, WakingAPendingSlotPanics)
{
    // A core has at most one operation in flight: a second wake before
    // the first fires or is cancelled is a simulator bug.
    ShardedEventQueue eq({}, {0});
    eq.wake(0, 5);
    EXPECT_DEATH(eq.wake(0, 1), "woken twice");
}

TEST(EventKernelDeath, WakingAParkedSlotPanics)
{
    // A parked wake is still the slot's one pending wake, though it
    // sits on the parked list rather than in the tree.
    ShardedEventQueue eq({}, {0, 0});
    eq.wake(0, 5);
    eq.park(0, 25, 3);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_DEATH(eq.wake(0, 1), "woken twice");
}
