/**
 * @file
 * Unit tests for the discrete-event kernel as one queue: a 1-shard
 * ShardedEventQueue. Cross-shard order, cancellation, bandwidth slips
 * and stealing are covered in test_sharded_queue.cpp.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/sharded_queue.hpp"

using namespace retcon;

TEST(EventKernel, SameCycleEventsFireInScheduleOrder)
{
    ShardedEventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(0, 5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventKernel, ClockAdvancesOnlyWhenEventsFire)
{
    ShardedEventQueue eq;
    eq.schedule(0, 100, [] {});
    EXPECT_EQ(eq.now(), 0u);
    eq.step();
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventKernel, EventsCanScheduleMoreEvents)
{
    ShardedEventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleAfter(0, 7, chain);
    };
    eq.schedule(0, 0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventKernel, ExecutedCountsFiredEventsOnly)
{
    ShardedEventQueue eq;
    EventHandle h = eq.schedule(0, 1, [] {});
    eq.schedule(0, 2, [] {});
    eq.cancel(h);
    eq.run();
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventKernel, StaleHandleDoesNotCancelTheSlotsNextEvent)
{
    ShardedEventQueue eq;
    bool fired = false;
    EventHandle first = eq.schedule(0, 1, [] {});
    eq.run();
    // The next event reuses the freed slot under a new generation.
    eq.schedule(0, 2, [&] { fired = true; });
    eq.cancel(first);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventKernelDeath, SchedulingIntoThePastPanics)
{
    ShardedEventQueue eq;
    eq.schedule(0, 50, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(0, 10, [] {}), "past");
}
