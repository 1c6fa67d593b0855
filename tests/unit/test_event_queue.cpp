/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

using namespace retcon;

TEST(EventQueue, StartsAtCycleZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleEventsFireInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ClockAdvancesOnlyWhenEventsFire)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    EXPECT_EQ(eq.now(), 0u);
    eq.step();
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, CancelledEventsDoNotFire)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h = eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.cancel(h);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue eq;
    EventHandle h = eq.schedule(10, [] {});
    eq.cancel(h);
    eq.cancel(h);
    eq.cancel(EventHandle{});
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    EventHandle a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleAfter(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventQueue, RunStopsAtMaxCycles)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(1000, [&] { ++fired; });
    eq.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ExecutedCountsFiredEventsOnly)
{
    EventQueue eq;
    EventHandle h = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.cancel(h);
    eq.run();
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, CancellingAnEventThatAlreadyRanIsANoOp)
{
    // Regression: a stale cancel used to decrement the live count, so
    // pending() underflowed and empty() never became true again.
    EventQueue eq;
    int fired = 0;
    EventHandle first = eq.schedule(1, [&] { ++fired; });
    eq.schedule(5, [&] { ++fired; });
    eq.step();
    eq.cancel(first);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StaleHandleDoesNotCancelTheSlotsNextEvent)
{
    EventQueue eq;
    bool fired = false;
    EventHandle first = eq.schedule(1, [] {});
    eq.run();
    // The next event reuses the freed slot under a new generation.
    eq.schedule(2, [&] { fired = true; });
    eq.cancel(first);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, [] {}), "past");
}
