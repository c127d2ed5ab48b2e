#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/baton.hpp"
#include "sim/process.hpp"
#include "sim/schedule.hpp"

namespace scimpi::sim {
namespace {

TEST(Engine, EmptyRunCompletesAtTimeZero) {
    Engine eng;
    eng.run();
    EXPECT_EQ(eng.now(), 0);
    EXPECT_EQ(eng.events_dispatched(), 0u);
}

TEST(Engine, SingleProcessRunsToCompletion) {
    Engine eng;
    bool ran = false;
    eng.spawn("p0", [&](Process& p) {
        EXPECT_EQ(p.now(), 0);
        ran = true;
    });
    eng.run();
    EXPECT_TRUE(ran);
}

TEST(Engine, DelayAdvancesVirtualTime) {
    Engine eng;
    SimTime observed = -1;
    eng.spawn("p0", [&](Process& p) {
        p.delay(1500);
        observed = p.now();
    });
    eng.run();
    EXPECT_EQ(observed, 1500);
    EXPECT_EQ(eng.now(), 1500);
}

TEST(Engine, DelaysAccumulate) {
    Engine eng;
    eng.spawn("p0", [&](Process& p) {
        for (int i = 0; i < 10; ++i) p.delay(100);
        EXPECT_EQ(p.now(), 1000);
    });
    eng.run();
    EXPECT_EQ(eng.now(), 1000);
}

TEST(Engine, ProcessesInterleaveByTimestamp) {
    Engine eng;
    std::vector<std::string> order;
    eng.spawn("a", [&](Process& p) {
        order.push_back("a0");
        p.delay(200);
        order.push_back("a200");
    });
    eng.spawn("b", [&](Process& p) {
        order.push_back("b0");
        p.delay(100);
        order.push_back("b100");
        p.delay(200);
        order.push_back("b300");
    });
    eng.run();
    const std::vector<std::string> expected{"a0", "b0", "b100", "a200", "b300"};
    EXPECT_EQ(order, expected);
}

TEST(Engine, SameTimeEventsRunInScheduleOrder) {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
            p.delay(50);
            order.push_back(i);
        });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, YieldReschedulesBehindPeers) {
    Engine eng;
    std::vector<std::string> order;
    eng.spawn("a", [&](Process& p) {
        order.push_back("a-pre");
        p.yield();
        order.push_back("a-post");
    });
    eng.spawn("b", [&](Process&) { order.push_back("b"); });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a-pre", "b", "a-post"}));
}

TEST(Engine, BlockAndWakeTransfersControl) {
    Engine eng;
    std::vector<std::string> order;
    Process& sleeper = eng.spawn("sleeper", [&](Process& p) {
        order.push_back("sleeping");
        p.block();
        order.push_back("woken");
        EXPECT_EQ(p.now(), 400);
    });
    eng.spawn("waker", [&](Process& p) {
        p.delay(400);
        order.push_back("waking");
        p.engine().wake(sleeper);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"sleeping", "waking", "woken"}));
}

TEST(Engine, DeadlockIsDetectedAndNamed) {
    Engine eng;
    eng.spawn("stuck-proc", [](Process& p) { p.block(); });
    try {
        eng.run();
        FAIL() << "expected Panic";
    } catch (const Panic& e) {
        EXPECT_NE(std::string(e.what()).find("stuck-proc"), std::string::npos);
    }
}

TEST(Engine, ProcessExceptionPropagatesWithName) {
    Engine eng;
    eng.spawn("ok", [](Process& p) { p.delay(10); });
    eng.spawn("thrower", [](Process& p) {
        p.delay(5);
        throw std::runtime_error("boom");
    });
    try {
        eng.run();
        FAIL() << "expected Panic";
    } catch (const Panic& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("thrower"), std::string::npos);
        EXPECT_NE(what.find("boom"), std::string::npos);
    }
}

TEST(Engine, SpawnDuringRunStartsAtCurrentTime) {
    Engine eng;
    SimTime child_start = -1;
    eng.spawn("parent", [&](Process& p) {
        p.delay(300);
        p.engine().spawn("child", [&](Process& c) { child_start = c.now(); });
        p.delay(10);
    });
    eng.run();
    EXPECT_EQ(child_start, 300);
}

TEST(Engine, ManyProcessesAndEventsStayConsistent) {
    Engine eng;
    constexpr int kProcs = 32;
    constexpr int kSteps = 200;
    std::vector<SimTime> finish(kProcs, 0);
    for (int i = 0; i < kProcs; ++i)
        eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
            for (int s = 0; s < kSteps; ++s) p.delay(1 + (i % 7));
            finish[i] = p.now();
        });
    eng.run();
    for (int i = 0; i < kProcs; ++i)
        EXPECT_EQ(finish[i], static_cast<SimTime>(kSteps) * (1 + (i % 7)));
    EXPECT_GE(eng.events_dispatched(), static_cast<std::uint64_t>(kProcs) * kSteps);
}

TEST(Engine, DeterministicAcrossRuns) {
    auto run_once = [] {
        Engine eng;
        std::vector<int> order;
        for (int i = 0; i < 8; ++i)
            eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
                p.delay((i * 37) % 11);
                order.push_back(i);
                p.delay((i * 13) % 7);
                order.push_back(i + 100);
            });
        eng.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, DestructorUnwindsBlockedProcesses) {
    // No run() at all: spawned threads never started. And with run(): a
    // deadlocked engine must still be destructible after the panic.
    auto eng = std::make_unique<Engine>();
    eng->spawn("never-run", [](Process& p) { p.block(); });
    eng.reset();  // must not hang
    SUCCEED();
}

TEST(Engine, SpawnedButNeverRunEngineDestructsWithoutRunningBodies) {
    // Each process's thread exists from spawn(), parked until its first
    // dispatch; without run() the destructor must unwind all of them and
    // no body may start.
    std::atomic<int> bodies{0};
    {
        Engine eng;
        for (int i = 0; i < 8; ++i)
            eng.spawn("idle" + std::to_string(i), [&](Process& p) {
                ++bodies;
                p.delay(1);
            });
        EXPECT_EQ(eng.process_count(), 8u);
    }
    EXPECT_EQ(bodies.load(), 0);
}

TEST(Engine, ControllerExceptionOnProcessThreadReachesRunAfterUnwind) {
    // The controller throws at a dispatch decided on a process thread (the
    // process that suspends picks its successor). run() must rethrow it
    // with its own type, and only after every process stack has unwound.
    struct Diverged : std::runtime_error {
        Diverged() : std::runtime_error("replay diverged") {}
    };
    struct ThrowAfterStart : ScheduleController {
        std::thread::id thrower;
        std::size_t choose(const ChoicePoint& cp) override {
            if (cp.alts.front().t == 0) return 0;
            thrower = std::this_thread::get_id();
            throw Diverged();
        }
    };
    struct Unwound {
        int& count;
        ~Unwound() { ++count; }
    };
    ThrowAfterStart ctl;
    int unwound = 0;
    Engine eng;
    eng.set_schedule_controller(&ctl);
    for (const char* name : {"a", "b"})
        eng.spawn(name, [&](Process& p) {
            const Unwound guard{unwound};
            p.delay(100);  // a and b become co-enabled at t=100
            ADD_FAILURE() << "body resumed past the failed dispatch";
        });
    try {
        eng.run();
        FAIL() << "expected Diverged";
    } catch (const Diverged&) {
        EXPECT_EQ(unwound, 2);
    }
    EXPECT_NE(ctl.thrower, std::thread::id{});
    EXPECT_NE(ctl.thrower, std::this_thread::get_id());
}

TEST(Engine, LoneProcessDelayLoopKeepsExactClock) {
    // With one process every dispatch is to itself: the hand-off continues
    // on the same thread, and time and event counts stay exact.
    Engine eng;
    const auto tid = std::this_thread::get_id();
    eng.spawn("solo", [&](Process& p) {
        const auto mine = std::this_thread::get_id();
        EXPECT_NE(mine, tid);
        for (int i = 1; i <= 1000; ++i) {
            p.delay(7);
            ASSERT_EQ(p.now(), 7 * i);
            ASSERT_EQ(std::this_thread::get_id(), mine);
        }
    });
    eng.run();
    EXPECT_EQ(eng.now(), 7000);
    EXPECT_EQ(eng.events_dispatched(), 1001u);
}

TEST(Engine, DelayFromForeignThreadPanics) {
    Engine eng;
    Process* other = nullptr;
    eng.spawn("a", [&](Process& p) {
        other = &p;
        p.delay(100);
    });
    eng.spawn("b", [&](Process&) {
        ASSERT_NE(other, nullptr);
        EXPECT_THROW(other->delay(1), Panic);
    });
    eng.run();
}

TEST(Baton, ReleaseBeforeAcquireDoesNotBlock) {
    Baton b;
    b.release();
    b.acquire();  // would hang if the release were lost
    SUCCEED();
}

TEST(Baton, PingPongBetweenThreadsKeepsStrictAlternation) {
    Baton to_b, to_a;
    int turns = 0;  // only ever touched by the thread holding the token
    std::thread other([&] {
        for (int i = 0; i < 1000; ++i) {
            to_b.acquire();
            EXPECT_EQ(turns % 2, 1);
            ++turns;
            to_a.release();
        }
    });
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(turns % 2, 0);
        ++turns;
        to_b.release();
        to_a.acquire();
    }
    other.join();
    EXPECT_EQ(turns, 2000);
}

}  // namespace
}  // namespace scimpi::sim
