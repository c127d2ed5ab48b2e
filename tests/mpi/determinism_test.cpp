// Determinism pin: three fixed MPI programs must keep their exact simulated
// schedule. Each run is summarized by the simulated end time, the number of
// engine dispatches, and Engine::dispatch_digest() — a running hash over
// (time, process id) of every dispatch, so any reordering of events shows
// even when the totals happen to match. The expected values were recorded
// before the engine's process hand-off was rewritten; a change to them must
// be explained by a change to the simulated model, never by host mechanics.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"

namespace scimpi::mpi {
namespace {

struct Pin {
    SimTime sim_time_ns;
    std::uint64_t events;
    std::uint64_t digest;
};

Pin summarize(Cluster& cluster) {
    return Pin{cluster.engine().now(), cluster.engine().events_dispatched(),
               cluster.engine().dispatch_digest()};
}

void expect_pin(const Pin& got, const Pin& want) {
    EXPECT_EQ(got.sim_time_ns, want.sim_time_ns);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.digest, want.digest) << std::hex << "digest 0x" << got.digest;
}

TEST(DeterminismPin, FourRankRing) {
    ClusterOptions opt;
    opt.nodes = 4;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) {
        const int n = comm.size();
        const int right = (comm.rank() + 1) % n;
        const int left = (comm.rank() + n - 1) % n;
        for (const int count : {16, 512, 8192}) {
            std::vector<double> out(static_cast<std::size_t>(count), comm.rank() + 0.5);
            std::vector<double> in(out.size(), -1.0);
            for (int step = 0; step < 3; ++step)
                ASSERT_TRUE(comm.sendrecv(out.data(), count, Datatype::float64(), right, step,
                                          in.data(), count, Datatype::float64(), left, step)
                                .is_ok());
            EXPECT_EQ(in.back(), left + 0.5);
        }
        double sum = 0;
        const double mine = comm.rank();
        ASSERT_TRUE(comm.allreduce_sum(&mine, &sum, 1).is_ok());
        EXPECT_EQ(sum, n * (n - 1) / 2.0);
    });
    expect_pin(summarize(cluster), Pin{1634389, 448, 0x844526548ae94a33ull});
}

TEST(DeterminismPin, CollectiveTour) {
    ClusterOptions opt;
    opt.nodes = 6;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) {
        const int rank = comm.rank();
        const int n = comm.size();
        comm.barrier();
        for (const std::size_t bytes : {4_KiB, 16_KiB, 256_KiB}) {
            std::vector<double> data(bytes / sizeof(double), -1.0);
            if (rank == 2) std::iota(data.begin(), data.end(), 7.0);
            ASSERT_TRUE(
                comm.bcast(data.data(), static_cast<int>(data.size()), Datatype::float64(), 2)
                    .is_ok());
            EXPECT_EQ(data.back(), 7.0 + static_cast<double>(data.size()) - 1.0);
        }
        {
            std::vector<double> in(32_KiB / sizeof(double), rank + 1.0);
            std::vector<double> out(in.size(), 0.0);
            ASSERT_TRUE(comm.reduce_sum(in.data(), out.data(), static_cast<int>(in.size()), 0)
                            .is_ok());
            if (rank == 0) {
                EXPECT_EQ(out.front(), n * (n + 1) / 2.0);
            }
        }
        for (const std::size_t bytes : {1_KiB, 32_KiB, 256_KiB}) {
            std::vector<double> in(bytes / sizeof(double), rank + 1.0);
            std::vector<double> out(in.size(), 0.0);
            ASSERT_TRUE(
                comm.allreduce_sum(in.data(), out.data(), static_cast<int>(in.size())).is_ok());
            EXPECT_EQ(out.back(), n * (n + 1) / 2.0);
        }
        std::vector<int> mine(64, rank);
        std::vector<int> all(mine.size() * static_cast<std::size_t>(n), -1);
        ASSERT_TRUE(comm.allgather(mine.data(), mine.size() * sizeof(int), all.data()).is_ok());
        EXPECT_EQ(all.back(), n - 1);
    });
    expect_pin(summarize(cluster), Pin{8516170, 3267, 0x545766ec540864b7ull});
}

TEST(DeterminismPin, RaceDemoClean) {
    // race_demo --clean: two disjoint puts into rank 0's window in one fence
    // epoch, under scimpi-check.
    ClusterOptions opt;
    opt.nodes = 3;
    opt.check = true;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) {
        auto wmem = comm.alloc_mem(4096);
        ASSERT_TRUE(wmem.is_ok());
        auto win = comm.win_create(wmem.value().data(), 4096);
        std::vector<double> payload(8, 100.0 + comm.rank());
        win->fence();
        if (comm.rank() == 1) {
            ASSERT_TRUE(win->put(payload.data(), 8, Datatype::float64(), 0, 0).is_ok());
        } else if (comm.rank() == 2) {
            ASSERT_TRUE(win->put(payload.data(), 8, Datatype::float64(), 0, 64).is_ok());
        }
        win->fence();
        win->fence();
    });
    EXPECT_TRUE(cluster.checker()->violations().empty());
    expect_pin(summarize(cluster), Pin{82159, 193, 0x1f88fbbf85177c68ull});
}

}  // namespace
}  // namespace scimpi::mpi
