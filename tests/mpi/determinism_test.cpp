// Determinism pin: four fixed MPI programs must keep their exact simulated
// schedule. Each run is summarized by the simulated end time, the number of
// engine dispatches, and Engine::dispatch_digest() — a running hash over
// (time, process id) of every dispatch, so any reordering of events shows
// even when the totals happen to match. The expected values were recorded
// before the host mechanics they guard were rewritten (the engine's process
// hand-off, the datatype traversal); a change to them must be explained by a
// change to the simulated model, never by host mechanics.
#include <gtest/gtest.h>

#include <algorithm>
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

/// Barrier, bcast, reduce, allreduce and a raw allgather across the sizes
/// where the automatic selection switches algorithms.
void collective_tour(Comm& comm) {
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
}

TEST(DeterminismPin, CollectiveTour) {
    ClusterOptions opt;
    opt.nodes = 6;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) { collective_tour(comm); });
    expect_pin(summarize(cluster), Pin{8516170, 3267, 0x545766ec540864b7ull});
}

/// collective_tour plus alltoall, gather, scatter and a typed (strided)
/// allgather: every collective entry point at least once.
void full_collective_tour(Comm& comm) {
    collective_tour(comm);
    const int rank = comm.rank();
    const int n = comm.size();
    const auto un = static_cast<std::size_t>(n);
    for (const std::size_t bytes : {std::uint64_t{512}, 32_KiB}) {
        const std::size_t elems = bytes / sizeof(double);
        std::vector<double> in(elems * un);
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = rank * 1000.0 + static_cast<double>(i / elems);
        std::vector<double> out(in.size(), -1.0);
        ASSERT_TRUE(comm.alltoall(in.data(), bytes, out.data()).is_ok());
        for (int src = 0; src < n; ++src)
            EXPECT_EQ(out[static_cast<std::size_t>(src) * elems], src * 1000.0 + rank);
    }
    {
        std::vector<double> mine(128, rank + 0.25);
        std::vector<double> all(mine.size() * un, -1.0);
        ASSERT_TRUE(comm.gather(mine.data(), 1_KiB, all.data(), 1).is_ok());
        if (rank == 1) {
            for (int r = 0; r < n; ++r)
                EXPECT_EQ(all[static_cast<std::size_t>(r) * 128], r + 0.25);
        }
        std::vector<double> part(128, -1.0);
        ASSERT_TRUE(comm.scatter(all.data(), 1_KiB, part.data(), 1).is_ok());
        if (rank == 1) {
            EXPECT_EQ(part.front(), 1.25);
        }
    }
    {
        // Every other double: 8 KiB of payload per rank in a 2047-double
        // extent, so consecutive blocks of the result interleave.
        const Datatype strided = Datatype::vector(1024, 1, 2, Datatype::float64());
        const std::size_t ext = 2047;
        std::vector<double> src(ext, rank + 0.5);
        std::vector<double> dst(ext * un, -1.0);
        ASSERT_TRUE(comm.allgather(src.data(), 1, strided, dst.data()).is_ok());
        for (int r = 0; r < n; ++r) {
            EXPECT_EQ(dst[static_cast<std::size_t>(r) * ext], r + 0.5);
            EXPECT_EQ(dst[static_cast<std::size_t>(r) * ext + 1], -1.0);
        }
    }
}

TEST(DeterminismPin, CollectiveTourP2p) {
    ClusterOptions opt;
    opt.nodes = 6;
    opt.coll = "p2p";
    Cluster cluster(opt);
    cluster.run([](Comm& comm) { full_collective_tour(comm); });
    expect_pin(summarize(cluster), Pin{20977836, 2541, 0x35d53366054fe722ull});
}

TEST(DeterminismPin, CollectiveTourSegmentAlgorithms) {
    ClusterOptions opt;
    opt.nodes = 6;
    opt.coll = "bcast=binomial,reduce=binomial,allgather=ring,alltoall=pairwise,"
               "allreduce=reduce_bcast";
    Cluster cluster(opt);
    cluster.run([](Comm& comm) { full_collective_tour(comm); });
    expect_pin(summarize(cluster), Pin{21992067, 7654, 0x8cd7106348d7f488ull});
}

/// Ibarrier, Iallreduce (power-of-two-fold size) and Iallgather, each
/// overlapped with a slab of compute.
void nbc_tour(Comm& comm) {
    const int rank = comm.rank();
    const int n = comm.size();
    Request bar = comm.ibarrier();
    comm.proc().delay(static_cast<SimTime>(rank) * 3_us);
    ASSERT_TRUE(comm.wait(bar).is_ok());
    for (const int count : {4, 4096}) {
        std::vector<double> in(static_cast<std::size_t>(count), rank + 1.0);
        std::vector<double> out(in.size(), 0.0);
        Request r = comm.iallreduce_sum(in.data(), out.data(), count);
        comm.proc().delay(20_us);
        ASSERT_TRUE(comm.wait(r).is_ok());
        EXPECT_EQ(out.back(), n * (n + 1) / 2.0);
    }
    for (const std::size_t each : {std::uint64_t{256}, 24_KiB}) {
        std::vector<std::byte> in(each, static_cast<std::byte>(rank + 1));
        std::vector<std::byte> out(each * static_cast<std::size_t>(n));
        Request r = comm.iallgather(in.data(), each, out.data());
        comm.proc().delay(20_us);
        ASSERT_TRUE(comm.wait(r).is_ok());
        for (int src = 0; src < n; ++src)
            EXPECT_EQ(out[static_cast<std::size_t>(src) * each],
                      static_cast<std::byte>(src + 1));
    }
}

TEST(DeterminismPin, NbcTour) {
    ClusterOptions opt;
    opt.nodes = 6;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) { nbc_tour(comm); });
    expect_pin(summarize(cluster), Pin{2388772, 1266, 0xf1db0c253497d9f2ull});
}

TEST(DeterminismPin, NbcTourAsyncProgress) {
    ClusterOptions opt;
    opt.nodes = 6;
    opt.async_progress = true;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) { nbc_tour(comm); });
    expect_pin(summarize(cluster), Pin{2524586, 1587, 0x83148146c8bee62bull});
}

TEST(DeterminismPin, Ibcast) {
    // Non-root, non-power-of-two tree: root 2 of 6 ranks, eager and
    // rendezvous payloads, over the blocking bcast's binomial tree.
    ClusterOptions opt;
    opt.nodes = 6;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) {
        for (const std::size_t bytes : {2_KiB, 96_KiB}) {
            std::vector<double> data(bytes / sizeof(double), -1.0);
            if (comm.rank() == 2) std::iota(data.begin(), data.end(), 3.0);
            Request r = comm.ibcast(data.data(), bytes, 2);
            ASSERT_TRUE(comm.wait(r).is_ok());
            EXPECT_EQ(data.back(), 3.0 + static_cast<double>(data.size()) - 1.0);
        }
    });
    expect_pin(summarize(cluster), Pin{2053286, 428, 0xc1411af551306375ull});
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

/// Value the sender stores at byte-map offset `off` of its buffer.
double stamp(int rank, std::size_t off) { return rank * 1e6 + static_cast<double>(off); }

TEST(DeterminismPin, GenericDerivedTypes) {
    // Derived types over the generic packer: four-chunk rendezvous
    // sendrecvs of a struct and a subarray around a ring, then a strided
    // put, get (above the remote-put threshold) and accumulate on a shared
    // window. The expected values were recorded before the datatype cursor
    // replaced the recursive walker.
    ClusterOptions opt;
    opt.nodes = 4;
    opt.cfg.use_direct_pack_ff = false;
    Cluster cluster(opt);
    cluster.run([](Comm& comm) {
        const int n = comm.size();
        const int right = (comm.rank() + 1) % n;
        const int left = (comm.rank() + n - 1) % n;

        // Particle record {double pos[3]; int32 id; int32 pad; double mass;}:
        // 36 B of payload in a 40 B extent; 7000 records = 4 chunks.
        const int rec_lens[] = {3, 1, 1};
        const std::ptrdiff_t rec_displs[] = {0, 24, 32};
        const Datatype rec_types[] = {Datatype::float64(), Datatype::int32(),
                                      Datatype::float64()};
        const Datatype particles = Datatype::contiguous(
            7000, Datatype::structure(rec_lens, rec_displs, rec_types));
        // Columns 10..69 of a 480 x 80 matrix of doubles: 225 KiB, 4 chunks.
        const int sizes[] = {480, 80};
        const int subsizes[] = {480, 60};
        const int starts[] = {0, 10};
        const Datatype columns =
            Datatype::subarray(sizes, subsizes, starts, Datatype::float64());

        int tag = 0;
        for (const Datatype& type : {particles, columns}) {
            const auto span = static_cast<std::size_t>(type.extent());
            std::vector<double> out(span / sizeof(double));
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = stamp(comm.rank(), i * sizeof(double));
            std::vector<double> in(out.size(), -1.0);
            ASSERT_TRUE(comm.sendrecv(out.data(), 1, type, right, tag, in.data(), 1, type,
                                      left, tag)
                            .is_ok());
            ++tag;
            std::size_t checked = 0;
            type.for_each_block(0, 1, [&](std::ptrdiff_t off, std::size_t len) {
                // Every block starts with a double; a record's int32 is the
                // partial tail of its first block and is not compared.
                for (std::size_t b = 0; b + sizeof(double) <= len; b += sizeof(double)) {
                    const std::size_t at = static_cast<std::size_t>(off) + b;
                    EXPECT_EQ(in[at / sizeof(double)], stamp(left, at));
                    ++checked;
                }
            });
            EXPECT_GT(checked, 0u);
        }

        auto wmem = comm.alloc_mem(16_KiB);
        ASSERT_TRUE(wmem.is_ok());
        // The arena hands back memory the rendezvous rings used: clear it.
        std::fill(wmem.value().begin(), wmem.value().end(), std::byte{0});
        auto win = comm.win_create(wmem.value().data(), 16_KiB);
        const Datatype strided16 = Datatype::vector(16, 1, 2, Datatype::float64());
        const Datatype strided512 = Datatype::vector(512, 1, 2, Datatype::float64());
        std::vector<double> src(1024);
        for (std::size_t i = 0; i < src.size(); ++i)
            src[i] = stamp(comm.rank(), i);
        win->fence();
        ASSERT_TRUE(win->put(src.data(), 1, strided16, right, 0).is_ok());
        win->fence();
        std::vector<double> got(1024, -1.0);
        ASSERT_TRUE(win->get(got.data(), 1, strided512, left, 0).is_ok());
        win->fence();
        ASSERT_TRUE(win->accumulate(src.data(), 1, strided16, right, 8_KiB,
                                    Win::ReduceOp::sum)
                        .is_ok());
        win->fence();
        // The left neighbour's window holds what its own left neighbour put.
        const int left2 = (comm.rank() + n - 2) % n;
        EXPECT_EQ(got[0], stamp(left2, 0));
        EXPECT_EQ(got[30], stamp(left2, 30));
        EXPECT_EQ(got[32], 0.0);
        EXPECT_EQ(got[1], -1.0);
        const auto* acc = reinterpret_cast<const double*>(wmem.value().data() + 8_KiB);
        EXPECT_EQ(acc[2], stamp(left, 2));
        win->fence();
    });
    expect_pin(summarize(cluster), Pin{8146620, 762, 0xabc70248dcd344f9ull});
}

}  // namespace
}  // namespace scimpi::mpi
