// osc_sparse: Fig. 9-style sparse one-sided traffic on 4 nodes. Every step
// runs twice, once on a window in SCI-shared memory (Comm::alloc_mem: the
// direct PIO path) and once on a window in private heap memory (the
// emulated, handler-served path):
//
//   fence; every rank puts four 8-256 B runs, one 2.5-4 KiB run and one
//   strided (vector) run of doubles, two to each other rank, into its own
//   partition of their windows, plus one accumulate of a few doubles; fence;
//   every rank reads back, under lock/unlock, what its right neighbour put.
//
// The read-backs mirror the puts (same type, target and displacement), so
// gets fall on both sides of Config::get_remote_put_threshold (2 KiB). A
// put whose target is the reader itself is checked in local window memory.
// Accumulated sums are checked at the end of the run.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "mpi/rma/window.hpp"
#include "workload.hpp"

namespace perf {

using namespace scimpi;
using namespace scimpi::mpi;

namespace {

constexpr int kNodes = 4;
constexpr int kPutsPerEpoch = 2 * (kNodes - 1);
constexpr std::size_t kPartition = 32_KiB;   // per origin and region
constexpr std::size_t kAccCells = 64;        // doubles at the end of a window
constexpr std::size_t kRegion = kNodes * kPartition;
constexpr std::size_t kWinBytes = 2 * kRegion + kAccCells * sizeof(double);

struct Access {
    int target = 0;
    std::size_t disp = 0;     ///< byte displacement in the target window
    std::size_t offset = 0;   ///< same place in the origin's staging buffer
    Datatype type;
    int count = 0;
    Blocks blocks;            ///< relative to the staging buffer
};

struct Acc {
    int target = 0;
    std::size_t cell = 0;
    std::vector<double> values;
};

struct Epoch {
    std::vector<std::vector<Access>> puts;  ///< [origin]
    std::vector<Acc> accs;                   ///< [origin]
};

struct OscPlan {
    std::uint64_t seed = 0;
    std::vector<std::array<Epoch, 2>> steps;  ///< [step][window]
    /// Expected accumulator cells [window][target][cell].
    std::array<std::vector<std::vector<double>>, 2> acc_sum;
};

/// Kinds of the puts of one origin in one epoch. Each origin puts twice to
/// every other rank; the seed shuffles kinds and targets and picks sizes,
/// but keeps the mix and the load per target, which set simulated time.
enum Kind : std::uint8_t { kSmall, kLarge, kStrided };
constexpr std::array<Kind, kPutsPerEpoch> kMix = {kSmall, kSmall, kSmall, kSmall, kLarge,
                                                  kStrided};

Access make_put(Rng& rng, Kind kind, int target, int origin, int step, std::size_t& cursor) {
    Access a;
    a.target = target;
    std::size_t extent = 0;
    if (kind == kSmall) {  // sparse small run
        a.count = static_cast<int>(rng.range(8, 256));
        a.type = Datatype::byte_();
        extent = static_cast<std::size_t>(a.count);
    } else if (kind == kLarge) {  // above the 2 KiB remote-put threshold
        a.count = static_cast<int>(rng.range(2560, 4096));
        a.type = Datatype::byte_();
        extent = static_cast<std::size_t>(a.count);
    } else {  // strided doubles
        const auto n = static_cast<int>(rng.range(4, 32));
        a.type = Datatype::vector(n, 1, 2, Datatype::float64());
        a.type.commit();
        a.count = 1;
        extent = static_cast<std::size_t>(a.type.extent());
    }
    a.offset = cursor;
    cursor += (extent + 7) & ~std::size_t{7};
    a.disp = static_cast<std::size_t>(step % 2) * kRegion +
             static_cast<std::size_t>(origin) * kPartition + a.offset;
    a.blocks = blocks_of(a.type, a.count);
    for (auto& b : a.blocks) b.first += static_cast<std::ptrdiff_t>(a.offset);
    return a;
}

}  // namespace

Workload make_osc_sparse(std::uint64_t seed, int steps) {
    Rng rng(mix64(seed ^ 0x6f736373ull));
    auto plan = std::make_shared<OscPlan>();
    plan->seed = seed;
    for (auto& w : plan->acc_sum)
        w.assign(kNodes, std::vector<double>(kAccCells, 0.0));

    Workload wl;
    for (int s = 0; s < steps; ++s) {
        std::array<Epoch, 2> ep;
        for (int w = 0; w < 2; ++w) {
            ep[w].puts.resize(kNodes);
            for (int o = 0; o < kNodes; ++o) {
                std::size_t cursor = 0;
                std::array<Kind, kPutsPerEpoch> kinds = kMix;
                std::array<int, kPutsPerEpoch> targets{};
                for (int j = 0; j < kPutsPerEpoch; ++j)
                    targets[static_cast<std::size_t>(j)] = (o + 1 + j % (kNodes - 1)) % kNodes;
                for (std::size_t i = kinds.size() - 1; i > 0; --i) {
                    std::swap(kinds[i], kinds[rng.below(i + 1)]);
                    std::swap(targets[i], targets[rng.below(i + 1)]);
                }
                for (std::size_t j = 0; j < kinds.size(); ++j)
                    ep[w].puts[o].push_back(make_put(rng, kinds[j], targets[j], o, s, cursor));
                Acc acc;
                do {
                    acc.target = static_cast<int>(rng.below(kNodes));
                } while (acc.target == o);
                const auto k = static_cast<std::size_t>(rng.range(1, 16));
                acc.cell = rng.below(kAccCells - k + 1);
                for (std::size_t i = 0; i < k; ++i) {
                    // Small integers: sums are exact in any order.
                    acc.values.push_back(static_cast<double>(rng.range(1, 1000)));
                    plan->acc_sum[w][acc.target][acc.cell + i] += acc.values.back();
                }
                ep[w].accs.push_back(std::move(acc));
            }
        }
        plan->steps.push_back(std::move(ep));
    }
    for (const auto& ep : plan->steps)
        for (const Epoch& e : ep)
            for (const auto& puts : e.puts)
                for (const Access& a : puts)
                    if (!a.type.is_contiguous())
                        wl.types.push_back({"strided", a.type});

    wl.jobs.push_back({"osc", {}, [plan](Comm& comm, RankCtx& ctx) {
        RankProbe& P = ctx.probe;
        const int me = comm.rank();
        const int reader_of = (me + 1) % kNodes;  // whose puts this rank reads back

        // Window 0 in SCI-shared memory, window 1 in private heap memory.
        std::span<std::byte> shared_mem;
        {
            auto mem = P.call(Layer::rma_win, "alloc_mem",
                              [&] { return comm.alloc_mem(kWinBytes); });
            ctx.expect(mem.status());
            if (!mem.is_ok()) return;
            shared_mem = mem.value();
        }
        std::vector<std::byte> heap(kWinBytes);
        const std::array<std::span<std::byte>, 2> local = {
            shared_mem, std::span<std::byte>(heap.data(), heap.size())};
        std::array<std::shared_ptr<Win>, 2> win;
        for (int w = 0; w < 2; ++w) {
            std::fill(local[w].begin(), local[w].end(), std::byte{0});
            win[w] = P.call(Layer::rma_win, "win_create", [&] {
                return comm.win_create(local[w].data(), local[w].size());
            });
        }
        std::vector<std::byte> staging(kPartition);
        std::vector<std::byte> readback(kPartition);

        for (std::size_t s = 0; s < plan->steps.size(); ++s) {
            const auto step = static_cast<int>(s);
            P.begin_step(step);
            for (int w = 0; w < 2; ++w) {
                Win& win_w = *win[w];
                const Epoch& ep = plan->steps[s][w];
                P.call(Layer::rma_sync, "fence", [&] { win_w.fence(); });
                int msg = 0;
                for (const Access& a : ep.puts[me]) {
                    fill_pattern(staging.data(), a.blocks,
                                 pattern_key(plan->seed, me, step * 2 + w, msg++));
                    ctx.expect(P.call(Layer::rma_op, "put", [&] {
                        return win_w.put(staging.data() + a.offset, a.count, a.type,
                                         a.target, a.disp);
                    }));
                }
                const Acc& acc = ep.accs[me];
                ctx.expect(P.call(Layer::rma_op, "accumulate", [&] {
                    return win_w.accumulate_sum(acc.values.data(),
                                                static_cast<int>(acc.values.size()),
                                                acc.target,
                                                2 * kRegion + acc.cell * sizeof(double));
                }));
                P.call(Layer::rma_sync, "fence", [&] { win_w.fence(); });

                // Read back the right neighbour's puts, one lock epoch per target.
                const std::vector<Access>& theirs = ep.puts[reader_of];
                for (int t = 0; t < kNodes; ++t) {
                    bool locked = false;
                    int m = 0;
                    for (const Access& a : theirs) {
                        const std::uint64_t key =
                            pattern_key(plan->seed, reader_of, step * 2 + w, m++);
                        if (a.target != t) continue;
                        if (t == me) {  // our own window: check delivery in place
                            check_pattern(local[w].data() + (a.disp - a.offset), a.blocks,
                                          key, ctx);
                            continue;
                        }
                        if (!locked) {
                            P.call(Layer::rma_sync, "lock", [&] { win_w.lock(t, false); });
                            locked = true;
                        }
                        ctx.expect(P.call(Layer::rma_op, "get", [&] {
                            return win_w.get(readback.data() + a.offset, a.count, a.type,
                                             t, a.disp);
                        }));
                    }
                    if (!locked) continue;
                    P.call(Layer::rma_sync, "unlock", [&] { win_w.unlock(t); });
                    m = 0;
                    for (const Access& a : theirs) {
                        const std::uint64_t key =
                            pattern_key(plan->seed, reader_of, step * 2 + w, m++);
                        if (a.target == t) check_pattern(readback.data(), a.blocks, key, ctx);
                    }
                }
            }
        }
        P.end_steps();
        for (int w = 0; w < 2; ++w) {
            P.call(Layer::rma_sync, "fence", [&] { win[w]->fence(); });
            const std::vector<double>& want = plan->acc_sum[w][me];
            const std::byte* cells = local[w].data() + 2 * kRegion;
            for (std::size_t c = 0; c < kAccCells; ++c) {
                double got = 0.0;
                std::memcpy(&got, cells + c * sizeof(double), sizeof got);
                if (got != want[c]) ++ctx.failed;
                ctx.checksum = mix64(ctx.checksum ^ static_cast<std::uint64_t>(got));
            }
            ++ctx.checked;
        }
        win = {};
        ctx.expect(P.call(Layer::rma_win, "free_mem", [&] { return comm.free_mem(shared_mem); }));
    }});
    wl.jobs.back().opt.nodes = kNodes;
    return wl;
}

}  // namespace perf
