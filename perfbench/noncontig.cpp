// noncontig: derived-datatype halo exchange on the paper's 8-node ring
// (Figs. 7 and 10). Every step exchanges one layout's halo at an eager size
// and at a four-chunk rendezvous size; each exchange is one MPI_Sendrecv to
// the right and one to the left neighbour, with the same committed type on
// both ends. Layouts: a matrix column (vector, 8 B blocks), fields of
// interleaved particle records (struct: 24/4/8 B blocks) and a face of a
// 3-D block (subarray). The plan runs once with direct_pack_ff and once
// with the generic packer.
#include <array>
#include <memory>

#include "common/rng.hpp"
#include "workload.hpp"

namespace perf {

using namespace scimpi;
using namespace scimpi::mpi;

namespace {

struct Halo {
    Datatype type;
    Blocks blocks;
};

struct HaloPlan {
    std::uint64_t seed = 0;
    std::vector<Halo> halos;  ///< two per step: eager, then rendezvous
};

constexpr int kNodes = 8;
constexpr int kRepeats = 8;  // each (layout, band) case appears this often

// Payload bands. Jitter is narrow so that seeds change shapes and offsets
// but not the amount of work: 6-8 KiB stays eager (< 16 KiB), 200-256 KiB
// is always exactly four 64 KiB rendezvous chunks.
constexpr std::size_t kEagerLo = 6_KiB, kEagerHi = 8_KiB;
constexpr std::size_t kRndvLo = 200_KiB, kRndvHi = 256_KiB;
// Buffer for any shape below (the widest is a 12-column matrix), fixed so
// that peak memory does not depend on the seed.
constexpr std::size_t kBufBytes = 12 * kRndvHi;

Datatype vector_column(Rng& rng, std::size_t payload) {
    const auto cols = static_cast<int>(rng.range(8, 12));
    const auto rows = static_cast<int>(payload / sizeof(double));
    return Datatype::vector(rows, 1, cols, Datatype::float64());
}

Datatype particle_fields(std::size_t payload) {
    // Record {double pos[3]; int32 id; int32 pad; double mass;} (40 B): the
    // halo carries pos, id and mass, 36 B in three blocks.
    const int blocklens[] = {3, 1, 1};
    const std::ptrdiff_t displs[] = {0, 24, 32};
    const Datatype types[] = {Datatype::float64(), Datatype::int32(),
                              Datatype::float64()};
    const Datatype rec = Datatype::structure(blocklens, displs, types);
    return Datatype::contiguous(static_cast<int>(payload / 36), rec);
}

Datatype block_face(Rng& rng, std::size_t payload) {
    // The last y-plane of an x * y * z block of doubles: x runs of z doubles.
    const auto z = static_cast<int>(rng.range(7, 9));
    const auto y = static_cast<int>(rng.range(4, 8));
    const auto x = static_cast<int>(payload / (sizeof(double) * static_cast<std::size_t>(z)));
    const int sizes[] = {x, y, z};
    const int subsizes[] = {x, 1, z};
    const int starts[] = {0, y - 1, 0};
    return Datatype::subarray(sizes, subsizes, starts, Datatype::float64());
}

}  // namespace

Workload make_noncontig(std::uint64_t seed) {
    Rng rng(mix64(seed ^ 0x6e6f6e63ull));
    auto plan = std::make_shared<HaloPlan>();
    plan->seed = seed;

    // Halos cycle through the six (layout, band) cases in a fixed order. The
    // order is not seeded: which case follows which moves simulated time by
    // several percent, while sizes and shapes move it by under one.
    std::vector<int> cases;  // layout * 2 + band
    for (int r = 0; r < kRepeats; ++r)
        for (int c = 0; c < 6; ++c) cases.push_back(c);

    Workload w;
    static const char* const kLayouts[] = {"vector", "struct", "subarray"};
    // Stratified sizes: the r-th occurrence of a case draws from the r-th of
    // kRepeats equal slices of its band, so every seed moves about the same
    // payload.
    std::array<int, 6> seen{};
    for (const int c : cases) {
        const bool rndv = c % 2 == 1;
        const std::size_t lo = rndv ? kRndvLo : kEagerLo;
        const std::size_t width = ((rndv ? kRndvHi : kEagerHi) - lo) / kRepeats;
        const std::size_t payload =
            lo + static_cast<std::size_t>(seen[static_cast<std::size_t>(c)]++) * width +
            rng.below(width);
        Datatype t;
        switch (c / 2) {
            case 0: t = vector_column(rng, payload); break;
            case 1: t = particle_fields(payload); break;
            default: t = block_face(rng, payload); break;
        }
        t.commit();
        SCIMPI_REQUIRE(static_cast<std::size_t>(t.lb() + t.extent()) <= kBufBytes,
                       "halo type exceeds the halo buffer");
        w.types.push_back({std::string(kLayouts[c / 2]) + (rndv ? "/rndv" : "/eager"), t});
        plan->halos.push_back({t, blocks_of(t, 1)});
    }

    const RankMain main = [plan](Comm& comm, RankCtx& ctx) {
        const int me = comm.rank();
        const int n = comm.size();
        const int right = (me + 1) % n;
        const int left = (me + n - 1) % n;
        std::vector<std::byte> sbuf(kBufBytes);
        std::vector<std::byte> rbuf(kBufBytes);
        for (std::size_t h = 0; h < plan->halos.size(); ++h) {
            const auto halo = static_cast<int>(h);
            if (h % 2 == 0) ctx.probe.begin_step(halo / 2);
            const Halo& hs = plan->halos[h];
            for (int dir = 0; dir < 2; ++dir) {
                const int dst = dir == 0 ? right : left;
                const int src = dir == 0 ? left : right;
                const int tag = halo * 2 + dir;
                fill_pattern(sbuf.data(), hs.blocks, pattern_key(plan->seed, me, halo, dir));
                ctx.expect(ctx.probe.call(Layer::p2p, "sendrecv", [&] {
                    return comm.sendrecv(sbuf.data(), 1, hs.type, dst, tag, rbuf.data(), 1,
                                         hs.type, src, tag);
                }));
                check_pattern(rbuf.data(), hs.blocks, pattern_key(plan->seed, src, halo, dir),
                              ctx);
            }
        }
    };

    for (const bool ff : {true, false}) {
        ClusterJob job;
        job.label = ff ? "ff" : "generic";
        job.opt.nodes = kNodes;
        job.opt.cfg.use_direct_pack_ff = ff;
        job.main = main;
        w.jobs.push_back(std::move(job));
    }
    return w;
}

}  // namespace perf
