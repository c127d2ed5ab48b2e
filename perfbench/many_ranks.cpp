// many_ranks: bench_scale-style timesteps on a 32-node ring, the ROADMAP's
// baseline scale. A step is a small allreduce, a bcast from a rotating
// root, a barrier, a ring exchange with both neighbours and an
// Iallreduce + Wait. Contiguous types only, so the datatype layer is
// bypassed; cost is cluster bring-up (32 node arenas) and process hand-offs.
#include <memory>

#include "common/rng.hpp"
#include "workload.hpp"

namespace perf {

using namespace scimpi;
using namespace scimpi::mpi;

namespace {

constexpr int kNodes = 32;
constexpr int kSteps = 24;

struct StepShape {
    int reduce_n = 0;         ///< doubles in the allreduce and the iallreduce
    std::size_t bcast_bytes = 0;
    std::size_t ring_bytes = 0;
};

struct ScalePlan {
    std::uint64_t seed = 0;
    std::vector<StepShape> steps;
};

// Contribution of `rank` to element i of step s: small integers, so sums are
// exact and the expected result has a closed form.
double contribution(int rank, int i, int s) {
    return static_cast<double>((rank + 1) * (i + 1) + s);
}
double expected_sum(int n, int i, int s) {
    return static_cast<double>((i + 1) * n * (n + 1) / 2 + n * s);
}

}  // namespace

Workload make_many_ranks(std::uint64_t seed) {
    Rng rng(mix64(seed ^ 0x6d616e79ull));
    auto plan = std::make_shared<ScalePlan>();
    plan->seed = seed;
    Workload w;
    for (int s = 0; s < kSteps; ++s) {
        StepShape st;
        st.reduce_n = static_cast<int>(rng.range(28, 36));
        st.bcast_bytes = static_cast<std::size_t>(rng.range(1792, 2304));
        st.ring_bytes = static_cast<std::size_t>(rng.range(448, 576));
        plan->steps.push_back(st);
        if (s == 0) {
            w.types.push_back(
                {"allreduce", Datatype::contiguous(st.reduce_n, Datatype::float64())});
            w.types.push_back({"bcast", Datatype::contiguous(static_cast<int>(st.bcast_bytes),
                                                             Datatype::byte_())});
            for (NamedType& t : w.types) t.type.commit();
        }
    }

    ClusterJob job;
    job.label = "ring32";
    job.opt.nodes = kNodes;
    job.main = [plan](Comm& comm, RankCtx& ctx) {
        RankProbe& P = ctx.probe;
        const int me = comm.rank();
        const int n = comm.size();
        const int right = (me + 1) % n;
        const int left = (me + n - 1) % n;
        const Datatype byte = Datatype::byte_();
        std::vector<double> in, out;
        std::vector<std::byte> bbuf, sring, rring;
        for (std::size_t s = 0; s < plan->steps.size(); ++s) {
            const auto step = static_cast<int>(s);
            const StepShape& sh = plan->steps[s];
            P.begin_step(step);

            auto check_sum = [&](int salt) {
                bool ok = true;
                for (int i = 0; i < sh.reduce_n; ++i)
                    ok = ok && out[static_cast<std::size_t>(i)] ==
                                   expected_sum(n, i, step + salt);
                ++ctx.checked;
                ctx.payload += out.size() * sizeof(double);
                if (!ok) ++ctx.failed;
                ctx.checksum = mix64(ctx.checksum ^ static_cast<std::uint64_t>(out.back()));
            };

            in.resize(static_cast<std::size_t>(sh.reduce_n));
            out.assign(in.size(), 0.0);
            for (int i = 0; i < sh.reduce_n; ++i)
                in[static_cast<std::size_t>(i)] = contribution(me, i, step);
            ctx.expect(P.call(Layer::coll, "allreduce", [&] {
                return comm.allreduce_sum(in.data(), out.data(), sh.reduce_n);
            }));
            check_sum(0);

            const int root = step % n;
            const Blocks bblocks = {{0, sh.bcast_bytes}};
            bbuf.assign(sh.bcast_bytes, std::byte{0});
            const std::uint64_t bkey = pattern_key(plan->seed, root, step, 0);
            if (me == root) fill_pattern(bbuf.data(), bblocks, bkey);
            ctx.expect(P.call(Layer::coll, "bcast", [&] {
                return comm.bcast(bbuf.data(), static_cast<int>(sh.bcast_bytes), byte, root);
            }));
            if (me != root) check_pattern(bbuf.data(), bblocks, bkey, ctx);

            P.call(Layer::coll, "barrier", [&] { comm.barrier(); });

            const Blocks rblocks = {{0, sh.ring_bytes}};
            sring.resize(sh.ring_bytes);
            rring.assign(sh.ring_bytes, std::byte{0});
            const auto count = static_cast<int>(sh.ring_bytes);
            for (int dir = 0; dir < 2; ++dir) {
                const int dst = dir == 0 ? right : left;
                const int src = dir == 0 ? left : right;
                fill_pattern(sring.data(), rblocks, pattern_key(plan->seed, me, step, 1 + dir));
                ctx.expect(P.call(Layer::p2p, "sendrecv", [&] {
                    return comm.sendrecv(sring.data(), count, byte, dst, dir, rring.data(),
                                         count, byte, src, dir);
                }));
                check_pattern(rring.data(), rblocks,
                              pattern_key(plan->seed, src, step, 1 + dir), ctx);
            }

            for (int i = 0; i < sh.reduce_n; ++i)
                in[static_cast<std::size_t>(i)] = contribution(me, i, step + 1);
            std::fill(out.begin(), out.end(), 0.0);
            Request req = P.call(Layer::req, "iallreduce", [&] {
                return comm.iallreduce_sum(in.data(), out.data(), sh.reduce_n);
            });
            ctx.expect(P.call(Layer::req, "wait", [&] { return comm.wait(req); }));
            check_sum(1);
        }
    };
    w.jobs.push_back(std::move(job));
    return w;
}

}  // namespace perf
