// Collective schedule builders (algos.hpp). Every builder reserves the same
// round-index ranges on every member, in the same order, so a transfer's
// two ends agree on its round (and, for p2p steps, on its tag).
#include "mpi/coll/algos.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "mpi/datatype/pack_ff.hpp"
#include "mpi/datatype/pack_generic.hpp"
#include "sim/trace.hpp"

namespace scimpi::mpi::coll {

namespace {

/// Rounds of a doubling schedule over n ranks: ceil(log2 n).
int doubling_rounds(int n) {
    int rounds = 0;
    for (int k = 1; k < n; k <<= 1) ++rounds;
    return rounds;
}

/// Byte offset of block `block` in an array of `bytes_each`-byte blocks.
std::size_t offset(int block, std::size_t bytes_each) {
    return static_cast<std::size_t>(block) * bytes_each;
}

/// Post-action: acc[i] += tmp[i], charged as one flop per element at ~1 ns
/// to whichever process drives the schedule.
std::function<void()> accumulate(Sched& s, double* acc, const double* tmp, int n) {
    Rank* rk = &s.comm().rank_state();
    return [rk, acc, tmp, n] {
        rk->cur_proc().delay(n);
        for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) acc[i] += tmp[i];
    };
}

/// Copy the local contribution into block `block` of the typed allgather
/// result: canonical-pack `in`, then unpack that stream range into the
/// n*count-element view at `out` (what a peer's remote write would do).
void copy_typed_block(Comm& c, const void* in, int count, const Datatype& type,
                      void* out, int n, int block) {
    const std::size_t be = type.size() * static_cast<std::size_t>(count);
    std::vector<std::byte> tmp(be);
    std::size_t pos = 0;
    const Status st = c.pack(in, count, type, tmp, &pos);
    SCIMPI_REQUIRE(st.is_ok(), "coll: self-block pack failed: " + st.to_string());
    const std::size_t spos = offset(block, be);
    const sim::ProfScope pk(c.proc(), obs::ProfState::pack);
    if (type.is_contiguous()) {
        std::memcpy(static_cast<std::byte*>(out) + spos, tmp.data(), be);
        c.proc().delay(c.rank_state().copy_model().copy_cost(be, {}, {}));
    } else if (c.cluster().options().cfg.use_direct_pack_ff &&
               type.flat().leaf_major_is_canonical()) {
        FFPacker ff(type, n * count, out);
        const PackWork w = ff.unpack(spos, be, tmp.data());
        c.proc().delay(FFPacker::cost(w, c.rank_state().copy_model()));
    } else {
        GenericPacker gp(type, n * count, out);
        const PackWork w = gp.unpack(spos, be, tmp.data());
        c.proc().delay(GenericPacker::cost(w, c.rank_state().copy_model()));
    }
}

}  // namespace

void barrier_dissemination(Sched& s) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    // After round t every rank has heard (transitively) from 2^(t+1)
    // predecessors; ceil(log2 n) rounds synchronize everyone.
    const int base = s.reserve(doubling_rounds(n));
    std::byte* token = s.bytes(2);  // [0] sent, [1] received
    int t = 0;
    for (int k = 1; k < n; k <<= 1, ++t) {
        s.recv(base + t, (r - k + n) % n, raw(token + 1), 0, 1);
        s.send(base + t, (r + k) % n, raw(token), 0, 1);
    }
}

void bcast_binomial(Sched& s, const XferView& v, std::size_t len, int root) {
    const int n = s.comm().size();
    const int vr = (s.comm().rank() - root + n) % n;
    // The transfer across tree level l (mask 2^l) runs in round top - l:
    // the root's widest subtree first.
    const int levels = doubling_rounds(n);
    const int top = s.reserve(levels) + levels - 1;
    // Receive from the parent (clear the lowest set bit); the root has none.
    int l = 0;
    while (l < levels && ((vr >> l) & 1) == 0) ++l;
    if (l < levels) s.recv(top - l, (vr - (1 << l) + root) % n, v, 0, len);
    // Forward to the children below that level.
    for (int m = l - 1; m >= 0; --m)
        if (vr + (1 << m) < n) s.send(top - m, (vr + (1 << m) + root) % n, v, 0, len);
}

void bcast_flat(Sched& s, const XferView& v, std::size_t len, int root) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    // Round i carries the root's transfer to rank i: the posted-write
    // pipeline overlaps the streams, so the root's injection port is the
    // only serialization point.
    const int base = s.reserve(n);
    if (r != root) {
        s.recv(base + r, root, v, 0, len);
        return;
    }
    for (int i = 0; i < n; ++i)
        if (i != root) s.send(base + i, i, v, 0, len);
}

void bcast_scatter_ag(Sched& s, const XferView& v, std::size_t len, int root) {
    const int n = s.comm().size();
    const auto un = static_cast<std::size_t>(n);
    // Byte partition of the packed stream into n nearly-equal blocks; the
    // stream views pack/unpack arbitrary byte ranges, so blocks need not
    // align to datatype elements.
    const std::size_t per = len / un;
    const std::size_t rem = len % un;
    auto blk_len = [per, rem](int i) {
        return per + (static_cast<std::size_t>(i) < rem ? 1 : 0);
    };
    auto blk_off = [per, rem](int i) {
        const auto ui = static_cast<std::size_t>(i);
        return ui * per + std::min(ui, rem);
    };
    const int vr = (s.comm().rank() - root + n) % n;  // virtual rank, root first
    auto rk = [root, n](int vrank) { return (vrank + root) % n; };
    // Phase 1: the root scatters block i to virtual rank i, all streams in
    // one round, moving len bytes through its port once.
    const int scatter = s.reserve(1);
    if (vr == 0) {
        for (int i = 1; i < n; ++i) s.send(scatter, rk(i), v, blk_off(i), blk_len(i));
    } else {
        s.recv(scatter, root, v, blk_off(vr), blk_len(vr));
    }
    // Phase 2: ring allgather of the blocks over the virtual-rank ring. The
    // root receives (identical) bytes it already holds, which keeps every
    // stream's schedule uniform.
    const int ring = s.reserve(n - 1);
    for (int t = 1; t < n; ++t) {
        const int sb = (vr - t + 1 + n) % n;
        const int rb = (vr - t + n) % n;
        s.send(ring + t - 1, rk((vr + 1) % n), v, blk_off(sb), blk_len(sb));
        s.recv(ring + t - 1, rk((vr - 1 + n) % n), v, blk_off(rb), blk_len(rb));
    }
}

void reduce_binomial(Sched& s, const double* in, double* out, int n_elems, int root) {
    const int n = s.comm().size();
    const bool is_root = s.comm().rank() == root;
    const int vr = (s.comm().rank() - root + n) % n;
    const std::size_t bytes = static_cast<std::size_t>(n_elems) * sizeof(double);
    double* acc = s.doubles(static_cast<std::size_t>(n_elems));
    double* tmp = s.doubles(static_cast<std::size_t>(n_elems));
    s.then([acc, in, bytes] { std::memcpy(acc, in, bytes); });
    // Level l (mask 2^l): children with bit l set hand their partial sum to
    // the parent and drop out; the parent folds it in.
    const int base = s.reserve(doubling_rounds(n));
    int l = 0;
    for (int mask = 1; mask < n; mask <<= 1, ++l) {
        if ((vr & mask) != 0) {
            s.send(base + l, (vr - mask + root) % n, raw(acc), 0, bytes);
            break;
        }
        if (vr + mask < n) {
            s.recv(base + l, (vr + mask + root) % n, raw(tmp), 0, bytes);
            s.post(base + l, accumulate(s, acc, tmp, n_elems));
        }
    }
    const int done = s.reserve(1);
    if (is_root) s.post(done, [out, acc, bytes] { std::memcpy(out, acc, bytes); });
}

void allreduce_rdouble(Sched& s, const double* in, double* out, int n_elems) {
    const int n = s.comm().size();
    const int me = s.comm().rank();
    const std::size_t bytes = static_cast<std::size_t>(n_elems) * sizeof(double);
    double* acc = s.doubles(static_cast<std::size_t>(n_elems));
    double* tmp = s.doubles(static_cast<std::size_t>(n_elems));
    s.then([acc, in, bytes] { std::memcpy(acc, in, bytes); });
    int pof2 = 1;
    while (pof2 * 2 <= n) pof2 *= 2;
    const int rem = n - pof2;
    const int fold = s.reserve(1);
    const int xchg = s.reserve(doubling_rounds(pof2));
    const int unfold = s.reserve(1);
    // Fold the non-power-of-two surplus: odd ranks below 2*rem hand their
    // vector to the even neighbour and sit the exchange out.
    int newrank = me - rem;
    if (me < 2 * rem) {
        if ((me % 2) != 0) {
            s.send(fold, me - 1, raw(acc), 0, bytes);
            newrank = -1;
        } else {
            s.recv(fold, me + 1, raw(tmp), 0, bytes);
            s.post(fold, accumulate(s, acc, tmp, n_elems));
            newrank = me / 2;
        }
    }
    if (newrank >= 0) {
        int l = 0;
        for (int mask = 1; mask < pof2; mask <<= 1, ++l) {
            const int partner_new = newrank ^ mask;
            const int partner = partner_new < rem ? partner_new * 2 : partner_new + rem;
            s.recv(xchg + l, partner, raw(tmp), 0, bytes);
            s.send(xchg + l, partner, raw(acc), 0, bytes);
            // The send reads acc and completes before the round's post
            // runs, so reducing into acc never corrupts the stream. a+b ==
            // b+a element-wise, so both partners end each round with the
            // bit-identical partial sum.
            s.post(xchg + l, accumulate(s, acc, tmp, n_elems));
        }
    }
    // Unfold: the evens hand the finished vector back to the odds.
    if (me < 2 * rem) {
        if ((me % 2) != 0)
            s.recv(unfold, me - 1, raw(acc), 0, bytes);
        else
            s.send(unfold, me + 1, raw(acc), 0, bytes);
    }
    s.then([out, acc, bytes] { std::memcpy(out, acc, bytes); });
}

void allreduce_ring(Sched& s, const double* in, double* out, int n_elems) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    const int to = (r + 1) % n;
    const int from = (r - 1 + n) % n;
    // Element partition: block b covers [off(b), off(b) + cnt(b)).
    const int per = n_elems / n;
    const int rem = n_elems % n;
    auto off = [per, rem](int b) { return b * per + std::min(b, rem); };
    auto cnt = [per, rem](int b) { return per + (b < rem ? 1 : 0); };
    auto bytes = [&cnt](int b) { return static_cast<std::size_t>(cnt(b)) * sizeof(double); };
    double* tmp = s.doubles(static_cast<std::size_t>(per) + 1);
    s.then([out, in, n_elems] {
        std::memcpy(out, in, static_cast<std::size_t>(n_elems) * sizeof(double));
    });
    // Phase 1, reduce-scatter ring: after round t every block has one more
    // contribution; rank r ends up owning the fully reduced block (r+1)%n.
    const int rs = s.reserve(n - 1);
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r - t + n) % n;
        const int rb = (r - t - 1 + n) % n;
        s.send(rs + t, to, raw(out + off(sb)), 0, bytes(sb));
        s.recv(rs + t, from, raw(tmp), 0, bytes(rb));
        s.post(rs + t, accumulate(s, out + off(rb), tmp, cnt(rb)));
    }
    // Phase 2, allgather ring of the owned blocks, straight into `out`.
    const int ag = s.reserve(n - 1);
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r + 1 - t + n) % n;
        const int rb = (r - t + n) % n;
        s.send(ag + t, to, raw(out + off(sb)), 0, bytes(sb));
        s.recv(ag + t, from, raw(out + off(rb)), 0, bytes(rb));
    }
}

void allreduce_reduce_bcast(Sched& s, const double* in, double* out, int n) {
    reduce_binomial(s, in, out, n, 0);
    bcast_binomial(s, raw(out), static_cast<std::size_t>(n) * sizeof(double), 0);
}

void allgather_ring(Sched& s, const void* in, std::size_t bytes_each, void* out) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    auto* dst = static_cast<std::byte*>(out);
    s.then([dst, in, r, bytes_each] {
        std::memcpy(dst + offset(r, bytes_each), in, bytes_each);
    });
    // The block sent in round t was received in round t-1, which the round
    // barrier orders before this round's send.
    const int base = s.reserve(n - 1);
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r - t + n) % n;
        const int rb = (r - t - 1 + n) % n;
        s.recv(base + t, (r - 1 + n) % n, raw(dst), offset(rb, bytes_each), bytes_each);
        s.send(base + t, (r + 1) % n, raw(dst), offset(sb, bytes_each), bytes_each);
    }
}

void allgather_flat_typed(Sched& s, const void* in, int count, const Datatype& type,
                          void* out) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    const std::size_t be = type.size() * static_cast<std::size_t>(count);
    // The only staging copy anywhere is this local self-block.
    Comm* c = &s.comm();
    const Datatype* t = &type;
    s.then([c, in, count, t, out, n, r] { copy_typed_block(*c, in, count, *t, out, n, r); });
    const XferView rv = typed(out, n * count, type);
    const int base = s.reserve(n - 1);
    for (int k = 1; k < n; ++k) {
        const int from = (r - k + n) % n;
        s.send(base + k - 1, (r + k) % n, typed(in, count, type), 0, be);
        s.recv(base + k - 1, from, rv, offset(from, be), be);
    }
}

void allgather_staged_typed(Sched& s, const void* in, int count, const Datatype& type,
                            void* out) {
    const int n = s.comm().size();
    const std::size_t be = type.size() * static_cast<std::size_t>(count);
    // The concatenation of the packed blocks *is* the packed stream of
    // n x count elements, so one unpack restores the typed layout.
    std::byte* mine = s.bytes(be);
    std::byte* stage = s.bytes(offset(n, be));
    Comm* c = &s.comm();
    const Datatype* t = &type;
    s.then([c, in, count, t, mine, be] {
        std::size_t pos = 0;
        const Status st = c->pack(in, count, *t, std::span(mine, be), &pos);
        SCIMPI_REQUIRE(st.is_ok(), "coll: staged allgather pack failed: " + st.to_string());
    });
    allgather_ring(s, mine, be, stage);
    s.then([c, stage, n, be, out, count, t] {
        std::size_t pos = 0;
        const Status st = c->unpack(std::span(stage, offset(n, be)), &pos, out, n * count, *t);
        SCIMPI_REQUIRE(st.is_ok(), "coll: staged allgather unpack failed: " + st.to_string());
    });
}

void alltoall_pairwise(Sched& s, const void* in, std::size_t bytes_each, void* out) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    s.then([out, in, r, bytes_each] {
        std::memcpy(static_cast<std::byte*>(out) + offset(r, bytes_each),
                    static_cast<const std::byte*>(in) + offset(r, bytes_each), bytes_each);
    });
    // The round index fixes the pairing, so the output is deterministic for
    // any arrival order.
    const int base = s.reserve(n - 1);
    for (int t = 1; t < n; ++t) {
        const int to = (r + t) % n;
        const int from = (r - t + n) % n;
        s.recv(base + t - 1, from, raw(out), offset(from, bytes_each), bytes_each);
        s.send(base + t - 1, to, raw(in), offset(to, bytes_each), bytes_each);
    }
}

void alltoall_spread(Sched& s, const void* in, std::size_t bytes_each, void* out) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    s.then([out, in, r, bytes_each] {
        std::memcpy(static_cast<std::byte*>(out) + offset(r, bytes_each),
                    static_cast<const std::byte*>(in) + offset(r, bytes_each), bytes_each);
    });
    // Blocks land at fixed offsets, so the result is byte-identical to the
    // pairwise schedule.
    const int round = s.reserve(1);
    for (int t = 1; t < n; ++t) {
        const int to = (r + t) % n;
        const int from = (r - t + n) % n;
        s.send(round, to, raw(in), offset(to, bytes_each), bytes_each);
        s.recv(round, from, raw(out), offset(from, bytes_each), bytes_each);
    }
}

void gather(Sched& s, const void* in, std::size_t bytes_each, void* out, int root) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    // Round i carries rank i's block to the root.
    const int base = s.reserve(n);
    if (r != root) {
        s.send(base + r, root, raw(in), 0, bytes_each);
        return;
    }
    for (int i = 0; i < n; ++i) {
        if (i == root)
            s.post(base + i, [out, in, i, bytes_each] {
                std::memcpy(static_cast<std::byte*>(out) + offset(i, bytes_each), in, bytes_each);
            });
        else
            s.recv(base + i, i, raw(out), offset(i, bytes_each), bytes_each);
    }
}

void scatter(Sched& s, const void* in, std::size_t bytes_each, void* out, int root) {
    const int n = s.comm().size();
    const int r = s.comm().rank();
    // Round i carries the root's block i to rank i.
    const int base = s.reserve(n);
    if (r != root) {
        s.recv(base + r, root, raw(out), 0, bytes_each);
        return;
    }
    for (int i = 0; i < n; ++i) {
        if (i == root)
            s.post(base + i, [out, in, i, bytes_each] {
                std::memcpy(out, static_cast<const std::byte*>(in) + offset(i, bytes_each),
                            bytes_each);
            });
        else
            s.send(base + i, i, raw(in), offset(i, bytes_each), bytes_each);
    }
}

}  // namespace scimpi::mpi::coll
