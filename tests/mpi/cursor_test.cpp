// Differential test of the block cursor against references that live only
// here: a recursive walker over each random type's constructor arguments
// (the canonical type map, coalesced), and the leaf-stack odometer that
// drove direct_pack_ff before the cursor (leaf-major order over FlatRep).
// for_each_block, GenericPacker and FFPacker must match them block for
// block, in bytes and in PackWork, on random packed-stream ranges.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mpi/datatype/pack_ff.hpp"
#include "mpi/datatype/pack_generic.hpp"

namespace scimpi::mpi {
namespace {

using Block = std::pair<std::ptrdiff_t, std::size_t>;
using Blocks = std::vector<Block>;

// ---------------------------------------------------------------------------
// Random types with their constructor arguments, and the reference walker.
// ---------------------------------------------------------------------------

struct Spec {
    Datatype type;
    TypeKind kind = TypeKind::basic;
    bool subarray = false;
    int count = 0;
    int blocklen = 0;
    std::ptrdiff_t stride_bytes = 0;
    std::vector<int> blocklens;
    std::vector<std::ptrdiff_t> displs_bytes;
    std::vector<int> sizes, subsizes, starts;
    std::vector<std::shared_ptr<Spec>> children;
};

using SpecPtr = std::shared_ptr<Spec>;

/// Recursive type-map walk of one instance at `base`: every basic block.
void walk(const Spec& s, std::ptrdiff_t base, Blocks& out) {
    if (s.subarray) {
        // C order over the slab; element offsets straight from the definition.
        const Spec& c = *s.children[0];
        const std::ptrdiff_t ext = c.type.extent();
        const std::size_t dims = s.sizes.size();
        if (std::find(s.subsizes.begin(), s.subsizes.end(), 0) != s.subsizes.end()) return;
        std::vector<int> idx(dims, 0);
        for (;;) {
            std::ptrdiff_t elem = 0;
            for (std::size_t d = 0; d < dims; ++d) elem = elem * s.sizes[d] + s.starts[d] + idx[d];
            walk(c, base + elem * ext, out);
            std::size_t d = dims;
            while (d > 0 && ++idx[d - 1] == s.subsizes[d - 1]) idx[--d] = 0;
            if (d == 0) return;
        }
    }
    switch (s.kind) {
        case TypeKind::basic:
            out.emplace_back(base, s.type.size());
            return;
        case TypeKind::contiguous:
            for (int i = 0; i < s.count; ++i)
                walk(*s.children[0], base + i * s.children[0]->type.extent(), out);
            return;
        case TypeKind::vector:
        case TypeKind::hvector:
            for (int i = 0; i < s.count; ++i)
                for (int j = 0; j < s.blocklen; ++j)
                    walk(*s.children[0],
                         base + i * s.stride_bytes + j * s.children[0]->type.extent(), out);
            return;
        case TypeKind::indexed:
        case TypeKind::hindexed:
        case TypeKind::strukt:
            for (std::size_t i = 0; i < s.blocklens.size(); ++i) {
                const Spec& c = *s.children[s.kind == TypeKind::strukt ? i : 0];
                for (int j = 0; j < s.blocklens[i]; ++j)
                    walk(c, base + s.displs_bytes[i] + j * c.type.extent(), out);
            }
            return;
        case TypeKind::resized:
            walk(*s.children[0], base, out);
            return;
    }
}

/// Reference canonical sequence: `count` instances, adjacent blocks merged.
Blocks reference_blocks(const Spec& s, std::ptrdiff_t base, int count) {
    Blocks raw;
    for (int c = 0; c < count; ++c) walk(s, base + c * s.type.extent(), raw);
    Blocks out;
    for (const auto& [off, len] : raw) {
        if (!out.empty() &&
            out.back().first + static_cast<std::ptrdiff_t>(out.back().second) == off)
            out.back().second += len;
        else
            out.emplace_back(off, len);
    }
    return out;
}

SpecPtr basic(Rng& rng) {
    auto s = std::make_shared<Spec>();
    switch (rng.below(4)) {
        case 0: s->type = Datatype::byte_(); break;
        case 1: s->type = Datatype::int32(); break;
        case 2: s->type = Datatype::int64(); break;
        default: s->type = Datatype::float64(); break;
    }
    return s;
}

/// Lengths 0..3 (0 allowed) with at least one nonzero entry.
std::vector<int> random_lens(Rng& rng, std::size_t n) {
    std::vector<int> lens(n);
    for (int& l : lens) l = static_cast<int>(rng.below(4));
    if (std::all_of(lens.begin(), lens.end(), [](int l) { return l == 0; })) lens[0] = 1;
    return lens;
}

SpecPtr random_spec(Rng& rng, int depth) {
    if (depth <= 0 || rng.chance(0.25)) return basic(rng);
    auto s = std::make_shared<Spec>();
    SpecPtr child = random_spec(rng, depth - 1);
    const Datatype& base = child->type;
    const int count = static_cast<int>(rng.range(1, 3));
    switch (rng.below(8)) {
        case 0:
            s->kind = TypeKind::contiguous;
            s->count = count;
            s->type = Datatype::contiguous(count, base);
            break;
        case 1: {
            // Element stride in [-3, 3]: negative, overlapping and dense ones.
            s->kind = TypeKind::vector;
            s->count = count;
            s->blocklen = static_cast<int>(rng.below(3));
            const int stride = static_cast<int>(rng.range(-3, 3));
            s->stride_bytes = stride * base.extent();
            s->type = Datatype::vector(count, s->blocklen, stride, base);
            break;
        }
        case 2:
            s->kind = TypeKind::hvector;
            s->count = count;
            s->blocklen = static_cast<int>(rng.range(1, 2));
            s->stride_bytes = rng.range(-2, 3) * base.extent() + rng.range(-4, 4);
            s->type = Datatype::hvector(count, s->blocklen, s->stride_bytes, base);
            break;
        case 3: {
            s->kind = TypeKind::indexed;
            const auto n = static_cast<std::size_t>(count);
            s->blocklens = random_lens(rng, n);
            std::vector<int> displs(n);
            for (int& d : displs) d = static_cast<int>(rng.range(-4, 6));
            for (const int d : displs) s->displs_bytes.push_back(d * base.extent());
            s->type = Datatype::indexed(s->blocklens, displs, base);
            break;
        }
        case 4: {
            s->kind = TypeKind::hindexed;
            const auto n = static_cast<std::size_t>(count);
            s->blocklens = random_lens(rng, n);
            for (std::size_t i = 0; i < n; ++i)
                s->displs_bytes.push_back(rng.range(-40, 60));
            s->type = Datatype::hindexed(s->blocklens, s->displs_bytes, base);
            break;
        }
        case 5: {
            s->kind = TypeKind::strukt;
            const auto n = static_cast<std::size_t>(count);
            s->blocklens = random_lens(rng, n);
            std::vector<Datatype> types;
            for (std::size_t i = 0; i < n; ++i) {
                SpecPtr member = i == 0 ? child : random_spec(rng, depth - 1);
                // Back-to-back members now and then, to exercise fusing.
                const std::ptrdiff_t at =
                    i == 0 ? 0
                           : s->displs_bytes.back() +
                                 s->blocklens[i - 1] * types.back().extent() +
                                 (rng.chance(0.5) ? 0 : rng.range(-8, 16));
                s->displs_bytes.push_back(at);
                types.push_back(member->type);
                s->children.push_back(member);
            }
            s->type = Datatype::structure(s->blocklens, s->displs_bytes, types);
            return s;
        }
        case 6: {
            s->kind = TypeKind::resized;
            const std::ptrdiff_t lb = base.lb() + rng.range(-8, 8);
            const std::ptrdiff_t extent = std::max<std::ptrdiff_t>(
                0, base.extent() + rng.range(-8, 16));
            s->type = Datatype::resized(base, lb, extent);
            break;
        }
        default: {
            s->subarray = true;
            const auto dims = static_cast<std::size_t>(rng.range(1, 3));
            for (std::size_t d = 0; d < dims; ++d) {
                const int size = static_cast<int>(rng.range(1, 4));
                const int sub = static_cast<int>(rng.range(0, size));
                s->sizes.push_back(size);
                s->subsizes.push_back(sub);
                s->starts.push_back(static_cast<int>(rng.range(0, size - sub)));
            }
            s->type = Datatype::subarray(s->sizes, s->subsizes, s->starts, base);
            break;
        }
    }
    s->children.push_back(child);
    return s;
}

// ---------------------------------------------------------------------------
// Reference packers.
// ---------------------------------------------------------------------------

/// Block-for-block record of one pack: what it touched and the PackWork.
struct Trace {
    Blocks blocks;
    PackWork work;
};

Trace clip(const Blocks& seq, std::size_t pos, std::size_t len) {
    Trace t;
    t.work.min_block = std::numeric_limits<std::size_t>::max();
    std::size_t cursor = 0;
    const std::size_t end = pos + len;
    for (const auto& [off, blk] : seq) {
        const std::size_t lo = std::max(cursor, pos);
        const std::size_t hi = std::min(cursor + blk, end);
        if (lo < hi) {
            t.blocks.emplace_back(off + static_cast<std::ptrdiff_t>(lo - cursor), hi - lo);
            t.work.bytes += hi - lo;
            ++t.work.blocks;
            t.work.min_block = std::min(t.work.min_block, hi - lo);
            t.work.max_block = std::max(t.work.max_block, hi - lo);
        }
        cursor += blk;
    }
    if (t.work.blocks == 0) t.work.min_block = 0;
    return t;
}

/// The leaf-major odometer over FlatRep that direct_pack_ff used to run:
/// every leaf block of every instance, in stream order.
Blocks reference_leaf_major(const Datatype& t, int count) {
    const FlatRep& flat = t.flat();
    Blocks out;
    for (int c = 0; c < count; ++c) {
        for (const FlatLeaf& leaf : flat.leaves) {
            std::vector<std::int64_t> digit(leaf.stack.size(), 0);
            for (;;) {
                std::ptrdiff_t off = c * flat.type_extent + leaf.first_offset;
                for (std::size_t i = 0; i < digit.size(); ++i)
                    off += digit[i] * leaf.stack[i].extent;
                out.emplace_back(off, leaf.blocklen);
                std::size_t i = digit.size();
                while (i > 0 && ++digit[i - 1] == leaf.stack[i - 1].count) digit[--i] = 0;
                if (i == 0) break;
            }
        }
    }
    return out;
}

void expect_work(const PackWork& got, const PackWork& want, const char* what) {
    EXPECT_EQ(got.bytes, want.bytes) << what;
    EXPECT_EQ(got.blocks, want.blocks) << what;
    EXPECT_EQ(got.min_block, want.min_block) << what;
    EXPECT_EQ(got.max_block, want.max_block) << what;
}

/// Ranges to test: whole, random, and starting one byte into each of a few
/// blocks of `seq` (mid-block, and for a canonical map mid-coalesced-run).
std::vector<std::pair<std::size_t, std::size_t>> ranges(Rng& rng, const Blocks& seq,
                                                         std::size_t total) {
    std::vector<std::pair<std::size_t, std::size_t>> out{{0, total}, {0, 0}, {total, 0}};
    for (int i = 0; i < 12; ++i) {
        const std::size_t pos = rng.below(total);
        out.emplace_back(pos, rng.below(total - pos + 1));
    }
    std::size_t cursor = 0;
    for (const auto& [off, len] : seq) {
        if (len >= 2 && out.size() < 40 && rng.chance(0.3)) {
            const std::size_t pos = cursor + 1;
            out.emplace_back(pos, rng.below(total - pos + 1));
            out.emplace_back(pos, std::min<std::size_t>(len - 1, total - pos));
        }
        cursor += len;
    }
    return out;
}

/// Compare `count` instances of `spec` against both references.
void check_against_references(const SpecPtr& spec, int count, Rng& rng) {
    Datatype t = spec->type;
    const std::size_t total = t.size() * static_cast<std::size_t>(count);
    const Blocks want = reference_blocks(*spec, 0, count);
    if (total == 0) {
        int visits = 0;
        t.for_each_block(0, count, [&](std::ptrdiff_t, std::size_t) { ++visits; });
        EXPECT_EQ(visits, 0);
        EXPECT_TRUE(want.empty());
        return;
    }

    // Buffer covering every touched byte; `base` maps offset 0 into it.
    std::ptrdiff_t lo = 0, hi = 1;
    for (const auto& [off, len] : want) {
        lo = std::min(lo, off);
        hi = std::max(hi, off + static_cast<std::ptrdiff_t>(len));
    }
    std::vector<std::byte> user(static_cast<std::size_t>(hi - lo));
    for (std::size_t i = 0; i < user.size(); ++i)
        user[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
    std::byte* base = user.data() - lo;

    // for_each_block, uncommitted (map built from the tree) and at a base.
    Blocks got;
    t.for_each_block(0, count, [&](std::ptrdiff_t off, std::size_t len) {
        got.emplace_back(off, len);
    });
    EXPECT_EQ(got, want);
    got.clear();
    t.for_each_block(-24, count, [&](std::ptrdiff_t off, std::size_t len) {
        got.emplace_back(off, len);
    });
    EXPECT_EQ(got, reference_blocks(*spec, -24, count));

    const GenericPacker uncommitted(t, count, base);
    for (const bool merge : {true, false}) {
        Datatype tc = Datatype::resized(t, t.lb(), t.extent());  // fresh node
        Config cfg;
        cfg.ff_merge_stacks = merge;
        tc.commit(cfg);
        got.clear();
        tc.for_each_block(0, count, [&](std::ptrdiff_t off, std::size_t len) {
            got.emplace_back(off, len);
        });
        EXPECT_EQ(got, want);

        const Blocks leaf_major = reference_leaf_major(tc, count);
        const GenericPacker gp(tc, count, base);
        const FFPacker ff(tc, count, base);
        for (const auto& [pos, len] : ranges(rng, want, total)) {
            SCOPED_TRACE(::testing::Message() << "pos=" << pos << " len=" << len
                                              << " merge=" << merge);
            // Generic: canonical blocks, clipped.
            const Trace g = clip(want, pos, len);
            std::vector<std::byte> expect_bytes;
            for (const auto& [off, n] : g.blocks)
                expect_bytes.insert(expect_bytes.end(), base + off, base + off + n);
            std::vector<std::byte> stream(len);
            expect_work(gp.pack(pos, len, stream.data()), g.work, "generic pack");
            EXPECT_EQ(stream, expect_bytes);
            std::fill(stream.begin(), stream.end(), std::byte{0});
            expect_work(uncommitted.pack(pos, len, stream.data()), g.work, "uncommitted");
            EXPECT_EQ(stream, expect_bytes);

            // ff: the leaf odometer's blocks, clipped, one by one.
            const Trace f = clip(leaf_major, pos, len);
            Blocks ff_blocks;
            const PackWork fw = ff.for_range(pos, len, [&](std::byte* mem, std::size_t n) {
                ff_blocks.emplace_back(mem - base, n);
            });
            expect_work(fw, f.work, "ff for_range");
            EXPECT_EQ(ff_blocks, f.blocks);

            // Unpack scatters the same blocks back, in the same order.
            std::vector<std::byte> back(user.size(), std::byte{0});
            std::vector<std::byte> ref(user.size(), std::byte{0});
            std::byte* back_base = back.data() - lo;
            const std::byte* src = expect_bytes.data();
            for (const auto& [off, n] : g.blocks) {
                std::memcpy(ref.data() - lo + off, src, n);
                src += n;
            }
            expect_work(GenericPacker(tc, count, back_base).unpack(pos, len, expect_bytes.data()),
                        g.work, "generic unpack");
            EXPECT_EQ(back, ref);
        }
    }
}

class CursorDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CursorDifferential, MatchesRecursiveWalkerAndLeafOdometer) {
    Rng rng(GetParam());
    const SpecPtr spec = random_spec(rng, 3);
    check_against_references(spec, static_cast<int>(rng.range(1, 3)), rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorDifferential, ::testing::Range<std::uint64_t>(1, 201));

TEST(BlockCursor, DeepTypeNeedsMoreFramesThanInline) {
    // Ten nested hvectors; a gap that grows with the level keeps any level
    // from tiling the one below, so the map has ten levels.
    Rng rng(10);
    SpecPtr spec = basic(rng);
    for (int level = 0; level < 10; ++level) {
        auto s = std::make_shared<Spec>();
        s->kind = TypeKind::hvector;
        s->count = 2;
        s->blocklen = 1;
        s->stride_bytes = spec->type.extent() + 8 * (level + 1);
        s->type = Datatype::hvector(2, 1, s->stride_bytes, spec->type);
        s->children.push_back(spec);
        spec = s;
    }
    Datatype t = spec->type;
    t.commit();
    ASSERT_GT(t.canonical_map()->depth, 8u);
    check_against_references(spec, 2, rng);
}

TEST(BlockCursor, ChunkedCanonicalRunsSplitOnlyAtChunkEdges) {
    // One coalesced run spans instances: a chunk starting inside it yields
    // the run's tail, and the next chunk resumes mid-run.
    const Datatype t = Datatype::vector(2, 1, 1, Datatype::int64());  // dense 16 B
    const std::shared_ptr<const BlockMap> map = t.canonical_map();
    Blocks got;
    for (std::size_t pos = 0; pos < 64; pos += 24)
        for (BlockCursor c(*map, 0, 4, pos, std::min<std::size_t>(24, 64 - pos)); !c.done();
             c.next())
            got.emplace_back(c.offset(), c.length());
    EXPECT_EQ(got, (Blocks{{0, 24}, {24, 24}, {48, 16}}));
}

TEST(BlockCursor, RangeBeyondStreamIsRejected) {
    Datatype t = Datatype::vector(3, 1, 2, Datatype::float64());
    t.commit();
    EXPECT_THROW(BlockCursor(t.leaf_major_map(), 0, 2, 40, 9), Panic);
    EXPECT_NO_THROW(BlockCursor(t.leaf_major_map(), 0, 2, 40, 8));
}

}  // namespace
}  // namespace scimpi::mpi
