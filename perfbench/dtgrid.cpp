#include "dtgrid.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/rng.hpp"
#include "mpi/datatype/pack_ff.hpp"
#include "mpi/datatype/pack_generic.hpp"

namespace perf {

using namespace scimpi;
using namespace scimpi::mpi;

namespace {

constexpr std::size_t kGridPayload = 256_KiB;

/// Median wall ns of `fn` over at least 3 calls and about `min_ms` in total.
double median_ns(const std::function<void()>& fn, double min_ms) {
    std::vector<double> samples;
    const std::int64_t start = wall_ns();
    while (samples.size() < 3 ||
           (static_cast<double>(wall_ns() - start) < min_ms * 1e6 && samples.size() < 2000)) {
        const std::int64_t t0 = wall_ns();
        fn();
        samples.push_back(static_cast<double>(wall_ns() - t0));
    }
    return median(std::move(samples));
}

Datatype grid_type(const std::string& layout, std::size_t block, Rng& rng) {
    const auto elems = static_cast<int>(block / sizeof(double));  // doubles per block
    const auto nb = static_cast<int>(kGridPayload / block);        // blocks per pack
    const Datatype f64 = Datatype::float64();
    if (layout == "vector") return Datatype::vector(nb, elems, 2 * elems, f64);
    if (layout == "indexed") {
        std::vector<int> lens(static_cast<std::size_t>(nb), elems);
        std::vector<int> displs;
        int at = 0;
        for (int i = 0; i < nb; ++i) {
            displs.push_back(at);
            at += elems + static_cast<int>(rng.range(1, elems));
        }
        return Datatype::indexed(lens, displs, f64);
    }
    if (layout == "struct") {
        // {doubles, gap, int32s}: two `block`-byte blocks of different types.
        const int lens[] = {elems, 2 * elems};
        const std::ptrdiff_t displs[] = {0, static_cast<std::ptrdiff_t>(block) + 8};
        const Datatype types[] = {f64, Datatype::int32()};
        return Datatype::contiguous(nb / 2, Datatype::structure(lens, displs, types));
    }
    const int sizes[] = {nb, 2 * elems};
    const int subsizes[] = {nb, elems};
    const int starts[] = {0, elems / 2};
    return Datatype::subarray(sizes, subsizes, starts, f64);
}

}  // namespace

PackCost time_packers(const Datatype& type, std::size_t chunk, double min_ms) {
    const Blocks blocks = blocks_of(type, 1);
    std::size_t span = 0;
    for (const auto& [off, len] : blocks)
        span = std::max(span, static_cast<std::size_t>(off) + len);
    std::vector<std::byte> user(span);
    fill_pattern(user.data(), {{0, span}}, 0x5eed);
    const std::size_t total = type.size();
    std::vector<std::byte> want(total), out(total);

    const FFPacker ff(type, 1, user.data());
    const GenericPacker gp(type, 1, user.data());
    auto manual = [&](std::byte* dst) {
        std::size_t pos = 0;
        for (const auto& [off, len] : blocks) {
            std::memcpy(dst + pos, user.data() + off, len);
            pos += len;
        }
    };
    auto chunked = [&](auto& packer) {
        for (std::size_t pos = 0; pos < total; pos += chunk)
            (void)packer.pack(pos, std::min(chunk, total - pos), out.data() + pos);
    };

    PackCost c;
    c.blocks = static_cast<std::int64_t>(blocks.size());
    const double nblocks = std::max<double>(1.0, static_cast<double>(blocks.size()));
    c.manual = median_ns([&] { manual(want.data()); }, min_ms) / nblocks;

    // Generic packs in canonical type-map order: byte-identical to manual.
    c.generic = median_ns([&] { (void)gp.pack(0, total, out.data()); }, min_ms) / nblocks;
    c.ok = c.ok && out == want;
    std::fill(out.begin(), out.end(), std::byte{0});
    c.generic_chunked = median_ns([&] { chunked(gp); }, min_ms) / nblocks;
    c.ok = c.ok && out == want;

    // ff packs leaf-major: check chunked == whole, then unpack round trip.
    c.ff_chunked = median_ns([&] { chunked(ff); }, min_ms) / nblocks;
    const std::vector<std::byte> ff_chunked_out = out;
    c.ff = median_ns([&] { (void)ff.pack(0, total, out.data()); }, min_ms) / nblocks;
    c.ok = c.ok && out == ff_chunked_out;
    std::vector<std::byte> back(span);
    (void)FFPacker(type, 1, back.data()).unpack(0, total, out.data());
    for (const auto& [off, len] : blocks)
        c.ok = c.ok && std::memcmp(back.data() + off, user.data() + off, len) == 0;
    return c;
}

std::vector<GridCell> run_grid(std::uint64_t seed, std::size_t chunk, double min_ms) {
    Rng rng(mix64(seed ^ 0x67726964ull));
    std::vector<GridCell> cells;
    for (const char* layout : {"vector", "indexed", "struct", "subarray"}) {
        for (const std::size_t block : {8, 64, 512, 4096}) {
            GridCell g;
            g.layout = layout;
            g.block = block;
            std::vector<double> commit_ns;
            Datatype t;
            for (int i = 0; i < 3; ++i) {
                t = grid_type(layout, block, rng);
                const std::int64_t t0 = wall_ns();
                t.commit();
                commit_ns.push_back(static_cast<double>(wall_ns() - t0));
            }
            g.commit_us = median(std::move(commit_ns)) * 1e-3;
            g.cost = time_packers(t, chunk, min_ms);
            cells.push_back(std::move(g));
        }
    }
    return cells;
}

}  // namespace perf
