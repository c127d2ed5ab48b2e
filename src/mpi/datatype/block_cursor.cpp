#include "mpi/datatype/block_cursor.hpp"

namespace scimpi::mpi {

namespace {

std::size_t nest_count(const std::vector<LoopNest>& run) {
    std::size_t n = run.size();
    for (const LoopNest& c : run) n += nest_count(c.body);
    return n;
}

}  // namespace

BlockMap::BlockMap(const std::vector<LoopNest>& roots_in, std::size_t type_size,
                   std::ptrdiff_t type_extent)
    : size(type_size), extent(type_extent), coalesce(true) {
    entries.reserve(nest_count(roots_in));
    const std::size_t payload = add_run(roots_in, 1);
    roots = static_cast<std::uint32_t>(roots_in.size());
    SCIMPI_REQUIRE(payload == size, "block map: payload differs from type size");
}

BlockMap::BlockMap(const FlatRep& rep)
    : roots(static_cast<std::uint32_t>(rep.leaves.size())),
      size(rep.type_size),
      extent(rep.type_extent) {
    std::size_t total = 0;
    for (const FlatLeaf& leaf : rep.leaves) total += std::max<std::size_t>(1, leaf.stack.size());
    entries.reserve(total);
    entries.resize(roots);
    std::size_t off = 0;
    for (std::uint32_t i = 0; i < roots; ++i) {
        const FlatLeaf& leaf = rep.leaves[i];
        const std::size_t levels = std::max<std::size_t>(1, leaf.stack.size());
        depth = std::max(depth, levels);
        // Level 0 is root i; level l > 0 sits at chain + l - 1.
        const auto chain = static_cast<std::uint32_t>(entries.size());
        entries.resize(chain + levels - 1);
        std::size_t bytes = leaf.blocklen;  // payload of one replication
        for (std::size_t l = levels; l-- > 0;) {
            const auto at = static_cast<std::uint32_t>(l == 0 ? i : chain + l - 1);
            Entry& e = entries[at];
            if (!leaf.stack.empty()) {
                e.count = leaf.stack[l].count;
                e.stride = leaf.stack[l].extent;
            }
            e.disp = l == 0 ? leaf.first_offset : 0;
            e.blocklen = l + 1 == levels ? leaf.blocklen : 0;
            e.first = l + 1 == levels ? 0 : static_cast<std::uint32_t>(chain + l);
            e.sib_end = l == 0 ? roots : at + 1;
            e.rep_bytes = bytes;
            e.stream_off = l == 0 ? off : 0;
            bytes *= static_cast<std::size_t>(e.count);
        }
        off += bytes;
    }
    SCIMPI_REQUIRE(off == size, "block map: payload differs from type size");
}

std::size_t BlockMap::add_run(const std::vector<LoopNest>& run, std::size_t level) {
    // The whole run goes in first, so siblings are contiguous; each child's
    // own run follows (depth first). Returns the run's payload.
    const std::size_t first = entries.size();
    const auto end = static_cast<std::uint32_t>(first + run.size());
    for (const LoopNest& n : run) {
        Entry e;
        e.disp = n.disp;
        e.count = n.count;
        e.stride = n.stride;
        e.blocklen = n.blocklen;
        e.rep_bytes = n.blocklen;
        e.sib_end = end;
        entries.push_back(e);
    }
    depth = std::max(depth, level);
    std::size_t off = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
        if (run[i].blocklen == 0) {
            const auto kids = static_cast<std::uint32_t>(entries.size());
            const std::size_t bytes = add_run(run[i].body, level + 1);
            entries[first + i].first = kids;
            entries[first + i].rep_bytes = bytes;
        }
        Entry& e = entries[first + i];
        SCIMPI_REQUIRE(e.count > 0 && e.rep_bytes > 0, "block map: empty entry");
        e.stream_off = off;
        off += static_cast<std::size_t>(e.count) * e.rep_bytes;
    }
    return off;
}

BlockCursor::BlockCursor(const BlockMap& map, std::ptrdiff_t base, std::int64_t instances,
                         std::size_t pos, std::size_t len)
    : entries_(map.entries.data()),
      extent_(map.extent),
      coalesce_(map.coalesce),
      remaining_(len) {
    SCIMPI_REQUIRE(instances >= 0, "block cursor: negative instance count");
    SCIMPI_REQUIRE(pos + len <= map.size * static_cast<std::size_t>(instances),
                   "block cursor: range exceeds the stream");
    if (len == 0) return;
    if (map.depth > kInlineFrames) {
        deep_frames_.resize(map.depth);
        frames_ = deep_frames_.data();
    }
    seek(map, base, pos);
    take();
}

void BlockCursor::roll() {
    for (;;) {
        Frame& f = frames_[top_];
        if (f.e + 1 < entries_[f.e].sib_end) {
            ++f.e;
            f.rep = 0;
            f.at = f.origin + entries_[f.e].disp;
            break;
        }
        if (top_ == 0) {  // next type instance
            f.origin += extent_;
            f.e = 0;
            f.rep = 0;
            f.at = f.origin + entries_[0].disp;
            break;
        }
        --top_;
        Frame& up = frames_[top_];
        if (++up.rep < entries_[up.e].count) {
            up.at += entries_[up.e].stride;
            break;
        }
    }
    // Down to the first leaf under the top frame.
    for (;;) {
        const Frame& f = frames_[top_];
        const BlockMap::Entry& m = entries_[f.e];
        if (m.blocklen > 0) return;
        const std::ptrdiff_t at = f.at;
        frames_[++top_] = Frame{m.first, 0, at, at + entries_[m.first].disp};
    }
}

void BlockCursor::seek(const BlockMap& map, std::ptrdiff_t base, std::size_t pos) {
    const auto& entries = map.entries;
    std::ptrdiff_t origin = base + static_cast<std::ptrdiff_t>(pos / map.size) * map.extent;
    std::size_t rem = pos % map.size;
    std::uint32_t lo = 0;
    std::uint32_t hi = map.roots;
    for (top_ = 0;; ++top_) {
        // The last sibling whose stream range starts at or before `rem`.
        const auto it = std::upper_bound(
            entries.begin() + lo, entries.begin() + hi, rem,
            [](std::size_t v, const BlockMap::Entry& m) { return v < m.stream_off; });
        const auto e = static_cast<std::uint32_t>(it - entries.begin() - 1);
        const BlockMap::Entry& m = entries[e];
        rem -= m.stream_off;
        const auto rep = static_cast<std::int64_t>(rem / m.rep_bytes);
        rem %= m.rep_bytes;
        frames_[top_] = Frame{e, rep, origin, origin + m.disp + rep * m.stride};
        if (m.blocklen > 0) {
            split_ = rem;
            return;
        }
        origin = frames_[top_].at;
        lo = m.first;
        hi = entries[m.first].sib_end;
    }
}

}  // namespace scimpi::mpi
