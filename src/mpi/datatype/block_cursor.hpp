// The one host-side datatype traversal: a block map flattened once per type
// and a non-recursive cursor over it (paper Section 3.3: flatten at commit,
// then iterate with stack loops instead of a recursive descent).
//
// A BlockMap is a loop nest stored as a flat array. Each entry is `count`
// replications, `stride` bytes apart, of either one contiguous block (a
// leaf) or a run of child entries. A type has two maps, one per order:
//
//   * leaf_major: ff's packed order, one root entry per FlatLeaf with its
//     ff-stack as nested entries. Blocks are handed out one by one.
//   * canonical: the type-map order of the constructor tree. Dense runs are
//     merged when the map is built, and the cursor coalesces blocks that are
//     adjacent in memory, across type instances too, so the sequence is the
//     maximal contiguous runs of the type map whatever the tree's shape.
//
// BlockCursor seeks to any packed-stream offset in O(depth) (a binary search
// among siblings per level, like ff's find_position and leaf-stack decode),
// so a chunk of a long message costs only its own blocks.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.hpp"
#include "mpi/datatype/flatten.hpp"

namespace scimpi::mpi {

/// Build-time form of one map entry: a tree that BlockMap stores flattened.
struct LoopNest {
    std::ptrdiff_t disp = 0;       ///< offset from the enclosing replication
    std::int64_t count = 1;        ///< replications
    std::ptrdiff_t stride = 0;     ///< byte step between replications
    std::size_t blocklen = 0;      ///< > 0: a leaf of this many bytes
    std::vector<LoopNest> body;    ///< children of a non-leaf, in order
};

struct BlockMap {
    struct Entry {
        std::ptrdiff_t disp = 0;
        std::int64_t count = 1;
        std::ptrdiff_t stride = 0;
        std::size_t blocklen = 0;      ///< > 0: leaf
        std::size_t rep_bytes = 0;     ///< payload of one replication
        std::size_t stream_off = 0;    ///< payload of the preceding siblings
        std::uint32_t first = 0;       ///< first child; the children end at its sib_end
        std::uint32_t sib_end = 0;     ///< one past the last sibling
    };

    std::vector<Entry> entries;    ///< roots are [0, roots)
    std::uint32_t roots = 0;
    std::size_t size = 0;          ///< payload per type instance
    std::ptrdiff_t extent = 0;     ///< distance between type instances
    std::size_t depth = 0;         ///< deepest entry nesting (cursor frames)
    bool coalesce = false;         ///< canonical: merge memory-adjacent blocks

    BlockMap() = default;
    /// Canonical order: flatten `roots` (one type instance) so that every
    /// entry's children are contiguous.
    BlockMap(const std::vector<LoopNest>& roots, std::size_t type_size,
             std::ptrdiff_t type_extent);
    /// Leaf-major order: one root per leaf, its ff-stack as a chain of
    /// levels, outermost first.
    explicit BlockMap(const FlatRep& rep);

private:
    std::size_t add_run(const std::vector<LoopNest>& run, std::size_t level);
};

/// Pull-style cursor over packed-stream range [pos, pos+len) of `instances`
/// consecutive type instances, the first at memory offset `base`. Each step
/// yields one block: offset() and length(), in the map's order.
class BlockCursor {
public:
    BlockCursor(const BlockMap& map, std::ptrdiff_t base, std::int64_t instances,
                std::size_t pos, std::size_t len);
    /// The whole stream of `instances` instances.
    BlockCursor(const BlockMap& map, std::ptrdiff_t base, std::int64_t instances)
        : BlockCursor(map, base, instances, 0,
                      map.size * static_cast<std::size_t>(instances)) {}

    BlockCursor(const BlockCursor&) = delete;  // frames_ may point into *this
    BlockCursor& operator=(const BlockCursor&) = delete;

    [[nodiscard]] bool done() const { return len_ == 0; }
    [[nodiscard]] std::ptrdiff_t offset() const { return off_; }
    [[nodiscard]] std::size_t length() const { return len_; }
    void next() { take(); }

private:
    struct Frame {
        std::uint32_t e = 0;         ///< entry index
        std::int64_t rep = 0;        ///< replication counter
        std::ptrdiff_t origin = 0;   ///< memory offset of the enclosing replication
        std::ptrdiff_t at = 0;       ///< memory offset of this replication
    };

    void seek(const BlockMap& map, std::ptrdiff_t base, std::size_t pos);
    /// Move the frames to the next leaf block (one must exist).
    void step();
    /// step() past the last replication of the top entry: next sibling,
    /// else up a level, else the next type instance; then down to a leaf.
    void roll();
    /// Hand out the next block (coalesced for a canonical map).
    void take();

    // Frames live inline, so a cursor costs no allocation; only maps nested
    // deeper than kInlineFrames levels use deep_frames_.
    static constexpr std::size_t kInlineFrames = 8;

    const BlockMap::Entry* entries_;
    std::ptrdiff_t extent_;
    bool coalesce_;
    std::array<Frame, kInlineFrames> inline_frames_;
    std::vector<Frame> deep_frames_;
    Frame* frames_ = inline_frames_.data();
    std::size_t top_ = 0;
    std::size_t split_ = 0;       ///< bytes of the current leaf block consumed
    std::size_t remaining_ = 0;   ///< range bytes not yet handed out
    std::ptrdiff_t off_ = 0;
    std::size_t len_ = 0;
};

inline void BlockCursor::step() {
    Frame& f = frames_[top_];
    const BlockMap::Entry& m = entries_[f.e];
    if (++f.rep < m.count) {
        f.at += m.stride;
        return;
    }
    roll();
}

inline void BlockCursor::take() {
    if (remaining_ == 0) {
        len_ = 0;
        return;
    }
    std::size_t blocklen = entries_[frames_[top_].e].blocklen;
    off_ = frames_[top_].at + static_cast<std::ptrdiff_t>(split_);
    len_ = std::min(blocklen - split_, remaining_);
    remaining_ -= len_;
    split_ += len_;
    while (split_ == blocklen && remaining_ > 0) {
        split_ = 0;
        step();
        const Frame& f = frames_[top_];
        if (!coalesce_ || f.at != off_ + static_cast<std::ptrdiff_t>(len_)) return;
        blocklen = entries_[f.e].blocklen;
        split_ = std::min(blocklen, remaining_);
        len_ += split_;
        remaining_ -= split_;
    }
}

/// Work metrics of one pack/unpack invocation, for the cost model.
struct PackWork {
    std::size_t bytes = 0;        ///< payload moved
    std::int64_t blocks = 0;      ///< basic blocks touched
    std::size_t min_block = 0;    ///< smallest block touched (0 if none)
    std::size_t max_block = 0;    ///< largest block touched
};

/// Hand every block of `cur` to f(offset, len) and tally the work.
template <class F>
PackWork tally_blocks(BlockCursor cur, F&& f) {
    PackWork work;
    work.min_block = std::numeric_limits<std::size_t>::max();
    for (; !cur.done(); cur.next()) {
        const std::size_t n = cur.length();
        f(cur.offset(), n);
        work.bytes += n;
        ++work.blocks;
        work.min_block = std::min(work.min_block, n);
        work.max_block = std::max(work.max_block, n);
    }
    if (work.blocks == 0) work.min_block = 0;
    return work;
}

}  // namespace scimpi::mpi
