// Generic pack/unpack: the MPICH-style datatype packer (Figure 4 top).
// Packs in canonical type-map order and stages through a contiguous buffer.
// Its recursive tree descent per basic block — the overhead direct_pack_ff
// removes — is only *modelled*, in cost(); on the host the packer runs the
// BlockCursor over the type's canonical block map (block_cursor.hpp), which
// seeks straight to a partial operation's stream offset.
#pragma once

#include <cstddef>
#include <memory>

#include "common/units.hpp"
#include "mem/copy_model.hpp"
#include "mpi/datatype/datatype.hpp"

namespace scimpi::mpi {

class GenericPacker {
public:
    /// A view of `count` instances of `type` at `userbuf`. The type does not
    /// need to be committed (the canonical map is then built from the tree).
    GenericPacker(const Datatype& type, int count, void* userbuf);

    [[nodiscard]] std::size_t total_bytes() const { return total_; }

    /// Copy packed-stream range [pos, pos+len) into `out`.
    PackWork pack(std::size_t pos, std::size_t len, std::byte* out) const;

    /// Scatter packed-stream range [pos, pos+len) from `in` into the view.
    PackWork unpack(std::size_t pos, std::size_t len, const std::byte* in) const;

    /// Simulated CPU time of a generic pack/unpack performing `work`,
    /// including the modelled recursive walker overhead per block.
    static SimTime cost(const PackWork& work, const mem::CopyModel& model);

private:
    template <bool Pack>
    PackWork run(std::size_t pos, std::size_t len, std::byte* stream) const;

    std::shared_ptr<const BlockMap> map_;  // canonical order
    int count_;
    std::byte* user_;
    std::size_t total_;
};

}  // namespace scimpi::mpi
