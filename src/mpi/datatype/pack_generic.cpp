#include "mpi/datatype/pack_generic.hpp"

#include <algorithm>
#include <cstring>

namespace scimpi::mpi {

GenericPacker::GenericPacker(const Datatype& type, int count, void* userbuf)
    : count_(count),
      user_(static_cast<std::byte*>(userbuf)),
      total_(type.size() * static_cast<std::size_t>(count)) {
    SCIMPI_REQUIRE(type.valid(), "GenericPacker: invalid datatype");
    SCIMPI_REQUIRE(count >= 0, "GenericPacker: negative count");
    map_ = type.canonical_map();
}

template <bool Pack>
PackWork GenericPacker::run(std::size_t pos, std::size_t len, std::byte* stream) const {
    return tally_blocks(BlockCursor(*map_, 0, count_, pos, len),
                        [&stream, this](std::ptrdiff_t off, std::size_t n) {
                            if constexpr (Pack)
                                std::memcpy(stream, user_ + off, n);
                            else
                                std::memcpy(user_ + off, stream, n);
                            stream += n;
                        });
}

PackWork GenericPacker::pack(std::size_t pos, std::size_t len, std::byte* out) const {
    return run<true>(pos, len, out);
}

PackWork GenericPacker::unpack(std::size_t pos, std::size_t len,
                               const std::byte* in) const {
    // Unpacking only writes into user memory; the stream side is read-only.
    return run<false>(pos, len, const_cast<std::byte*>(in));
}

SimTime GenericPacker::cost(const PackWork& work, const mem::CopyModel& model) {
    if (work.bytes == 0) return model.profile().copy_call_overhead;
    const std::size_t avg_block =
        std::max<std::size_t>(1, work.bytes / static_cast<std::size_t>(
                                                  std::max<std::int64_t>(1, work.blocks)));
    // Strided side: blocks of avg_block scattered in memory (stride unknown
    // to the walker; assume sparse, i.e. full line fetches for small blocks).
    const auto pattern = mem::AccessPattern::strided(
        avg_block, std::max<std::size_t>(avg_block * 2, model.profile().cache_line));
    SimTime t = model.copy_cost(work.bytes, pattern, {},
                                static_cast<std::size_t>(work.blocks));
    // Recursive tree descent per basic block (minus the plain loop overhead
    // the copy model already charged).
    t += work.blocks * (model.profile().recursive_pack_overhead -
                        model.profile().per_block_overhead);
    return t;
}

}  // namespace scimpi::mpi
