#include "mpi/datatype/pack_ff.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace scimpi::mpi {

FFPacker::FFPacker(const Datatype& type, int count, void* userbuf)
    : type_(type),
      count_(count),
      user_(static_cast<std::byte*>(userbuf)),
      total_(type.size() * static_cast<std::size_t>(count)) {
    SCIMPI_REQUIRE(type.committed(), "FFPacker requires a committed datatype");
    SCIMPI_REQUIRE(count >= 0, "FFPacker: negative count");
}

PackWork FFPacker::pack(std::size_t pos, std::size_t len, std::byte* out) const {
    std::byte* dst = out;
    return for_range(pos, len, [&dst](std::byte* mem, std::size_t n) {
        std::memcpy(dst, mem, n);
        dst += n;
    });
}

PackWork FFPacker::unpack(std::size_t pos, std::size_t len, const std::byte* in) const {
    const std::byte* src = in;
    return for_range(pos, len, [&src](std::byte* mem, std::size_t n) {
        std::memcpy(mem, src, n);
        src += n;
    });
}

SimTime FFPacker::cost(const PackWork& work, const mem::CopyModel& model) {
    if (work.bytes == 0) return model.profile().copy_call_overhead;
    const std::size_t avg_block =
        std::max<std::size_t>(1, work.bytes / static_cast<std::size_t>(
                                                  std::max<std::int64_t>(1, work.blocks)));
    const auto pattern = mem::AccessPattern::strided(
        avg_block, std::max<std::size_t>(avg_block * 2, model.profile().cache_line));
    return model.copy_cost(work.bytes, pattern, {},
                           static_cast<std::size_t>(work.blocks));
}

mem::AccessPattern FFPacker::dominant_pattern() const {
    const FlatRep& flat = type_.flat();
    // Use the leaf contributing the most payload.
    const FlatLeaf* best = nullptr;
    std::int64_t best_bytes = -1;
    for (const auto& leaf : flat.leaves) {
        if (leaf.total_bytes() > best_bytes) {
            best_bytes = leaf.total_bytes();
            best = &leaf;
        }
    }
    if (best == nullptr || best->stack.empty())
        return mem::AccessPattern::contig();
    const auto stride = static_cast<std::size_t>(
        std::max<std::ptrdiff_t>(std::abs(best->stack.back().extent),
                                 static_cast<std::ptrdiff_t>(best->blocklen)));
    return mem::AccessPattern::strided(best->blocklen, stride);
}

std::size_t FFPacker::memory_traffic(std::size_t bytes) const {
    // Line-waste estimate with the reference line size; the protocol layer
    // passes the result to the adapter, whose host profile set the line.
    const mem::CopyModel model{mem::MachineProfile{}};
    return model.traffic_bytes(bytes, dominant_pattern());
}

}  // namespace scimpi::mpi
