#include "workload.hpp"

#include "common/rng.hpp"

namespace perf {

std::uint64_t mix64(std::uint64_t x) { return scimpi::Rng(x).next(); }

Blocks blocks_of(const scimpi::mpi::Datatype& type, int count) {
    Blocks out;
    type.for_each_block(0, count, [&out](std::ptrdiff_t off, std::size_t len) {
        out.emplace_back(off, len);
    });
    return out;
}

namespace {

inline std::uint8_t pattern_byte(std::uint64_t key, std::uint64_t off) {
    return static_cast<std::uint8_t>(((off + key) * 0x9e3779b97f4a7c15ull) >> 56);
}

}  // namespace

void fill_pattern(std::byte* buf, const Blocks& blocks, std::uint64_t key) {
    for (const auto& [off, len] : blocks) {
        const auto base = static_cast<std::uint64_t>(off);
        for (std::size_t i = 0; i < len; ++i)
            buf[base + i] = static_cast<std::byte>(pattern_byte(key, base + i));
    }
}

void check_pattern(const std::byte* buf, const Blocks& blocks, std::uint64_t key,
                   RankCtx& ctx) {
    std::uint8_t diff = 0;
    std::uint64_t sum = 0;
    std::uint64_t bytes = 0;
    for (const auto& [off, len] : blocks) {
        const auto base = static_cast<std::uint64_t>(off);
        for (std::size_t i = 0; i < len; ++i) {
            const auto b = static_cast<std::uint8_t>(buf[base + i]);
            diff |= static_cast<std::uint8_t>(b ^ pattern_byte(key, base + i));
            sum += b * (base + i + 1);
        }
        bytes += len;
    }
    ++ctx.checked;
    ctx.payload += bytes;
    if (diff != 0) ++ctx.failed;
    ctx.checksum = mix64(ctx.checksum ^ sum ^ (bytes << 1));
}

}  // namespace perf
