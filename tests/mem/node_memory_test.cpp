#include "mem/node_memory.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "common/units.hpp"

namespace scimpi::mem {
namespace {

TEST(NodeMemory, AllocateGivesWritableSpanInsideArena) {
    NodeMemory nm(0, 64_KiB);
    auto r = nm.allocate(256);
    ASSERT_TRUE(r);
    std::memset(r.value().data(), 0xAB, r.value().size());
    EXPECT_TRUE(nm.contains(r.value().data()));
    EXPECT_TRUE(nm.contains(r.value().data() + 255));
}

TEST(NodeMemory, ContainsRejectsForeignPointers) {
    NodeMemory nm(0, 4_KiB);
    int local = 0;
    EXPECT_FALSE(nm.contains(&local));
    NodeMemory other(1, 4_KiB);
    auto r = other.allocate(16);
    ASSERT_TRUE(r);
    EXPECT_FALSE(nm.contains(r.value().data()));
}

TEST(NodeMemory, OffsetOfMatchesBase) {
    NodeMemory nm(3, 4_KiB);
    auto r = nm.allocate(128, 64);
    ASSERT_TRUE(r);
    EXPECT_EQ(nm.base() + nm.offset_of(r.value().data()), r.value().data());
}

TEST(NodeMemory, FreeReturnsCapacity) {
    NodeMemory nm(0, 1_KiB);
    auto r = nm.allocate(512);
    ASSERT_TRUE(r);
    EXPECT_TRUE(nm.free(r.value()));
    EXPECT_EQ(nm.bytes_in_use(), 0u);
    // full capacity usable again
    EXPECT_TRUE(nm.allocate(1000, 1));
}

TEST(NodeMemory, FreeForeignRegionRejected) {
    NodeMemory nm(0, 1_KiB);
    std::vector<std::byte> foreign(64);
    EXPECT_EQ(nm.free({foreign.data(), foreign.size()}).code(), Errc::invalid_argument);
}

TEST(NodeMemory, ExhaustionSurfacesAsOutOfMemory) {
    NodeMemory nm(0, 256);
    EXPECT_EQ(nm.allocate(4_KiB).status().code(), Errc::out_of_memory);
}

TEST(NodeMemory, FreshAllocationReadsZero) {
    // SMI flags and signal words rely on fresh arena memory reading as zero.
    NodeMemory nm(0, 1_MiB);
    auto r = nm.allocate(256_KiB, 4_KiB);
    ASSERT_TRUE(r);
    const auto span = r.value();
    EXPECT_TRUE(std::all_of(span.begin(), span.end(), [](std::byte b) { return b == std::byte{0}; }));
}

long max_rss_kib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

TEST(NodeMemory, LargeArenaCommitsOnlyTouchedPages) {
    const long before = max_rss_kib();
    NodeMemory nm(0, 1_GiB);
    auto r = nm.allocate(64_KiB);
    ASSERT_TRUE(r);
    std::memset(r.value().data(), 0x5A, r.value().size());
    EXPECT_EQ(nm.capacity(), 1_GiB);
    // A committed 1 GiB arena would raise the peak by ~1048576 KiB.
    EXPECT_LT(max_rss_kib() - before, 16L * 1024);
}

TEST(NodeMemory, ContainsAndOffsetAtLastByte) {
    NodeMemory nm(0, 4_KiB);
    const std::byte* last = nm.base() + nm.capacity() - 1;
    EXPECT_TRUE(nm.contains(last));
    EXPECT_EQ(nm.offset_of(last), nm.capacity() - 1);
    EXPECT_FALSE(nm.contains(last + 1));
}

}  // namespace
}  // namespace scimpi::mem
