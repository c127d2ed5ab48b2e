// Per-node physically-contiguous memory arena from which SCI-exportable
// segments (and MPI_Alloc_mem windows) are carved. User buffers in rank code
// are ordinary host memory; only memory that must be remotely accessible
// lives here. Since the whole cluster is simulated in one address space, a
// "remote" access is a host pointer dereference plus modelled time.
//
// The arena is one reserved anonymous mapping: it reads as zero until first
// written (SMI flags and signals rely on that) and is never re-zeroed, and
// only the pages a node actually touches are committed. A node therefore
// costs host memory for what it uses, not for its configured arena size.
#pragma once

#include <cstddef>
#include <span>

#include "common/status.hpp"
#include "mem/allocator.hpp"

namespace scimpi::mem {

class NodeMemory {
public:
    NodeMemory(int node_id, std::size_t arena_bytes);
    ~NodeMemory();

    NodeMemory(const NodeMemory&) = delete;
    NodeMemory& operator=(const NodeMemory&) = delete;

    [[nodiscard]] int node_id() const { return node_id_; }

    /// Carve an exportable region out of the arena.
    Result<std::span<std::byte>> allocate(std::size_t bytes, std::size_t align = 64);

    /// Return a region to the arena.
    Status free(std::span<std::byte> region);

    /// True if `p` points into this node's arena (i.e. is SCI-shareable).
    [[nodiscard]] bool contains(const void* p) const;

    [[nodiscard]] std::size_t capacity() const { return alloc_.capacity(); }
    [[nodiscard]] std::size_t bytes_in_use() const { return alloc_.bytes_in_use(); }

    /// Offset of `p` within the arena. Precondition: contains(p).
    [[nodiscard]] std::size_t offset_of(const void* p) const;

    [[nodiscard]] std::byte* base() { return base_; }

private:
    int node_id_;
    std::size_t size_;
    std::byte* base_ = nullptr;
    Allocator alloc_;
};

}  // namespace scimpi::mem
