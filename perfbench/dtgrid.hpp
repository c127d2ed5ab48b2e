// Host cost of the datatype layer, timed through direct calls to
// Datatype::commit, FFPacker::pack and GenericPacker::pack.
//
// The layout grid follows Träff/Hunold/Carpen-Amarie (arXiv 1607.00178):
// vector, indexed, struct and subarray layouts at 8 B to 4 KiB blocks, each
// compared with a manual pack (a memcpy loop over the precomputed block
// list), since a derived type should never be slower than packing by hand.
// Packs run whole and chunked at Config::rndv_chunk, as the rendezvous
// protocol calls them; chunking exposes any per-chunk re-walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perf {

/// Host ns per basic block of each way to pack one layout.
struct PackCost {
    std::int64_t blocks = 0;     ///< basic blocks per pack
    double ff = 0.0;             ///< FFPacker, whole buffer in one call
    double ff_chunked = 0.0;     ///< FFPacker, one call per chunk
    double generic = 0.0;        ///< GenericPacker, whole
    double generic_chunked = 0.0;
    double manual = 0.0;         ///< memcpy loop over the block list
    bool ok = true;              ///< all packers produced the manual stream
};

struct GridCell {
    std::string layout;          ///< vector / indexed / struct / subarray
    std::size_t block = 0;       ///< block bytes
    double commit_us = 0.0;
    PackCost cost;
};

/// Time every packer over one instance of `type`, each way repeated until
/// about `min_ms` of samples exist; reports medians.
PackCost time_packers(const scimpi::mpi::Datatype& type, std::size_t chunk, double min_ms);

/// The layout grid at block sizes 8 B .. 4 KiB, about 256 KiB per pack.
std::vector<GridCell> run_grid(std::uint64_t seed, std::size_t chunk, double min_ms);

}  // namespace perf
