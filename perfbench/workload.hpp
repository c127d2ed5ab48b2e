// The benchmark's workloads. Each is generated once from the workload seed
// by the main process; rank code receives only the generated plan. All
// workloads are closed-loop batch programs: a rank issues its next MPI call
// when the previous one returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mpi/comm.hpp"
#include "probe.hpp"

namespace perf {

/// Per-rank state handed to rank code for one cluster run.
struct RankCtx {
    explicit RankCtx(bool traced) : probe(traced) {}

    RankProbe probe;
    std::uint64_t failed = 0;    ///< calls that returned an error + wrong payloads
    std::uint64_t checked = 0;   ///< payloads compared with the sender's pattern
    std::uint64_t payload = 0;   ///< payload bytes received or fetched
    std::uint64_t checksum = 0;  ///< folds every checked payload

    void expect(const scimpi::Status& st) {
        if (!st.is_ok()) ++failed;
    }
};

using RankMain = std::function<void(scimpi::mpi::Comm&, RankCtx&)>;

/// One Cluster the workload builds, runs and tears down per round.
struct ClusterJob {
    std::string label;
    scimpi::mpi::ClusterOptions opt;
    RankMain main;
};

/// A committed datatype a workload sends one instance of per message.
struct NamedType {
    std::string name;
    scimpi::mpi::Datatype type;
};

struct Workload {
    std::vector<ClusterJob> jobs;
    std::vector<NamedType> types;
    double tail_p = 50.0;  ///< percentile step_us_tail reports
};

Workload make_noncontig(std::uint64_t seed);
/// `steps` sets the length; the sink-overhead slice runs a short one.
Workload make_osc_sparse(std::uint64_t seed, int steps);
Workload make_many_ranks(std::uint64_t seed);

// ---- payload patterns ----

/// Basic blocks (byte offset, length) of a type map, in canonical order.
using Blocks = std::vector<std::pair<std::ptrdiff_t, std::size_t>>;
Blocks blocks_of(const scimpi::mpi::Datatype& type, int count);

/// The splitmix64 output for state `x`: one step of scimpi::Rng(x).
std::uint64_t mix64(std::uint64_t x);

/// Key of the payload `sender` produces for message `msg` of step `step`.
inline std::uint64_t pattern_key(std::uint64_t seed, int sender, int step, int msg) {
    return mix64(seed ^ mix64((static_cast<std::uint64_t>(sender) << 40) ^
                              (static_cast<std::uint64_t>(step) << 8) ^
                              static_cast<std::uint64_t>(msg)));
}

/// Fill `blocks` of `buf` with the pattern of `key` (byte value depends on
/// the byte's offset, so a misplaced block never matches).
void fill_pattern(std::byte* buf, const Blocks& blocks, std::uint64_t key);
/// Compare `blocks` of `buf` with the pattern of `key`; folds the received
/// bytes into ctx.checksum and counts a mismatch as a failed operation.
void check_pattern(const std::byte* buf, const Blocks& blocks, std::uint64_t key,
                   RankCtx& ctx);

}  // namespace perf
