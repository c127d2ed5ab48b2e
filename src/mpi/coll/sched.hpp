// One collective schedule type for every collective algorithm (DESIGN.md
// §11), blocking or not, over point-to-point messages or segment streams.
//
// A schedule is a list of rounds; a round is a set of steps (sends and
// receives to communicator-local peers) plus an optional post-action
// (reduction, copy) that runs once every step of the round has completed.
// Round r+1 is only issued after all of round r's steps finished locally.
//
// Each round carries an index that means the same thing on every member:
// builders reserve a range of indices per phase (Sched::reserve), so a
// rank that is idle in some round simply has no round at that index. A p2p
// step is tagged `tag_base - index`, which keeps rounds from cross-matching.
//
// Two drivers run a schedule:
//   * run()  — blocking collectives, inline on the calling process. Per
//     round, p2p steps post every irecv, then every isend, then wait the
//     sends, then the receives; segment steps run as one
//     CollSegmentSet::run_streams batch.
//   * pump() — nonblocking collectives, advanced by req::Engine::pump from
//     Wait/Test and, under async progress, by the per-rank progress daemon.
//     p2p steps only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "mpi/comm.hpp"

namespace scimpi::mpi::coll {

class CollSegmentSet;

/// One side of a collective transfer in packed-stream terms. `type` null
/// means raw bytes (stream position p maps to `data` + p); otherwise the
/// stream is the canonical packed form of `count` x `type` at `data`.
/// Segment steps pack any byte range of it (with direct_pack_ff straight
/// into the remote segment when order-safe); p2p steps move it whole.
struct XferView {
    void* data = nullptr;  ///< treated as const on the send side
    int count = 0;
    const Datatype* type = nullptr;
};

inline XferView raw(const void* buf) { return XferView{.data = const_cast<void*>(buf)}; }
inline XferView typed(const void* buf, int count, const Datatype& type) {
    return XferView{.data = const_cast<void*>(buf), .count = count, .type = &type};
}

/// How a schedule's steps move data.
enum class StepKind : std::uint8_t {
    p2p,      ///< messages through the two-sided protocol (reserved tags)
    segment,  ///< chunk streams through the collective segment set
};

/// One send or receive of a round: `len` stream bytes from `pos` of `v`.
struct Step {
    bool send = false;
    int peer = 0;  ///< communicator-local rank
    int slot = 0;  ///< segment stream slot (segment steps)
    XferView v;
    std::size_t pos = 0;
    std::size_t len = 0;
};

struct Round {
    int index = 0;  ///< aligned across members; p2p tag = tag_base - index
    std::vector<Step> steps;
    /// Runs once, after every step of this round completed locally. May
    /// charge simulated time to the process currently driving the schedule.
    std::function<void()> post;
};

/// Base of the nonblocking-collective tag space. A schedule's p2p tags are
/// kTagNbcBase - (seq % kNbcSeqWindow) * tag_band(n) - index, far below
/// every tag a blocking collective uses on a communicator of that size, so
/// concurrently live schedules never cross-match with each other or with
/// blocking collective traffic.
inline constexpr int kTagNbcBase = -4096;
inline constexpr int kNbcSeqWindow = 512;
/// Round indices one schedule may use on an n-rank communicator: no
/// builder reserves more than 2(n-1) indices for its ring phases plus a
/// few per log2(n) tree level.
inline int tag_band(int comm_size) { return 2 * comm_size + 64; }

class Sched {
public:
    /// `tag_base` tags p2p steps; segment schedules need a set at run().
    Sched(Comm& c, StepKind kind, int tag_base);
    Sched(const Sched&) = delete;
    Sched& operator=(const Sched&) = delete;

    [[nodiscard]] Comm& comm() { return comm_; }
    [[nodiscard]] StepKind kind() const { return kind_; }

    // ---- building (no simulated cost, no buffer access) ----
    /// Reserve `n` consecutive round indices; returns the first. Every
    /// member must reserve the same ranges in the same order.
    int reserve(int n);
    /// Round indices reserved so far.
    [[nodiscard]] int span() const { return next_index_; }
    void send(int index, int peer, const XferView& v, std::size_t pos, std::size_t len,
              int slot = 0);
    void recv(int index, int peer, const XferView& v, std::size_t pos, std::size_t len,
              int slot = 0);
    /// Post-action of round `index` (created empty when it has no steps).
    void post(int index, std::function<void()> fn);
    /// Run `fn` after everything built so far, in a round of its own (it
    /// reserves an index, so every member must call it).
    void then(std::function<void()> fn) { post(reserve(1), std::move(fn)); }
    /// Zeroed scratch owned by the schedule, live until it is destroyed.
    double* doubles(std::size_t n);
    std::byte* bytes(std::size_t n);

    // ---- drivers ----
    /// Blocking driver: run every round to completion on the calling
    /// process. Returns the first failing step's status.
    Status run(CollSegmentSet* set);
    /// Nonblocking driver: run post-actions of completed rounds and issue
    /// the next round while possible. Returns true when the schedule is
    /// done. Not reentrant; callers serialize through req::Engine::pump.
    bool pump();
    [[nodiscard]] bool done() const { return done_; }
    [[nodiscard]] const Status& status() const { return status_; }

private:
    Round& round(int index);
    void add(int index, const Step& st);
    /// Post every receive of `r`, then every send.
    void issue(const Round& r);
    /// Wait the issued sends, then the receives; first error into status_.
    void finish_issued();

    Comm comm_;
    StepKind kind_;
    int tag_base_;
    int next_index_ = 0;
    std::vector<Round> rounds_;
    std::vector<std::vector<double>> dscratch_;
    std::vector<std::vector<std::byte>> bscratch_;
    std::size_t next_round_ = 0;  ///< pump: next round to issue
    std::vector<std::shared_ptr<SendOp>> live_s_;
    std::vector<std::shared_ptr<RecvOp>> live_r_;
    bool done_ = false;
    Status status_;
};

}  // namespace scimpi::mpi::coll
