#include "mpi/coll/sched.hpp"

#include "mpi/coll/segment_set.hpp"

namespace scimpi::mpi::coll {

Sched::Sched(Comm& c, StepKind kind, int tag_base)
    : comm_(c), kind_(kind), tag_base_(tag_base) {}

int Sched::reserve(int n) {
    const int first = next_index_;
    next_index_ += n;
    return first;
}

Round& Sched::round(int index) {
    SCIMPI_REQUIRE(index >= 0 && index < next_index_, "coll: round index not reserved");
    if (rounds_.empty() || rounds_.back().index != index) {
        SCIMPI_REQUIRE(rounds_.empty() || rounds_.back().index < index,
                       "coll: rounds must be built in index order");
        rounds_.push_back(Round{.index = index, .steps = {}, .post = {}});
    }
    return rounds_.back();
}

void Sched::add(int index, const Step& st) {
    Round& r = round(index);
    SCIMPI_REQUIRE(!r.post, "coll: step added after its round's post-action");
    r.steps.push_back(st);
}

void Sched::send(int index, int peer, const XferView& v, std::size_t pos,
                 std::size_t len, int slot) {
    add(index, Step{.send = true, .peer = peer, .slot = slot, .v = v, .pos = pos, .len = len});
}

void Sched::recv(int index, int peer, const XferView& v, std::size_t pos,
                 std::size_t len, int slot) {
    add(index, Step{.send = false, .peer = peer, .slot = slot, .v = v, .pos = pos, .len = len});
}

void Sched::post(int index, std::function<void()> fn) { round(index).post = std::move(fn); }

double* Sched::doubles(std::size_t n) { return dscratch_.emplace_back(n).data(); }

std::byte* Sched::bytes(std::size_t n) { return bscratch_.emplace_back(n).data(); }

void Sched::issue(const Round& r) {
    SCIMPI_REQUIRE(kind_ == StepKind::p2p, "coll: only p2p rounds are issued as messages");
    Rank& rk = comm_.rank_state();
    const int tag = tag_base_ - r.index;
    const Datatype& byte = comm_.cluster().byte_type();
    // Raw steps move their byte range; typed steps move the whole typed
    // buffer through the protocol's own packing.
    auto count_of = [](const Step& st) {
        if (st.v.type == nullptr) return static_cast<int>(st.len);
        SCIMPI_REQUIRE(st.pos == 0 && st.len == st.v.type->size() *
                                                   static_cast<std::size_t>(st.v.count),
                       "coll: a typed p2p step moves its whole buffer");
        return st.v.count;
    };
    // Pre-post the receives of the round before its sends: a peer's send
    // for this round can then always land on a posted receive.
    for (const Step& st : r.steps)
        if (!st.send)
            live_r_.push_back(rk.irecv(static_cast<std::byte*>(st.v.data) + st.pos,
                                       count_of(st), st.v.type != nullptr ? *st.v.type : byte,
                                       comm_.world_rank(st.peer), tag, comm_.context()));
    for (const Step& st : r.steps)
        if (st.send)
            live_s_.push_back(rk.isend(static_cast<const std::byte*>(st.v.data) + st.pos,
                                       count_of(st), st.v.type != nullptr ? *st.v.type : byte,
                                       comm_.world_rank(st.peer), tag, comm_.context()));
}

void Sched::finish_issued() {
    // Everything may already be complete (pump): Rank::wait then returns at
    // once but still closes the scimpi-check pending-buffer entries.
    Rank& rk = comm_.rank_state();
    for (const auto& s : live_s_) {
        rk.wait(*s);
        if (!s->status && status_.is_ok()) status_ = s->status;
    }
    for (const auto& r : live_r_) {
        rk.wait(*r);
        if (!r->status && status_.is_ok()) status_ = r->status;
    }
    live_s_.clear();
    live_r_.clear();
}

Status Sched::run(CollSegmentSet* set) {
    SCIMPI_REQUIRE(kind_ == StepKind::p2p || set != nullptr,
                   "coll: segment schedule without a segment set");
    for (const Round& r : rounds_) {
        if (!r.steps.empty()) {
            if (kind_ == StepKind::p2p) {
                issue(r);
                finish_issued();
            } else {
                status_ = set->run_streams(comm_, r.steps);
            }
            if (!status_) break;
        }
        if (r.post) r.post();
    }
    done_ = true;
    return status_;
}

bool Sched::pump() {
    if (done_) return true;
    for (;;) {
        for (const auto& s : live_s_)
            if (!s->complete) return false;
        for (const auto& r : live_r_)
            if (!r->complete) return false;
        finish_issued();
        if (next_round_ > 0 && rounds_[next_round_ - 1].post) rounds_[next_round_ - 1].post();
        if (next_round_ >= rounds_.size()) {
            done_ = true;
            return true;
        }
        issue(rounds_[next_round_]);
        ++next_round_;
        // Loop: short/eager steps may have completed synchronously, in which
        // case the next round can be issued right away.
    }
}

}  // namespace scimpi::mpi::coll
