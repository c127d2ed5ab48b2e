#include "sim/engine.hpp"

#include <chrono>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/rng.hpp"
#include "sim/process.hpp"
#include "sim/schedule.hpp"

namespace scimpi::sim {

namespace {
std::uint64_t mix64(std::uint64_t x) { return Rng(x).next(); }
}  // namespace

Engine::Engine() {
#if defined(__GLIBC__)
    // One process thread runs at a time, so glibc's per-thread malloc arenas
    // buy no concurrency here. They only strand memory: each Cluster's fresh
    // threads are handed arenas round-robin, and a buffer freed into one
    // arena is not reused when the next rank lands in another. Measured on
    // perfbench noncontig (30 s runs): peak RSS 66-70 MiB with per-thread
    // arenas, 61.6 MiB with one. One arena serves every thread instead.
    static const bool one_arena = mallopt(M_ARENA_MAX, 1) == 1;
    (void)one_arena;
#endif
}

Engine::~Engine() { shutdown_remaining(); }

void Engine::bind_metrics(obs::MetricsRegistry& m) {
    metrics_ = &m;
    ctx_switches_ = &m.counter("sim.context_switches");
    deadlock_checks_ = &m.counter("sim.deadlock_checks");
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body) {
    const int id = static_cast<int>(processes_.size());
    tracer_.set_track_name(id, name);
    processes_.push_back(std::unique_ptr<Process>(
        new Process(*this, id, std::move(name), std::move(body))));
    Process& p = *processes_.back();
    schedule(p, now_);
    return p;
}

Process& Engine::spawn_daemon(std::string name, std::function<void(Process&)> body) {
    Process& p = spawn(std::move(name), std::move(body));
    p.daemon_ = true;
    return p;
}

void Engine::schedule(Process& p, SimTime t) {
    SCIMPI_REQUIRE(!p.finished(), "schedule() on finished process " + p.name());
    SCIMPI_REQUIRE(!p.scheduled_, "schedule() on already-scheduled process " + p.name());
    SCIMPI_REQUIRE(t >= now_, "schedule() into the past");
    p.scheduled_ = true;
    p.pending_time_ = t;
    if (sched_ != nullptr && current_ != nullptr && current_ != &p)
        sched_->on_edge(current_->id(), p.id());
    queue_.push(QEntry{t, seq_++, &p, p.gen_});
}

void Engine::reschedule_earlier(Process& p, SimTime t) {
    SCIMPI_REQUIRE(t >= now_, "reschedule_earlier() into the past");
    if (!p.scheduled_) {
        schedule(p, t);
        return;
    }
    if (p.pending_time_ <= t) return;  // existing wakeup is already sooner
    ++p.gen_;                          // invalidate the queued entry
    p.scheduled_ = false;
    schedule(p, t);
}

void Engine::set_sampler(SimTime cadence, std::function<void(SimTime)> fn) {
    if (cadence <= 0 || !fn) {
        sampler_cadence_ = 0;
        sampler_ = nullptr;
        return;
    }
    sampler_cadence_ = cadence;
    sampler_ = std::move(fn);
    // First boundary strictly after the current time.
    sampler_next_ = (now_ / cadence + 1) * cadence;
}

std::uint64_t Engine::wall_ns() const {
    std::uint64_t ns = wall_base_ns_;
    if (running_)
        ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_run_start_)
                .count());
    return ns;
}

void Engine::run() {
    SCIMPI_REQUIRE(!running_, "Engine::run() is not reentrant");
    running_ = true;
    wall_run_start_ = std::chrono::steady_clock::now();
    // Start the first dispatch; from then on the processes pass the baton
    // among themselves and the last one hands it back here.
    try {
        if (Process* p = next_ready()) {
            p->baton_.release();
            baton_.acquire();
        }
    } catch (...) {
        pending_exception_ = std::current_exception();
    }
    wall_base_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_run_start_)
            .count());
    running_ = false;

    if (pending_exception_) {
        // A schedule controller threw (replay divergence, choice out of
        // range). Unwind the parked process threads *now*, while the objects
        // their stacks reference are still alive — the caller's members die
        // before this engine does.
        const std::exception_ptr e = std::exchange(pending_exception_, nullptr);
        shutdown_remaining();
        std::rethrow_exception(e);
    }

    if (!pending_error_.empty()) {
        std::string err = pending_error_;
        pending_error_.clear();
        shutdown_remaining();
        panic(err);
    }

    if (deadlock_checks_ != nullptr) deadlock_checks_->inc();
    std::string blocked;
    for (const auto& p : processes_) {
        if (p->finished() || p->daemon_) continue;
        blocked += " " + p->name();
        if (!p->wait_why_.empty()) blocked += " (in " + p->wait_why_ + ")";
    }
    if (!blocked.empty()) {
        shutdown_remaining();
        panic("simulation deadlock; blocked processes:" + blocked);
    }
}

Process* Engine::next_ready() {
    current_ = nullptr;
    while (!queue_.empty() && pending_error_.empty()) {
        QEntry e = queue_.top();
        queue_.pop();
        if (e.p->finished()) continue;   // finished while queued (shutdown path)
        if (e.gen != e.p->gen_) continue;  // stale entry after reschedule
        if (sched_ != nullptr) {
            // Collect every valid entry within the fuzz window of the
            // earliest wakeup; the controller picks which one runs first.
            // Entries are heap-popped, so cands is (t, seq)-sorted and
            // cands[0] is the deterministic FIFO default.
            const SimTime limit = e.t + sched_->fuzz();
            std::vector<QEntry> cands{e};
            while (!queue_.empty() && queue_.top().t <= limit) {
                const QEntry n = queue_.top();
                queue_.pop();
                if (n.p->finished() || n.gen != n.p->gen_) continue;
                cands.push_back(n);
            }
            std::size_t pick = 0;
            if (cands.size() > 1) {
                ChoicePoint cp;
                cp.kind = ChoiceKind::dispatch;
                cp.now = now_;
                cp.alts.reserve(cands.size());
                for (const QEntry& c : cands)
                    cp.alts.push_back(ChoiceAlt{c.p->name(), c.p->id(), c.t});
                pick = sched_->choose(cp);
                SCIMPI_REQUIRE(pick < cands.size(), "schedule choice out of range");
            }
            for (std::size_t i = 0; i < cands.size(); ++i)
                if (i != pick) queue_.push(cands[i]);
            e = cands[pick];
        }
        e.p->scheduled_ = false;
        // Dispatching a later co-enabled entry first leaves earlier entries
        // in the queue with t < now_; time never runs backwards for them.
        const SimTime t_eff = e.t > now_ ? e.t : now_;
        if (sampler_cadence_ > 0 && t_eff >= sampler_next_) {
            // Crossed one or more cadence boundaries: sample once, between
            // events, stamped at the time actually reached. Catch up
            // sampler_next_ past t_eff so an idle stretch costs one sample.
            now_ = t_eff;
            sampler_(now_);
            sampler_next_ = (t_eff / sampler_cadence_ + 1) * sampler_cadence_;
        }
        now_ = t_eff;
        ++events_dispatched_;
        dispatch_digest_ = mix64(dispatch_digest_ ^ mix64(static_cast<std::uint64_t>(now_)) ^
                                 static_cast<std::uint64_t>(e.p->id()));
        if (ctx_switches_ != nullptr) ctx_switches_->inc();
        if (sched_ != nullptr) sched_->on_dispatch(e.p->id(), now_);
        current_ = e.p;
        return e.p;
    }
    return nullptr;
}

void Engine::shutdown_remaining() {
    // ~Process signals shutdown_ (parked threads throw ShutdownSignal through
    // the user stack, running destructors) and joins each thread.
    processes_.clear();
    while (!queue_.empty()) queue_.pop();
}

}  // namespace scimpi::sim
