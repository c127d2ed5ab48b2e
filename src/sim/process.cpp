#include "sim/process.hpp"

#include <exception>

#include "common/status.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"

namespace scimpi::sim {

Process::Process(Engine& engine, int id, std::string name,
                 std::function<void(Process&)> body)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      thread_([this] { thread_main(); }) {}

Process::~Process() {
    // The engine destroys its processes only while none of them runs: each
    // thread is parked (never dispatched, blocked, or a daemon) or has
    // returned. Wake it to unwind its stack, then reap it.
    shutdown_ = true;
    baton_.release();
    thread_.join();
}

SimTime Process::now() const { return engine_.now(); }

void Process::thread_main() {
    try {
        park();
        // Bind this OS thread to its engine so argument-less primitives can
        // reach the schedule controller (see sim::current_engine()).
        set_current_engine(&engine_);
        body_(*this);
    } catch (const ShutdownSignal&) {
        // Engine tear-down: unwind silently.
    } catch (const std::exception& e) {
        engine_.pending_error_ = name_ + ": " + e.what();
    } catch (...) {
        engine_.pending_error_ = name_ + ": unknown exception";
    }
    state_ = State::finished;
    if (!shutdown_) pass_baton();  // at tear-down the engine thread is joining us
}

void Process::park() {
    baton_.acquire();
    if (shutdown_) throw ShutdownSignal{};
    state_ = State::running;
}

bool Process::pass_baton() {
    Process* next = nullptr;
    try {
        next = engine_.next_ready();
    } catch (...) {
        engine_.pending_exception_ = std::current_exception();
    }
    if (next == this) return true;
    (next != nullptr ? next->baton_ : engine_.baton_).release();
    return false;
}

void Process::suspend() {
    if (pass_baton())
        state_ = State::running;
    else
        park();
}

void Process::delay(SimTime ns) {
    SCIMPI_REQUIRE(engine_.current() == this,
                   "delay() must be called from the process's own body");
    SCIMPI_REQUIRE(ns >= 0, "delay() with negative duration");
    engine_.schedule(*this, engine_.now() + ns);
    state_ = State::blocked;
    suspend();
}

void Process::block(std::string_view why) {
    SCIMPI_REQUIRE(engine_.current() == this,
                   "block() must be called from the process's own body");
    wait_why_ = why;
    state_ = State::blocked;
    suspend();
    wait_why_.clear();
}

}  // namespace scimpi::sim
