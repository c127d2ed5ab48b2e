#pragma once
// The token one simulated process hands the next (see engine.hpp): a POSIX
// semaphore that only ever counts 0 or 1. acquire() tries once, then sleeps
// in the kernel until release() wakes it.
//
// Not std::binary_semaphore: libstdc++'s acquire spins and calls
// sched_yield() before it sleeps. With the process threads sharing a CPU,
// the spinning waiter mostly yields to threads that are themselves only
// waiting, so a hand-off costs a timing-dependent number of extra switches,
// and any other task on that CPU is handed the CPU at every yield.

#include <semaphore.h>

#include <cerrno>

namespace scimpi::sim {

class Baton {
public:
    Baton() noexcept { (void)::sem_init(&sem_, 0, 0); }
    ~Baton() { (void)::sem_destroy(&sem_); }
    Baton(const Baton&) = delete;
    Baton& operator=(const Baton&) = delete;

    /// Hand the token over; wakes the thread parked in acquire(), if any.
    void release() noexcept { (void)::sem_post(&sem_); }

    /// Take the token, sleeping until it is released.
    void acquire() noexcept {
        while (::sem_wait(&sem_) != 0 && errno == EINTR) {
        }
    }

private:
    sem_t sem_{};
};

}  // namespace scimpi::sim
