// Host-side measurement around calls into scimpi's public API.
//
// Every MPI call a workload makes goes through RankProbe::call(), which
// counts it and, in a traced run, records a span (name, layer, wall and
// thread-CPU start/end, parent span, step id) in memory. Nothing is traced
// inside the library: spans mark layer boundaries as seen from rank code.
//
// Threading: each simulated rank runs on its own OS thread, but scimpi's
// engine lets exactly one of them run at a time and hands control over with
// a mutex/condvar pair. Each RankProbe is touched only by its own rank's
// thread while the cluster runs, and by the main thread after run()
// returns.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perf {

/// Host clocks, in nanoseconds.
std::int64_t wall_ns();        ///< steady_clock
std::int64_t thread_cpu_ns();  ///< CPU time of the calling thread
std::int64_t process_cpu_ns(); ///< CPU time of all threads of the process

/// Linear-interpolated percentile `p` (0..100) of `v` (0 when empty).
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

int thread_id();  ///< the calling thread's kernel id
/// CPU time of the live threads of this process other than the calling
/// one and `skip`, each since it started (from /proc/self/task/*/schedstat).
std::int64_t other_threads_cpu_ns(const std::vector<int>& skip);

/// Layers of the MPI surface, named after the src/ modules they enter.
enum class Layer : std::uint8_t {
    step,      ///< one workload step of rank code (parent of the calls below)
    p2p,       ///< mpi/ protocol: send, recv, sendrecv, isend, irecv, wait
    coll,      ///< mpi/coll: barrier, bcast, allreduce
    req,       ///< mpi/req: nonblocking collectives and their wait
    rma_op,    ///< mpi/rma: put, get, accumulate
    rma_sync,  ///< mpi/rma: fence, lock/unlock
    rma_win,   ///< mpi/rma: window and special-memory setup
    setup,     ///< main thread: Cluster construction (mem arenas, adapters)
    run,       ///< main thread: Cluster::run (sim event loop)
    teardown,  ///< main thread: stats_report and Cluster destruction
};
inline constexpr std::size_t kLayers = 10;
const char* layer_name(Layer l);

struct Span {
    const char* name = "";
    Layer layer = Layer::step;
    std::int32_t parent = -1;  ///< index in the same rank's span list
    std::int32_t step = -1;
    std::int64_t t0 = 0, t1 = 0;  ///< wall ns
    std::int64_t c0 = 0, c1 = 0;  ///< thread CPU ns
};

class RankProbe {
public:
    explicit RankProbe(bool traced) : traced_(traced) {}

    /// Run `f` (one MPI call) as an operation of layer `l`.
    template <class F>
    decltype(auto) call(Layer l, const char* name, F&& f) {
        const Scope s(*this, l, name);
        return std::forward<F>(f)();
    }

    /// Close the current step span (if any) and open step `step`; the
    /// step's host wall time is kept for the step_us percentiles.
    void begin_step(int step);
    /// Close the last step span; called once rank code returns.
    void end_steps();

    /// Called first and last on the rank thread.
    void start_rank() { cpu_begin_ = thread_cpu_ns(); }
    void stop_rank() {
        end_steps();
        cpu_end_ = thread_cpu_ns();
        tid_ = thread_id();
    }

    [[nodiscard]] std::uint64_t ops() const { return ops_; }
    [[nodiscard]] std::int64_t rank_cpu_ns() const { return cpu_end_ - cpu_begin_; }
    /// CPU of the rank thread from its start to the end of rank code.
    [[nodiscard]] std::int64_t lifetime_cpu_ns() const { return cpu_end_; }
    [[nodiscard]] int tid() const { return tid_; }
    [[nodiscard]] const std::vector<std::int64_t>& step_ns() const { return step_ns_; }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    class Scope {
    public:
        Scope(RankProbe& p, Layer l, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        RankProbe& p_;
        std::int32_t idx_ = -1;
    };

    std::int32_t open(Layer l, const char* name);
    void close(std::int32_t idx);

    bool traced_;
    std::uint64_t ops_ = 0;
    std::int32_t current_ = -1;  ///< innermost open span
    std::int32_t step_span_ = -1;
    int step_ = -1;
    std::int64_t step_t0_ = 0;
    std::int64_t cpu_begin_ = 0, cpu_end_ = 0;
    int tid_ = -1;
    std::vector<std::int64_t> step_ns_;
    std::vector<Span> spans_;
};

/// Per-layer CPU self time over span lists: a span's thread CPU minus the
/// part its child spans cover (children are sequential on one thread).
/// Wall self time is not summed: a blocking call's wall time includes the
/// other simulated processes that ran meanwhile.
struct LayerTimes {
    std::array<double, kLayers> self_cpu_s{};
};
void add_layer_times(const std::vector<Span>& spans, LayerTimes& out);

/// Append one JSON line per span to `out` (rank -1 = main thread).
void spans_to_jsonl(const std::vector<Span>& spans, int rank, std::string& out);

}  // namespace perf
