#include "probe.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace perf {

namespace {

std::int64_t clock_ns(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int thread_id() { return static_cast<int>(gettid()); }

std::int64_t other_threads_cpu_ns(const std::vector<int>& skip) {
    std::int64_t sum = 0;
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return sum;
    const int self = thread_id();
    while (const dirent* e = readdir(dir)) {
        const int tid = std::atoi(e->d_name);
        if (tid <= 0 || tid == self || std::find(skip.begin(), skip.end(), tid) != skip.end())
            continue;
        const std::string path = "/proc/self/task/" + std::string(e->d_name) + "/schedstat";
        if (std::FILE* f = std::fopen(path.c_str(), "r")) {
            long long cpu = 0;  // first field: ns on a CPU
            if (std::fscanf(f, "%lld", &cpu) == 1) sum += cpu;
            std::fclose(f);
        }
    }
    closedir(dir);
    return sum;
}

const char* layer_name(Layer l) {
    switch (l) {
        case Layer::step: return "step";
        case Layer::p2p: return "p2p";
        case Layer::coll: return "coll";
        case Layer::req: return "req";
        case Layer::rma_op: return "rma_op";
        case Layer::rma_sync: return "rma_sync";
        case Layer::rma_win: return "rma_win";
        case Layer::setup: return "setup";
        case Layer::run: return "run";
        case Layer::teardown: return "teardown";
    }
    return "?";
}

RankProbe::Scope::Scope(RankProbe& p, Layer l, const char* name) : p_(p) {
    ++p_.ops_;
    if (p_.traced_) idx_ = p_.open(l, name);
}

RankProbe::Scope::~Scope() {
    if (idx_ >= 0) p_.close(idx_);
}

std::int32_t RankProbe::open(Layer l, const char* name) {
    Span s;
    s.name = name;
    s.layer = l;
    s.parent = current_;
    s.step = step_;
    s.t0 = wall_ns();
    s.c0 = thread_cpu_ns();
    spans_.push_back(s);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
}

void RankProbe::close(std::int32_t idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.c1 = thread_cpu_ns();
    s.t1 = wall_ns();
    current_ = s.parent;
}

void RankProbe::begin_step(int step) {
    end_steps();
    step_ = step;
    step_t0_ = wall_ns();
    if (traced_) step_span_ = open(Layer::step, "step");
}

void RankProbe::end_steps() {
    if (step_ < 0) return;
    if (step_span_ >= 0) close(step_span_);
    step_span_ = -1;
    step_ns_.push_back(wall_ns() - step_t0_);
    step_ = -1;
}

void add_layer_times(const std::vector<Span>& spans, LayerTimes& out) {
    std::vector<std::int64_t> child_cpu(spans.size(), 0);
    for (const Span& s : spans)
        if (s.parent >= 0) child_cpu[static_cast<std::size_t>(s.parent)] += s.c1 - s.c0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out.self_cpu_s[static_cast<std::size_t>(s.layer)] +=
            static_cast<double>(s.c1 - s.c0 - child_cpu[i]) * 1e-9;
    }
}

void spans_to_jsonl(const std::vector<Span>& spans, int rank, std::string& out) {
    char line[256];
    for (const Span& s : spans) {
        std::snprintf(line, sizeof line,
                      "{\"rank\":%d,\"name\":\"%s\",\"layer\":\"%s\",\"step\":%d,"
                      "\"parent\":%d,\"t0\":%lld,\"t1\":%lld,\"c0\":%lld,\"c1\":%lld}\n",
                      rank, s.name, layer_name(s.layer), s.step, s.parent,
                      static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                      static_cast<long long>(s.c0), static_cast<long long>(s.c1));
        out += line;
    }
}

}  // namespace perf
