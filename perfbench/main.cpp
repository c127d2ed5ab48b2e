// scimpi_perf: host cost of producing scimpi's paper numbers, end to end and
// per layer. See README.md for the workloads and metrics.
//
//   scimpi_perf --workload noncontig|osc_sparse|many_ranks --seed N
//               --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 repeats whole rounds of the workload (every Cluster it builds,
// runs and tears down) for about S seconds with every observability sink
// off and reports the end-to-end metrics as medians over rounds. --trace 1
// alternates plain and traced rounds, repeats plain rounds unpinned, then
// times the datatype layer and the overhead of each observability sink,
// and reports per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dtgrid.hpp"
#include "mpi/comm.hpp"
#include "workload.hpp"

namespace perf {
namespace {

using namespace scimpi;
using namespace scimpi::mpi;

constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 200;
constexpr int kSinkSliceSteps = 8;  // osc_sparse steps in the sink-overhead slice
/// Share of run_s by which the per-thread CPU clocks plus hand-off idle may
/// miss run_s. The implicit finalize barrier after rank code is the only
/// CPU they leave out, well under 1% of run_s on every workload.
constexpr double kAccountingTolerance = 0.05;

/// The simulator lets one thread run at a time. Free to migrate, each
/// hand-off may wake the next thread on another (virtual) CPU, and run_s
/// then flips between two modes about 2x apart from one round to the next;
/// pinned to one CPU, hand-offs stay on it and rounds repeat closely.
/// Threads inherit the mask of the thread that creates them, so the mask of
/// the main thread covers every Cluster built after it is set.
struct Affinity {
    cpu_set_t start{};  ///< the mask the process started with
    cpu_set_t one{};    ///< its lowest CPU alone
    int cpu = -1;
};

Affinity pin_to_one_cpu() {
    Affinity a;
    CPU_ZERO(&a.start);
    CPU_ZERO(&a.one);
    if (sched_getaffinity(0, sizeof a.start, &a.start) != 0) return a;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &a.start)) continue;
        CPU_SET(c, &a.one);
        if (sched_setaffinity(0, sizeof a.one, &a.one) == 0) a.cpu = c;
        break;
    }
    return a;
}

void set_affinity(const cpu_set_t& mask) { (void)sched_setaffinity(0, sizeof mask, &mask); }

struct Args {
    Affinity affinity;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
};

/// A sink or setting applied to the cluster options of a run.
using Tweak = std::function<void(ClusterOptions&)>;

struct RunMode {
    bool traced = false;  ///< record spans and turn the metrics registry on
    Tweak sink;
};

/// One round: every Cluster of the workload built, run and torn down once.
struct Round {
    double setup_s = 0, run_s = 0, teardown_s = 0, wall_s = 0, cpu_s = 0;
    double engine_cpu_s = 0, rank_cpu_s = 0, proc_cpu_s = 0;
    /// CPU of the simulated processes' threads, each read on its own: rank
    /// threads up to the end of rank code, daemon threads up to the end of
    /// run(). Short of proc_cpu_s - engine_cpu_s by the implicit finalize.
    double thread_cpu_s = 0;
    std::uint64_t events = 0, sim_ns = 0, ops = 0, failed = 0, checked = 0, payload = 0;
    std::uint64_t digest = 0;
    int nodes = 0;
    std::size_t arena_bytes = 0;
    std::vector<double> step_us;  ///< rank 0, per step, summed over clusters
    std::map<std::string, std::uint64_t> counters;
    LayerTimes layers;
    std::string spans;  ///< JSON lines, traced rounds only
};

double rusage_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

void run_job(const ClusterJob& job, const RunMode& mode, int job_index, Round& r) {
    ClusterOptions opt = job.opt;
    opt.collect_stats = mode.traced;
    if (mode.sink) mode.sink(opt);
    const int world = opt.nodes * opt.procs_per_node;
    std::vector<RankCtx> ctx;
    ctx.reserve(static_cast<std::size_t>(world));
    for (int i = 0; i < world; ++i) ctx.emplace_back(mode.traced);
    RankProbe main(mode.traced);  // setup / run / teardown spans
    main.begin_step(job_index);

    std::unique_ptr<Cluster> cluster;
    const std::int64_t t0 = wall_ns();
    main.call(Layer::setup, "Cluster()", [&] { cluster = std::make_unique<Cluster>(opt); });
    const std::int64_t t1 = wall_ns();
    const std::int64_t e0 = thread_cpu_ns();
    const std::int64_t p0 = process_cpu_ns();
    try {
        main.call(Layer::run, "Cluster::run", [&] {
            cluster->run([&](Comm& comm) {
                RankCtx& c = ctx[static_cast<std::size_t>(comm.rank())];
                c.probe.start_rank();
                job.main(comm, c);
                c.probe.stop_rank();
            });
        });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: run failed: %s\n", job.label.c_str(), e.what());
        ++r.failed;
    }
    const std::int64_t t2 = wall_ns();
    const std::int64_t e1 = thread_cpu_ns();
    const std::int64_t p1 = process_cpu_ns();
    // Rank threads have exited and read their own clocks; the threads still
    // alive besides this one are the daemons this run started.
    std::vector<int> rank_tids;
    std::int64_t threads_ns = 0;
    for (const RankCtx& c : ctx) {
        rank_tids.push_back(c.probe.tid());
        threads_ns += c.probe.lifetime_cpu_ns();
    }
    threads_ns += other_threads_cpu_ns(rank_tids);
    obs::RunReport rep;
    main.call(Layer::teardown, "report+~Cluster", [&] {
        rep = cluster->stats_report();
        cluster.reset();
    });
    const std::int64_t t3 = wall_ns();
    main.end_steps();

    r.setup_s += static_cast<double>(t1 - t0) * 1e-9;
    r.run_s += static_cast<double>(t2 - t1) * 1e-9;
    r.teardown_s += static_cast<double>(t3 - t2) * 1e-9;
    r.engine_cpu_s += static_cast<double>(e1 - e0) * 1e-9;
    r.proc_cpu_s += static_cast<double>(p1 - p0) * 1e-9;
    r.thread_cpu_s += static_cast<double>(threads_ns) * 1e-9;
    r.events += rep.events_dispatched;
    r.sim_ns += rep.sim_time_ns;
    r.nodes += opt.nodes;
    r.arena_bytes += opt.arena_bytes * static_cast<std::size_t>(opt.nodes);
    std::uint64_t h = mix64(rep.sim_time_ns ^ mix64(rep.events_dispatched));
    for (const RankCtx& c : ctx) {
        r.rank_cpu_s += static_cast<double>(c.probe.rank_cpu_ns()) * 1e-9;
        r.ops += c.probe.ops();
        r.failed += c.failed;
        r.checked += c.checked;
        r.payload += c.payload;
        h = mix64(h ^ c.checksum ^ (c.failed << 32) ^ c.checked);
    }
    r.digest = mix64(r.digest ^ h);
    // A step's time is summed over the round's clusters: noncontig runs each
    // of its steps once per pack strategy.
    const std::vector<std::int64_t>& steps = ctx.front().probe.step_ns();
    if (r.step_us.size() < steps.size()) r.step_us.resize(steps.size(), 0.0);
    for (std::size_t i = 0; i < steps.size(); ++i)
        r.step_us[i] += static_cast<double>(steps[i]) * 1e-3;
    for (const auto& [name, v] : rep.counters) r.counters[name] += v;
    if (mode.traced) {
        add_layer_times(main.spans(), r.layers);
        spans_to_jsonl(main.spans(), -1, r.spans);
        for (std::size_t i = 0; i < ctx.size(); ++i) {
            add_layer_times(ctx[i].probe.spans(), r.layers);
            spans_to_jsonl(ctx[i].probe.spans(), static_cast<int>(i), r.spans);
        }
    }
}

Round run_round(const Workload& w, const RunMode& mode) {
    Round r;
    const double cpu0 = rusage_cpu_s();
    const std::int64_t t0 = wall_ns();
    for (std::size_t j = 0; j < w.jobs.size(); ++j)
        run_job(w.jobs[j], mode, static_cast<int>(j), r);
    r.wall_s = static_cast<double>(wall_ns() - t0) * 1e-9;
    r.cpu_s = rusage_cpu_s() - cpu0;
    return r;
}

/// Median over rounds of f(round).
template <class F>
double med(const std::vector<Round>& rs, F f) {
    std::vector<double> v;
    for (const Round& r : rs) v.push_back(f(r));
    return median(std::move(v));
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;  ///< printed on the human-readable line only
};

struct Report {
    std::vector<Metric> metrics;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(std::string name, double value, std::string unit, std::string note = {}) {
        if (!std::isfinite(value)) {
            fail(name + " is not a finite number");
            value = 0.0;  // keep the JSON line valid
        }
        metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
    }
    void fail(const std::string& why) {
        std::printf("# CHECK FAILED: %s\n", why.c_str());
        correct = false;
    }
    /// One checked operation outside the simulated runs.
    void check(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        fail(what);
    }
};

/// The workload and the percentile its step_us_tail reports. The percentile
/// is fixed, so runs of any length report the same one. It is the highest
/// that keeps at least ten rank-0 steps beyond it in a 30 s run on a 4-vCPU
/// x86 host, where noncontig yields 9-13 rounds of 24 steps, osc_sparse
/// 46-67 rounds of 40 and many_ranks 12-17 rounds of 24; each is taken
/// from a few rounds fewer than the fewest seen.
Workload make_workload(const std::string& name, std::uint64_t seed) {
    Workload w;
    if (name == "noncontig") {
        w = make_noncontig(seed);
        w.tail_p = 93.0;  // 143 steps, 6 rounds
    } else if (name == "osc_sparse") {
        w = make_osc_sparse(seed, 40);
        w.tail_p = 99.0;  // 1000 steps, 25 rounds
    } else if (name == "many_ranks") {
        w = make_many_ranks(seed);
        w.tail_p = 95.0;  // 200 steps, 9 rounds
    }
    return w;
}

/// Rounds until `budget_s` is used (at least kMinRounds), alternating
/// plain and traced rounds when `alternate` is set.
void run_rounds(const Workload& w, double budget_s, bool alternate,
                std::vector<Round>& plain, std::vector<Round>& traced) {
    const std::int64_t start = wall_ns();
    for (std::size_t i = 0; i < kMaxRounds; ++i) {
        const bool t = alternate && i % 2 == 1;
        RunMode mode;
        mode.traced = t;
        (t ? traced : plain).push_back(run_round(w, mode));
        const Round& r = (t ? traced : plain).back();
        std::printf("# round %zu%s: setup %.4f run %.4f teardown %.4f wall %.4f cpu %.4f s\n", i,
                    t ? " traced" : "", r.setup_s, r.run_s, r.teardown_s, r.wall_s, r.cpu_s);
        const double used = static_cast<double>(wall_ns() - start) * 1e-9;
        const double last = (t ? traced : plain).back().wall_s;
        const std::size_t have = alternate ? std::min(plain.size(), traced.size())
                                           : plain.size();
        if (have >= (alternate ? 2 : kMinRounds) && used + last > budget_s) break;
    }
}

/// Every round of one workload and seed must simulate bit-identically, and
/// so must every earlier run of this build recorded in `out_dir`.
void check_digest(const Args& a, const std::vector<Round>& rounds, Report& rep) {
    for (const Round& r : rounds)
        if (r.digest != rounds.front().digest) rep.fail("simulated digest differs between rounds");
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(rounds.front().digest));
    std::printf("# digest %s (sim_time_ns %llu, events %llu)\n", hex,
                static_cast<unsigned long long>(rounds.front().sim_ns),
                static_cast<unsigned long long>(rounds.front().events));
    const std::string path =
        a.out_dir + "/digest-" + a.workload + "-" + std::to_string(a.seed) + ".txt";
    std::ifstream in(path);
    std::string prev;
    if (in >> prev) {
        if (prev != hex) rep.fail("simulated digest differs from an earlier run (" + prev + ")");
    } else {
        std::ofstream(path) << hex << "\n";
    }
}

void count_ops(const std::vector<Round>& rounds, Report& rep) {
    for (const Round& r : rounds) {
        rep.attempted += r.ops;
        rep.failed += r.failed;
    }
}

void end_to_end(const Args& a, const Workload& w, Report& rep) {
    std::vector<Round> rounds, unused;
    run_rounds(w, a.seconds, false, rounds, unused);
    check_digest(a, rounds, rep);
    count_ops(rounds, rep);

    // Step percentiles pool the rounds.
    std::vector<double> step_us;
    for (const Round& r : rounds) step_us.insert(step_us.end(), r.step_us.begin(), r.step_us.end());
    const double beyond = (1.0 - w.tail_p / 100.0) * static_cast<double>(step_us.size() - 1);
    char note[96];
    std::snprintf(note, sizeof note, "p%.0f of %zu steps (%zu rounds), %.0f beyond it", w.tail_p,
                  step_us.size(), rounds.size(), std::floor(beyond));
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const Round& r0 = rounds.front();

    rep.add("setup_s", med(rounds, [](const Round& r) { return r.setup_s; }), "s");
    rep.add("run_s", med(rounds, [](const Round& r) { return r.run_s; }), "s");
    rep.add("wall_s", med(rounds, [](const Round& r) { return r.wall_s; }), "s");
    rep.add("cpu_s", med(rounds, [](const Round& r) { return r.cpu_s; }), "s");
    rep.add("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
    rep.add("events_per_s",
            med(rounds, [](const Round& r) { return static_cast<double>(r.events) / r.run_s; }),
            "1/s");
    rep.add("ops_per_s",
            med(rounds, [](const Round& r) { return static_cast<double>(r.ops) / r.wall_s; }),
            "1/s");
    rep.add("step_us_p50", percentile(step_us, 50), "us");
    rep.add("step_us_tail", percentile(step_us, w.tail_p), "us", note);
    rep.add("sim_goodput_mibs",
            static_cast<double>(r0.payload) / 1048576.0 / (static_cast<double>(r0.sim_ns) * 1e-9),
            "MiB/s", "simulated payload per simulated second");
}

std::uint64_t counter(const Round& r, const char* name) {
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? 0 : it->second;
}

/// Datatype layer: the layout grid plus the workload's own types.
void datatype_layer(const Args& a, const Workload& w, Report& rep) {
    const std::size_t chunk = default_config().rndv_chunk;
    const std::vector<GridCell> grid = run_grid(a.seed, chunk, 4.0);
    std::vector<double> commit_us, ff_vs_manual, generic_vs_manual;
    std::printf("# datatype grid (ns per block): layout block ff ff_chunked generic "
                "generic_chunked manual commit_us\n");
    for (const GridCell& g : grid) {
        const PackCost& c = g.cost;
        std::printf("#   %-8s %5zu %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n", g.layout.c_str(),
                    g.block, c.ff, c.ff_chunked, c.generic, c.generic_chunked, c.manual,
                    g.commit_us);
        rep.check(c.ok, "packed stream differs from the manual pack: " + g.layout);
        commit_us.push_back(g.commit_us);
        ff_vs_manual.push_back(c.ff / c.manual);
        generic_vs_manual.push_back(c.generic / c.manual);
        if (g.block != 8) continue;
        const std::string p = "datatype." + g.layout + "_8B.";
        rep.add(p + "ff_ns_per_block", c.ff, "ns");
        rep.add(p + "ff_chunked_ns_per_block", c.ff_chunked, "ns");
        rep.add(p + "generic_ns_per_block", c.generic, "ns");
        rep.add(p + "generic_chunked_ns_per_block", c.generic_chunked, "ns");
        rep.add(p + "manual_ns_per_block", c.manual, "ns");
    }
    rep.add("datatype.commit_us", median(commit_us), "us", "median over the grid");
    rep.add("datatype.ff_vs_manual", median(ff_vs_manual), "ratio", "median over the grid");
    rep.add("datatype.generic_vs_manual", median(generic_vs_manual), "ratio",
            "median over the grid");

    // The workload's own committed types: for each case (layout and size
    // band, as the workload names them) the type of median size, weighted
    // by block count.
    std::map<std::string, std::vector<const Datatype*>> cases;
    bool packed = false;
    for (const NamedType& t : w.types) {
        cases[t.name].push_back(&t.type);
        packed = packed || !t.type.is_contiguous();
    }
    double blocks = 0, ff = 0, ffc = 0, gen = 0, genc = 0;
    for (auto& [name, types] : cases) {
        std::sort(types.begin(), types.end(),
                  [](const Datatype* x, const Datatype* y) { return x->size() < y->size(); });
        const PackCost c = time_packers(*types[types.size() / 2], chunk, 2.0);
        rep.check(c.ok, "packed stream differs from the manual pack: " + name);
        const auto b = static_cast<double>(c.blocks);
        blocks += b;
        ff += c.ff * b;
        ffc += c.ff_chunked * b;
        gen += c.generic * b;
        genc += c.generic_chunked * b;
    }
    blocks = std::max(blocks, 1.0);
    char note[96];
    std::snprintf(note, sizeof note, "%zu workload type cases%s", cases.size(),
                  packed ? "" : ", contiguous: this workload never packs them");
    rep.add("datatype.ff_ns_per_block", ff / blocks, "ns", note);
    rep.add("datatype.ff_chunked_ns_per_block", ffc / blocks, "ns", note);
    rep.add("datatype.generic_ns_per_block", gen / blocks, "ns", note);
    rep.add("datatype.generic_chunked_ns_per_block", genc / blocks, "ns", note);
}

/// run_s with one observability sink on over run_s with all off, on a
/// short osc_sparse slice. Every sink must leave the simulation unchanged.
void sink_ratios(const Args& a, double budget_s, Report& rep) {
    const Workload slice = make_osc_sparse(a.seed, kSinkSliceSteps);
    const std::string evlog = a.out_dir + "/sink-evlog.jsonl";
    const std::vector<std::pair<const char*, Tweak>> sinks = {
        {"off", {}},
        {"obs.stats_ratio", [](ClusterOptions& o) { o.collect_stats = true; }},
        {"obs.profile_ratio", [](ClusterOptions& o) { o.profile = true; }},
        {"obs.record_ratio", [](ClusterOptions& o) { o.record = 5_us; }},
        {"obs.evlog_ratio", [evlog](ClusterOptions& o) { o.evlog = evlog; }},
        {"check.ratio", [](ClusterOptions& o) { o.check = true; }},
    };
    std::vector<std::vector<double>> run_s(sinks.size());
    std::uint64_t digest = 0;
    const std::int64_t start = wall_ns();
    for (int rep_i = 0; rep_i < 25; ++rep_i) {
        for (std::size_t s = 0; s < sinks.size(); ++s) {
            RunMode mode;
            mode.sink = sinks[s].second;
            const Round r = run_round(slice, mode);
            run_s[s].push_back(r.run_s);
            rep.attempted += r.ops;
            rep.failed += r.failed;
            if (rep_i == 0 && s == 0) digest = r.digest;
            if (r.digest != digest)
                rep.fail(std::string("sink changed the simulation: ") + sinks[s].first);
        }
        if (rep_i >= 2 && static_cast<double>(wall_ns() - start) * 1e-9 > budget_s) break;
    }
    std::remove(evlog.c_str());
    const double off = median(run_s[0]);
    for (std::size_t s = 1; s < sinks.size(); ++s)
        rep.add(sinks[s].first, median(run_s[s]) / off, "ratio", "osc_sparse slice");
}

void per_layer(const Args& a, const Workload& w, Report& rep) {
    const std::int64_t start = wall_ns();
    std::vector<Round> plain, traced;
    run_rounds(w, 0.45 * a.seconds, true, plain, traced);
    std::vector<Round> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    check_digest(a, all, rep);
    count_ops(all, rep);

    // sim: the engine thread, the threads of the simulated processes, and
    // the hand-off gaps in which none of them runs. Engine and thread CPU
    // are read per thread; the idle time is run_s minus the process clock.
    // So the sum accounts for run_s only if the per-thread clocks cover all
    // the CPU the process spent in run().
    const double run_s = med(plain, [](const Round& r) { return r.run_s; });
    const double engine = med(plain, [](const Round& r) { return r.engine_cpu_s; });
    const double procs = med(plain, [](const Round& r) { return r.thread_cpu_s; });
    const double rank_code = med(plain, [](const Round& r) { return r.rank_cpu_s; });
    const double idle = med(plain, [](const Round& r) { return r.run_s - r.proc_cpu_s; });
    const Round& p0 = plain.front();
    const Round& tl = traced.back();
    rep.add("sim.events", static_cast<double>(p0.events), "count");
    rep.add("sim.context_switches", static_cast<double>(counter(tl, "sim.context_switches")),
            "count");
    rep.add("sim.engine_cpu_s", engine, "s", "thread that calls Cluster::run");
    rep.add("sim.rank_cpu_s", procs, "s", "all simulated-process threads");
    rep.add("sim.rank_code_cpu_s", rank_code, "s", "rank threads inside rank code");
    rep.add("sim.dispatch_cpu_s", procs - rank_code, "s",
            "daemon processes, rank-thread start and first wait");
    rep.add("sim.handoff_idle_s", idle, "s", "run_s - process CPU in run()");
    rep.add("sim.ns_per_event",
            med(plain, [](const Round& r) { return r.run_s * 1e9 / static_cast<double>(r.events); }),
            "ns");
    const double sum = engine + procs + idle;
    std::printf("# sim accounting: engine %.4f + rank %.4f + idle %.4f = %.4f s of run_s %.4f s\n",
                engine, procs, idle, sum, run_s);
    if (std::fabs(run_s - sum) > kAccountingTolerance * run_s)
        rep.fail("engine + rank CPU + handoff idle do not account for run_s");

    // mem: cluster bring-up and teardown.
    rep.add("mem.setup_s_per_node",
            med(plain, [](const Round& r) { return r.setup_s / r.nodes; }), "s");
    rep.add("mem.arena_mib", static_cast<double>(p0.arena_bytes) / 1048576.0, "MiB");
    rep.add("teardown_s", med(plain, [](const Round& r) { return r.teardown_s; }), "s");

    // Rank-thread CPU inside each layer's calls, from the spans.
    auto layer_cpu = [&traced](Layer l) {
        return med(traced, [l](const Round& r) {
            return r.layers.self_cpu_s[static_cast<std::size_t>(l)];
        });
    };
    rep.add("p2p.cpu_s", layer_cpu(Layer::p2p), "s");
    rep.add("coll.cpu_s", layer_cpu(Layer::coll), "s");
    rep.add("req.cpu_s", layer_cpu(Layer::req), "s");
    rep.add("rma.op_cpu_s", layer_cpu(Layer::rma_op), "s");
    rep.add("rma.sync_cpu_s", layer_cpu(Layer::rma_sync), "s");
    rep.add("rank.self_cpu_s", layer_cpu(Layer::step), "s",
            "rank code between calls: payload fill and check");
    for (const char* c :
         {"pack.ff_packs", "pack.ff_direct_blocks", "pack.generic_packs",
          "pack.generic_staged_bytes", "mpi.sends_short", "mpi.sends_eager", "mpi.sends_rndv",
          "rma.direct_puts", "rma.direct_gets", "rma.remote_put_gets", "rma.emulated_puts",
          "rma.accumulates", "coll.seg_ops", "coll.p2p_ops", "req.nbc_scheds", "sci.pio_bytes",
          "sci.read_bytes", "sci.store_barriers", "sci.stream_restarts", "fabric.wire_bytes",
          "fabric.payload_bytes"})
        rep.add(c, static_cast<double>(counter(tl, c)), "count");
    rep.add("trace.overhead", med(traced, [](const Round& r) { return r.run_s; }) / run_s, "ratio",
            "traced run_s / plain run_s");

    std::ofstream(a.out_dir + "/spans-" + a.workload + ".jsonl") << tl.spans;

    // The same rounds free to migrate across CPUs, as an unpinned user runs
    // them: the hand-off idle time is then the cross-CPU wake-up latency.
    set_affinity(a.affinity.start);
    std::vector<Round> free_rounds, unused;
    run_rounds(w, 0.15 * a.seconds, false, free_rounds, unused);
    set_affinity(a.affinity.one);
    check_digest(a, free_rounds, rep);
    count_ops(free_rounds, rep);
    rep.add("sim.unpinned_run_s", med(free_rounds, [](const Round& r) { return r.run_s; }), "s",
            "run_s with the process free to use every CPU");
    rep.add("sim.unpinned_handoff_idle_s",
            med(free_rounds, [](const Round& r) { return r.run_s - r.proc_cpu_s; }), "s");

    const double left = a.seconds - static_cast<double>(wall_ns() - start) * 1e-9;
    datatype_layer(a, w, rep);
    const double after_grid = a.seconds - static_cast<double>(wall_ns() - start) * 1e-9;
    sink_ratios(a, std::max(0.5 * left, after_grid), rep);
}

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds") a.seconds = std::atof(v);
        else if (k == "--trace") a.trace = std::atoi(v) != 0;
        else if (k == "--out-dir") a.out_dir = v;
        else return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void print(const Report& rep) {
    // Not a BENCHMARK.json metric (those are never 0); `failed` and
    // `attempted` in the JSON line carry the same numbers.
    std::printf("%-40s %16.6g %-6s %llu of %llu operations\n", "ops_failed_frac",
                rep.attempted == 0 ? 1.0
                                   : static_cast<double>(rep.failed) /
                                         static_cast<double>(rep.attempted),
                "ratio", static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    for (const Metric& m : rep.metrics)
        std::printf("%-40s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());
    std::string json = "{\"correct\": ";
    json += rep.correct && rep.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(rep.attempted, 1));
    json += ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric& m = rep.metrics[i];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), m.value,
                      m.unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
    using namespace perf;
    Args a;
    if (!parse(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: scimpi_perf --workload noncontig|osc_sparse|many_ranks --seed N "
                     "--seconds S --trace 0|1 [--out-dir DIR]\n");
        return 2;
    }
    const Workload w = make_workload(a.workload, a.seed);
    if (w.jobs.empty()) {
        std::fprintf(stderr, "scimpi_perf: unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    a.affinity = pin_to_one_cpu();
    std::printf("# scimpi perfbench: workload=%s seed=%llu seconds=%g trace=%d cpu=%d\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0, a.affinity.cpu);
    Report rep;
    if (a.trace)
        per_layer(a, w, rep);
    else
        end_to_end(a, w, rep);
    print(rep);
    std::fflush(stdout);
    return rep.correct && rep.failed == 0 ? 0 : 1;
}
