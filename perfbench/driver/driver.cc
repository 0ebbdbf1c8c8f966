/**
 * @file
 * Benchmark driver: runs one perfbench workload against the nvmcache
 * libraries and writes what it measured as one JSON document.
 *
 * The driver is benchmark code, not part of the program under test: it
 * only calls public functions of the libraries and times those calls
 * from the outside. perfbench/run.py builds it, generates the seeded
 * inputs, starts it, and turns its output into metrics.
 *
 *   perfbench_driver setup  --request R.json
 *       Build everything a study needs before its first simulation
 *       (registry lookup, parameter parse, runner, model set, grid)
 *       and print "ready"; run.py times launch-to-ready.
 *   perfbench_driver study  --request R.json --jobs J --out O.json
 *                           --report REP.json --warm N | --traced 1
 *       Untraced: one cold study through runStudy() at J engine
 *       threads, then N warm repeats on the same runner pool at one
 *       engine thread, then the accounting identities on every run of
 *       the grid.
 *       Traced: the same grid driven layer by layer with a span around
 *       every ExperimentRunner::recordedTrace / privateTrace / runOne
 *       call, then runStudy() assembling the report from the memo.
 *   perfbench_driver client --socket P --explorer Q.jsonl --seed N
 *                           --repeats R --max-seconds S --out O.jsonl
 *       Closed loop over two persistent ServiceClient connections:
 *       blocks of new and coalescing requests alternate with blocks of
 *       memo-served repeats (see modeClient).
 *   perfbench_driver store-probe --store D --scratch D2 --out O.json
 *       Spans around ResultStore::put and ResultStore::load over the
 *       payloads of every record a service run left in store D.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "core/experiment.hh"
#include "core/study_registry.hh"
#include "nvsim/published.hh"
#include "service/client.hh"
#include "store/result_store.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "workload/suite.hh"

using namespace nvmcache;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** "--key value" pairs after the mode word. */
std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> out;
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::runtime_error("bad argument '" + key + "'");
        out[key.substr(2)] = argv[i + 1];
    }
    return out;
}

std::string
arg(const std::map<std::string, std::string> &args, const std::string &key,
    const std::string &fallback = "")
{
    auto it = args.find(key);
    if (it != args.end())
        return it->second;
    if (fallback.empty())
        throw std::runtime_error("missing --" + key);
    return fallback;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

/** Peak resident set of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

// --- the simulation grid of one study ---------------------------------

struct GridRun
{
    const BenchmarkSpec *spec;
    const LlcModel *llc;
    std::uint32_t threads;
};

/** Runs that share one runner (one fault configuration). */
struct GridPoint
{
    SystemConfig sys;
    std::vector<GridRun> runs;
};

/**
 * Every distinct simulation the study asks its runners for, grouped by
 * runner configuration. Mirrors runCoreSweep / runReliabilityStudy from
 * the study's effective parameters; the assemble phase of a traced run
 * and the identity pass of an untraced one both verify the mirror by
 * checking that the study needed no simulation beyond it.
 */
struct Grid
{
    std::deque<BenchmarkSpec> owned; ///< scaled spec copies
    std::vector<GridPoint> points;
};

void
addRun(GridPoint &gp, std::set<std::string> &seen, const BenchmarkSpec &spec,
       const LlcModel &llc, std::uint32_t threads)
{
    if (threads == 0)
        threads = spec.defaultThreads;
    const std::string key =
        spec.name + "|" + llc.name + "|" + std::to_string(threads);
    if (seen.insert(key).second)
        gp.runs.push_back({&spec, &llc, threads});
}

Grid
buildGrid(const Study &study)
{
    const ParamMap cfg = study.defaultConfig(); // effective after parse()
    Grid grid;
    if (study.name() == "core-sweep") {
        const CapacityMode mode = CapacityMode::FixedArea;
        const LlcModel &sram = publishedLlcModel("SRAM", mode);
        GridPoint gp;
        std::set<std::string> seen;
        for (const std::string &w : split(cfg.at("workloads"), ',')) {
            const BenchmarkSpec &spec = benchmark(w);
            addRun(gp, seen, spec, sram, 1);
            for (const std::string &t : split(cfg.at("techs"), ','))
                for (const std::string &c : split(cfg.at("cores"), ',')) {
                    const std::uint32_t cores = std::stoul(c);
                    if (cores > 1 && !spec.multiThreaded)
                        continue;
                    addRun(gp, seen, spec, publishedLlcModel(t, mode),
                           cores);
                }
        }
        grid.points.push_back(std::move(gp));
    } else if (study.name() == "reliability") {
        const CapacityMode mode = cfg.at("mode") == "fixed-area"
                                      ? CapacityMode::FixedArea
                                      : CapacityMode::FixedCapacity;
        BenchmarkSpec spec = benchmark(cfg.at("workload"));
        spec.gen.totalAccesses = std::uint64_t(
            double(spec.gen.totalAccesses) * std::stod(cfg.at("scale")));
        const BenchmarkSpec &owned = grid.owned.emplace_back(spec);
        const std::uint32_t threads = std::stoul(cfg.at("threads"));
        for (const std::string &ber : split(cfg.at("ber-scale"), ','))
            for (const std::string &wl :
                 split(cfg.at("wear-leveling"), ',')) {
                GridPoint gp;
                gp.sys.llc.faults.enabled = true;
                gp.sys.llc.faults.berScale = std::stod(ber);
                gp.sys.llc.faults.wearLevelingFactor = std::stod(wl);
                gp.sys.llc.faults.wearScale =
                    std::stod(cfg.at("wear-scale"));
                gp.sys.llc.faults.maxWriteRetries =
                    std::stoul(cfg.at("max-retries"));
                std::set<std::string> seen;
                for (const LlcModel &llc : publishedLlcModels(mode))
                    addRun(gp, seen, owned, llc, threads);
                grid.points.push_back(std::move(gp));
            }
    } else {
        throw std::runtime_error("no grid for study '" + study.name() +
                                 "'");
    }
    return grid;
}

/** Everything set up before the first simulation. */
struct Setup
{
    StudyRequest request;
    std::unique_ptr<Study> study;
    Grid grid;
};

std::unique_ptr<Study>
makeStudy(const StudyRequest &req)
{
    std::unique_ptr<Study> study = StudyRegistry::global().create(req.kind);
    study->parse(req.params);
    return study;
}

Setup
setUp(const std::string &requestPath)
{
    Setup s;
    s.request = StudyRequest::fromJson(JsonValue::parse(readFile(requestPath)));
    s.study = makeStudy(s.request);
    s.grid = buildGrid(*s.study);
    return s;
}

RunnerStats
sumStats(RunnerPool &pool, const Grid &grid)
{
    RunnerStats sum;
    for (const GridPoint &gp : grid.points) {
        const RunnerStats s = pool.acquire(gp.sys).runnerStats();
        sum.simulations += s.simulations;
        sum.memoHits += s.memoHits;
        sum.traceBuilds += s.traceBuilds;
        sum.traceBytes += s.traceBytes;
        sum.privateBuilds += s.privateBuilds;
        sum.privateBytes += s.privateBytes;
    }
    return sum;
}

double
detail(const StatsSnapshot &snap, const std::string &path)
{
    auto it = snap.entries.find(path);
    return it == snap.entries.end() ? 0.0 : it->second.scalar;
}

bool
close(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/**
 * Accounting identities of one run's report; returns the broken ones
 * (empty when the run is consistent).
 */
std::vector<std::string>
brokenIdentities(const SimStats &s)
{
    std::vector<std::string> broken;
    const StatsSnapshot &d = s.detail;
    const double reads = detail(d, "sim.llc.demandReads");
    const double hits = detail(d, "sim.llc.readHits");
    const double misses = detail(d, "sim.llc.readMisses");
    if (hits + misses != reads ||
        s.llc.demandHits + s.llc.demandMisses != s.llc.demandReads)
        broken.push_back("readHits + readMisses != demandReads");
    if (!close(detail(d, "sim.llc.hitEnergy") +
                   detail(d, "sim.llc.missEnergy") +
                   detail(d, "sim.llc.writeEnergy"),
               detail(d, "sim.llc.dynamicEnergy")) ||
        !close(s.llc.dynamicEnergy(), s.llcDynamicEnergy) ||
        !close(s.llcEnergy(), s.llcLeakageEnergy + s.llcDynamicEnergy))
        broken.push_back("LLC energy components != total");
    // Per-tenant counters exist only for multi-tenant workloads; where
    // they exist they must partition the global LLC traffic.
    double tReads = 0, tHits = 0, tMisses = 0, tWb = 0;
    bool tenants = false;
    for (const auto &[path, value] : d.entries) {
        if (path.rfind("sim.tenant", 0) != 0)
            continue;
        tenants = true;
        const std::string leaf = path.substr(path.rfind('.') + 1);
        if (leaf == "demandReads")
            tReads += value.scalar;
        else if (leaf == "demandHits")
            tHits += value.scalar;
        else if (leaf == "demandMisses")
            tMisses += value.scalar;
        else if (leaf == "writebacks")
            tWb += value.scalar;
    }
    if (tenants && (tReads != reads || tHits != hits || tMisses != misses ||
                    tWb != detail(d, "sim.llc.writebacksIn")))
        broken.push_back("sim.tenant<i> counters != global counters");
    return broken;
}

// --- modes ------------------------------------------------------------

int
modeSetup(const std::map<std::string, std::string> &args)
{
    const Clock::time_point t0 = Clock::now();
    Setup s = setUp(arg(args, "request"));
    RunnerPool pool;
    for (const GridPoint &gp : s.grid.points)
        pool.acquire(gp.sys);
    std::printf("ready %.9f\n", secondsSince(t0));
    std::fflush(stdout);
    return 0;
}

int
modeStudyUntraced(const std::map<std::string, std::string> &args)
{
    const unsigned jobs = std::stoul(arg(args, "jobs"));
    const int warm = std::stoi(arg(args, "warm"));
    Setup s = setUp(arg(args, "request"));

    JsonValue out = JsonValue::makeObject();
    JsonValue warmS = JsonValue::makeArray();
    std::vector<std::string> failures;

    // One cold study on a fresh pool, so nothing is memoized.
    const Clock::time_point start = Clock::now();
    RunnerPool pool;
    StudyRunOptions opts;
    opts.jobs = jobs;
    opts.pool = &pool;
    const StudyReport cold = runStudy(*makeStudy(s.request), opts);
    const double coldSeconds = secondsSince(start);
    out.set("peakRssMb", num(peakRssMb()));

    const RunnerStats st = sumStats(pool, s.grid);
    out.set("memoHits", num(double(st.memoHits)));
    out.set("simulations", num(double(st.simulations)));
    const std::string digest = cold.resultJson();

    // Warm repeats: the same request on the warm pool is served from
    // the memo without simulating. One engine thread: at --jobs 4 a
    // repeat waits for the slowest of four threads. Repeat i runs on
    // the i-th allowed CPU in turn, so no one CPU, and no outside load
    // that sits on it, sets the run's latencies.
    cpu_set_t allowed;
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    opts.jobs = 1;
    for (int i = 0; i < warm; ++i) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[std::size_t(i) % cpus.size()], &one);
            sched_setaffinity(0, sizeof(one), &one);
        }
        std::unique_ptr<Study> study = makeStudy(s.request);
        const Clock::time_point t0 = Clock::now();
        const StudyReport rep = runStudy(*study, opts);
        warmS.push(num(secondsSince(t0)));
        if (rep.resultJson() != digest)
            failures.push_back("warm repeat " + std::to_string(i) +
                               ": report differs from the cold one");
    }
    if (!cpus.empty())
        sched_setaffinity(0, sizeof(allowed), &allowed);

    // Identities on every run of the grid, read back from the memo.
    std::uint64_t checked = 0;
    for (const GridPoint &gp : s.grid.points) {
        ExperimentRunner runner = pool.acquire(gp.sys);
        for (const GridRun &r : gp.runs) {
            ++checked;
            for (const std::string &b : brokenIdentities(
                     runner.runOne(*r.spec, *r.llc, r.threads)))
                failures.push_back(r.spec->name + "/" + r.llc->name + "/" +
                                   std::to_string(r.threads) + ": " + b);
        }
    }
    if (sumStats(pool, s.grid).simulations != st.simulations)
        failures.push_back("benchmark grid does not match the study's runs");

    JsonValue fails = JsonValue::makeArray();
    for (const std::string &f : failures)
        fails.push(JsonValue::makeString(f));
    out.set("studySeconds", num(coldSeconds));
    out.set("warmSeconds", std::move(warmS));
    out.set("runsChecked", num(double(checked)));
    out.set("failures", std::move(fails));
    out.set("instructions",
            num(detail(cold.stats, "sim.instructions")));
    writeFile(arg(args, "report"), digest);
    writeFile(arg(args, "out"), out.dump());
    return 0;
}

/** One timed call into a layer. */
struct Span
{
    std::string layer;
    double t0 = 0, t1 = 0;
    std::uint64_t accesses = 0;
};

int
modeStudyTraced(const std::map<std::string, std::string> &args)
{
    const unsigned jobs = std::stoul(arg(args, "jobs"));
    Setup s = setUp(arg(args, "request"));
    RunnerPool pool;

    const Clock::time_point origin = Clock::now();
    auto at = [&] { return secondsSince(origin); };
    std::vector<Span> spans;
    JsonValue phases = JsonValue::makeArray();
    auto phase = [&](const std::string &name, double t0) {
        JsonValue p = JsonValue::makeObject();
        p.set("name", JsonValue::makeString(name));
        p.set("t0", num(t0));
        p.set("t1", num(at()));
        phases.push(std::move(p));
    };
    auto keep = [&](std::vector<Span> batch) {
        spans.insert(spans.end(), batch.begin(), batch.end());
    };

    std::set<std::string> distinctKeys;
    for (const GridPoint &gp : s.grid.points) {
        ExperimentRunner runner = pool.acquire(gp.sys);
        runner.setJobs(jobs);

        // One recording per distinct (workload, threads) of this runner.
        std::vector<GridRun> keys;
        std::set<std::string> seen;
        for (const GridRun &r : gp.runs) {
            const std::string k =
                r.spec->name + "|" + std::to_string(r.threads);
            distinctKeys.insert(k);
            if (seen.insert(k).second)
                keys.push_back(r);
        }

        double t0 = at();
        keep(parallelMap(jobs, keys, [&](const GridRun &k) {
            Span sp{"workload.record", at()};
            auto trace = runner.recordedTrace(k.spec->gen, k.threads);
            sp.t1 = at();
            sp.accesses = trace->totalAccesses();
            return sp;
        }));
        phase("workload.record", t0);

        t0 = at();
        keep(parallelMap(jobs, keys, [&](const GridRun &k) {
            Span sp{"sim.private", at()};
            runner.privateTrace(k.spec->gen, k.threads);
            sp.t1 = at();
            auto trace = runner.recordedTrace(k.spec->gen, k.threads);
            sp.accesses = trace->totalAccesses();
            return sp;
        }));
        phase("sim.private", t0);

        t0 = at();
        keep(parallelMap(jobs, gp.runs, [&](const GridRun &r) {
            auto trace = runner.recordedTrace(r.spec->gen, r.threads);
            Span sp{trace->threads() > 1 ? "sim.replayN" : "sim.replay1",
                    at()};
            runner.runOne(*r.spec, *r.llc, r.threads);
            sp.t1 = at();
            sp.accesses = trace->totalAccesses();
            return sp;
        }));
        phase("sim.replay", t0);
    }

    // Assembly: the study itself, served entirely from the memo.
    const RunnerStats st = sumStats(pool, s.grid);
    double t0 = at();
    StudyRunOptions opts;
    opts.jobs = jobs;
    opts.pool = &pool;
    const StudyReport rep = runStudy(*s.study, opts);
    phase("core.assemble", t0);
    const double wall = at();

    JsonValue failures = JsonValue::makeArray();
    if (sumStats(pool, s.grid).simulations != st.simulations)
        failures.push(JsonValue::makeString(
            "benchmark grid does not match the study's runs"));

    JsonValue spanArr = JsonValue::makeArray();
    for (const Span &sp : spans) {
        JsonValue v = JsonValue::makeObject();
        v.set("layer", JsonValue::makeString(sp.layer));
        v.set("t0", num(sp.t0));
        v.set("t1", num(sp.t1));
        v.set("accesses", num(double(sp.accesses)));
        spanArr.push(std::move(v));
    }
    JsonValue out = JsonValue::makeObject();
    out.set("wallSeconds", num(wall));
    out.set("jobs", num(jobs));
    out.set("phases", std::move(phases));
    out.set("spans", std::move(spanArr));
    out.set("distinctTraceKeys", num(double(distinctKeys.size())));
    out.set("traceBuilds", num(double(st.traceBuilds)));
    out.set("traceBytes", num(double(st.traceBytes)));
    out.set("privateBuilds", num(double(st.privateBuilds)));
    out.set("privateBytes", num(double(st.privateBytes)));
    out.set("failures", std::move(failures));
    writeFile(arg(args, "report"), rep.resultJson());
    writeFile(arg(args, "out"), out.dump());
    return 0;
}

/**
 * Closed loop over two persistent connections, cold and warm blocks in
 * turn.
 *
 * Cold block: the explorer connection sends the next requests of the
 * list, each new to the daemon (compares and sharded studies). Right
 * after each request marked "coalesce" the other connection sends the
 * same request, which then waits on the in-flight execution.
 *
 * Warm block, at each request marked "warm": both connections send
 * --repeats seeded repeats of requests already answered, served from
 * the daemon's memo while nothing simulates. Spreading the warm blocks
 * over the run keeps a burst of outside load from owning the hits.
 */
int
modeClient(const std::map<std::string, std::string> &args)
{
    const std::string socket = arg(args, "socket");
    const double maxSeconds = std::stod(arg(args, "max-seconds"));
    const long repeats = std::stol(arg(args, "repeats"));
    const std::uint64_t seed = std::stoull(arg(args, "seed"));

    std::vector<StudyRequest> reqs;
    std::vector<bool> coalesce, warmAfter;
    {
        std::istringstream in(readFile(arg(args, "explorer")));
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            const JsonValue v = JsonValue::parse(line);
            reqs.push_back(StudyRequest::fromJson(v.at("request")));
            coalesce.push_back(v.at("coalesce").asBool());
            warmAfter.push_back(v.at("warm").asBool());
        }
    }

    ClientConfig cfg;
    cfg.timeoutMs = 60000;
    const Clock::time_point origin = Clock::now();
    std::mutex mu;
    std::condition_variable cv;
    std::vector<JsonValue> records; // guarded by mu
    long pendingCoalesce = -1;      // guarded by mu
    std::size_t answered = 0;       // guarded by mu; explorer requests done
    long warmBlocks = 0;            // guarded by mu; blocks started
    long warmDone = 0;              // guarded by mu; blocks the other
                                    // connection finished
    bool coldDone = false;          // guarded by mu

    auto call = [&](std::unique_ptr<ServiceClient> &client, std::size_t i,
                    const std::string &role) {
        const StudyRequest &req = reqs[i];
        JsonValue rec = JsonValue::makeObject();
        rec.set("role", JsonValue::makeString(role));
        rec.set("i", num(double(i)));
        const double t0 = secondsSince(origin);
        rec.set("t0", num(t0));
        try {
            if (!client)
                client = std::make_unique<ServiceClient>(socket, cfg);
            JsonValue resp = client->run(req);
            rec.set("rt", num(secondsSince(origin) - t0));
            if (const JsonValue *r = resp.find("result")) {
                rec.set("result", JsonValue::makeString(r->dump()));
                resp.members.erase("result");
            }
            rec.set("response", std::move(resp));
        } catch (const std::exception &e) {
            // A broken connection fails this request; the next one
            // opens a fresh connection.
            rec.set("rt", num(secondsSince(origin) - t0));
            rec.set("error", JsonValue::makeString(e.what()));
            client.reset();
        }
        std::lock_guard<std::mutex> lock(mu);
        records.push_back(std::move(rec));
    };
    auto warm = [&](std::unique_ptr<ServiceClient> &client,
                    std::mt19937_64 &rng, std::size_t n) {
        for (long k = 0; k < repeats && n > 0; ++k)
            call(client, rng() % n, "warm");
    };

    std::thread explorer([&] {
        std::unique_ptr<ServiceClient> client;
        std::mt19937_64 rng(seed * 2);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (secondsSince(origin) >= maxSeconds)
                break;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (coalesce[i])
                    pendingCoalesce = long(i);
            }
            cv.notify_all();
            call(client, i, "explorer");
            if (!warmAfter[i])
                continue;
            {
                std::lock_guard<std::mutex> lock(mu);
                answered = i + 1;
                ++warmBlocks;
            }
            cv.notify_all();
            warm(client, rng, i + 1);
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return warmDone == warmBlocks; });
        }
        std::lock_guard<std::mutex> lock(mu);
        coldDone = true;
        cv.notify_all();
    });
    std::thread repeater([&] {
        std::unique_ptr<ServiceClient> client;
        std::mt19937_64 rng(seed * 2 + 1);
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            cv.wait(lock, [&] {
                return coldDone || pendingCoalesce >= 0 ||
                       warmDone < warmBlocks;
            });
            if (pendingCoalesce >= 0) {
                const long pick = pendingCoalesce;
                pendingCoalesce = -1;
                lock.unlock();
                call(client, std::size_t(pick), "coalesce");
                lock.lock();
            } else if (warmDone < warmBlocks) {
                const std::size_t n = answered;
                lock.unlock();
                warm(client, rng, n);
                lock.lock();
                ++warmDone;
                cv.notify_all();
            } else {
                break;
            }
        }
    });
    explorer.join();
    repeater.join();

    std::ostringstream out;
    for (const JsonValue &r : records)
        out << r.dump() << "\n";
    writeFile(arg(args, "out"), out.str());
    return 0;
}

int
modeStoreProbe(const std::map<std::string, std::string> &args)
{
    ResultStore store(arg(args, "store"));
    ResultStore scratch(arg(args, "scratch"));
    const StoreUsage usage = store.usage();

    std::vector<std::pair<std::string, std::string>> records;
    for (const StoreScanEntry &e : store.scan())
        if (e.valid)
            records.emplace_back(e.path, readFile(e.path));

    double putS = 0, loadS = 0;
    std::uint64_t loaded = 0;
    for (const auto &[path, bytes] : records) {
        const Clock::time_point t0 = Clock::now();
        scratch.put("probe", path, bytes);
        putS += secondsSince(t0);
    }
    for (const auto &[path, bytes] : records) {
        const Clock::time_point t0 = Clock::now();
        const std::optional<std::string> got = scratch.load("probe", path);
        loadS += secondsSince(t0);
        if (got && *got == bytes)
            ++loaded;
    }

    JsonValue out = JsonValue::makeObject();
    out.set("records", num(double(records.size())));
    out.set("bytes", num(double(usage.bytes)));
    out.set("putSeconds", num(putS));
    out.set("loadSeconds", num(loadS));
    out.set("loadedIntact", num(double(loaded)));
    writeFile(arg(args, "out"), out.dump());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw std::runtime_error(
                "usage: perfbench_driver setup|study|client|store-probe "
                "--key value ...");
        const std::string mode = argv[1];
        const auto args = parseArgs(argc, argv);
        if (mode == "setup")
            return modeSetup(args);
        if (mode == "study")
            return arg(args, "traced", "0") == "1" ? modeStudyTraced(args)
                                                   : modeStudyUntraced(args);
        if (mode == "client")
            return modeClient(args);
        if (mode == "store-probe")
            return modeStoreProbe(args);
        throw std::runtime_error("unknown mode '" + mode + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
