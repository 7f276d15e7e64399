/**
 * @file
 * Host-performance benchmark of the Fork Path simulator.
 *
 * Runs one workload through the library's public API (sim::System,
 * sim::SyncOram, workload::CoreModel and the component classes),
 * repeats whole passes until --seconds of host time are spent, and
 * writes the raw samples to --out as JSON: per-pass phase times and
 * digests, per-operation host latencies, the simulated results of
 * the first pass and, with --trace=1, the layer probes. run.py turns
 * them into medians and percentiles and checks them; this binary only
 * measures.
 *
 *   hostbench --workload=mac_dram --seed=1 --seconds=30 --trace=0
 *             --out=raw.json [--spans-out=spans.json]
 *
 * With --trace=1, untraced and traced passes alternate (the ratio of
 * their wall times is the tracing overhead), spans from this file's
 * own code go to --spans-out as a Chrome trace, and every layer is
 * then timed in isolation at parameters taken from the workload's
 * configuration and its first pass. Observability (obs/) stays off.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/label_queue.hh"
#include "core/merging_cache.hh"
#include "core/overlap.hh"
#include "crypto/counter_mode.hh"
#include "dram/dram_system.hh"
#include "mem/net_backend.hh"
#include "mem/tree_store.hh"
#include "oram/integrity.hh"
#include "oram/stash.hh"
#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "sim/sync_oram.hh"
#include "sim/system.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/core_model.hh"
#include "workload/mixes.hh"

using namespace fp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Keep a computed value alive past the optimizer. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Digest of a pass: the RunResult JSON, then the request-stream
 *  fingerprint (toJson only carries it on fault/retry runs). */
std::uint64_t
resultDigest(const std::string &json, std::uint64_t fingerprint)
{
    std::uint64_t h = fnv1a(json.data(), json.size());
    return fnv1a(&fingerprint, sizeof(fingerprint), h);
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!(out << text << '\n'))
        fp_fatal("cannot write '%s'", path.c_str());
}

// ---------------------------------------------------------------------
// Spans: recorded around calls into each layer, kept in memory and
// written as one Chrome trace when the process ends.

class SpanLog
{
  public:
    void setEnabled(bool on) { on_ = on; }

    long
    open(const char *name, std::uint64_t req_id = 0)
    {
        if (!on_)
            return -1;
        const long idx = static_cast<long>(spans_.size());
        spans_.push_back({name, nowUs(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), req_id});
        stack_.push_back(idx);
        return idx;
    }

    void
    close(long idx)
    {
        if (idx < 0)
            return;
        spans_[static_cast<std::size_t>(idx)].endUs = nowUs();
        stack_.pop_back();
    }

    /** Chrome trace ("X" events); args carry the span id, its parent
     *  span and the request id of a SyncOram call. */
    void
    write(const std::string &path) const
    {
        JsonWriter w;
        w.beginObject().key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject()
                .field("name", s.name)
                .field("ph", "X")
                .field("pid", 1)
                .field("tid", 1)
                .field("ts", s.startUs)
                .field("dur", s.endUs - s.startUs);
            w.key("args")
                .beginObject()
                .field("id", std::uint64_t{i})
                .field("parent", std::int64_t{s.parent})
                .field("req", s.reqId)
                .endObject();
            w.endObject();
        }
        w.endArray().endObject();
        writeFile(path, w.str());
    }

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        long parent;
        std::uint64_t reqId;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool on_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<long> stack_;
};

class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name, std::uint64_t req_id = 0)
        : log_(log), idx_(log.open(name, req_id))
    {
    }
    ~SpanScope() { log_.close(idx_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog &log_;
    long idx_;
};

// ---------------------------------------------------------------------
// Workloads. Sizes are fixed here so a pass is the same simulated work
// on every commit; only the seed varies the inputs.

struct KvShape
{
    unsigned leafLevel = 20;
    std::size_t payloadBytes = 64;
    std::uint64_t keys = 65536;
    std::uint64_t calls = 10000;
    // About 18% of the calls then hit the MAC and return in a few µs;
    // the rest take a path access. At 0.99 that share was 44%, so the
    // median call fell between the two modes and moved by a third
    // from one seed to the next.
    double zipfAlpha = 0.8;
};

sim::SimConfig
systemConfig(const std::string &workload, std::uint64_t seed)
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    if (workload == "mac_dram") {
        cfg = sim::withMergeMac(cfg, std::uint64_t{1} << 20, 64);
        cfg.requestsPerCore = 12000;
    } else {
        cfg = sim::withMergeOnly(cfg, 64);
        cfg.backendKind = sim::BackendKind::net;
        cfg.shards = 2;
        // About 1000 latency samples a pass: enough for ten to lie
        // beyond p99.
        cfg.requestsPerCore = 300;
    }
    cfg.seed = seed;
    return cfg;
}

core::ControllerParams
kvParams(const KvShape &shape)
{
    core::ControllerParams p = core::ControllerParams::forkPath();
    p.oram.leafLevel = shape.leafLevel;
    p.oram.payloadBytes = shape.payloadBytes;
    p.oram.encrypt = true;
    p.enableIntegrity = true;
    return p;
}

/** The kv_sync inputs: a fixed key set with values, and a call list
 *  of Zipf-skewed keys, half writes (with new values) and half reads. */
struct KvInputs
{
    struct Call
    {
        BlockAddr key;
        bool write;
        std::vector<std::uint8_t> value;
    };
    std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>> load;
    std::vector<Call> calls;
};

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    return v;
}

KvInputs
makeKvInputs(const KvShape &shape, std::uint64_t seed)
{
    KvInputs in;
    Rng rng(seed);
    in.load.reserve(shape.keys);
    for (BlockAddr k = 0; k < shape.keys; ++k)
        in.load.emplace_back(k, randomBytes(rng, shape.payloadBytes));
    // Popularity rank -> key: a seeded shuffle, so the hot keys are
    // scattered over the address space.
    std::vector<BlockAddr> by_rank(shape.keys);
    for (BlockAddr k = 0; k < shape.keys; ++k)
        by_rank[k] = k;
    for (std::size_t i = by_rank.size(); i > 1; --i)
        std::swap(by_rank[i - 1], by_rank[rng.uniformInt(i)]);
    ZipfSampler zipf(shape.keys, shape.zipfAlpha);
    in.calls.reserve(shape.calls);
    for (std::uint64_t i = 0; i < shape.calls; ++i) {
        KvInputs::Call c;
        c.key = by_rank[zipf.sample(rng)];
        c.write = rng.chance(0.5);
        if (c.write)
            c.value = randomBytes(rng, shape.payloadBytes);
        in.calls.push_back(std::move(c));
    }
    return in;
}

// ---------------------------------------------------------------------
// One pass: set-up, run, RunResult serialisation, teardown.

struct PassOut
{
    double setupS = 0.0;
    double runS = 0.0;
    double jsonS = 0.0;
    double teardownS = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t expectedOps = 0;
    std::uint64_t mismatches = 0;
    bool failed = false;
    bool hitTickLimit = false;
    std::uint64_t digest = 0;
    bool traced = false;
    /** Latency samples this pass added to op_us (0 when traced). */
    std::uint64_t opSamples = 0;

    double wallS() const { return setupS + runS + jsonS + teardownS; }
};

/** What the layer probes and the report need from a first pass. */
struct Observed
{
    sim::RunResult result;
    std::size_t materializedBuckets = 0;
    /** Blocks with a position-map entry: those resident in the tree,
     *  the stash or the MAC. */
    std::size_t mappedBlocks = 0;
    /** Bucket reads/writes of the run phase (kv_sync's bulk load
     *  excluded). */
    std::uint64_t storeReads = 0;
    std::uint64_t storeWrites = 0;
    double avgPendingEvents = 0.0;
    /** Share of samples at which the front end refused a request. */
    double frontEndRefused = 0.0;
};

/**
 * Host time per LLC request of a System run, sampled from outside:
 * a passive event every @p period simulated ticks divides the host
 * time since the last sample by the requests issued since then. It
 * reads state only, so the simulated outputs are unchanged (same-tick
 * events keep their relative order).
 */
class SliceSampler
{
  public:
    SliceSampler(sim::System &sys, Tick period,
                 std::vector<double> *op_us)
        : sys_(sys), period_(period), opUs_(op_us)
    {
    }
    // Queued events hold this object's address.
    SliceSampler(const SliceSampler &) = delete;
    SliceSampler &operator=(const SliceSampler &) = delete;

    void
    start()
    {
        last_ = Clock::now();
        arm();
    }

    double
    avgPendingEvents() const
    {
        return samples_ ? pendingSum_ / static_cast<double>(samples_)
                        : 0.0;
    }

    double
    refusedFraction() const
    {
        return samples_ ? static_cast<double>(refused_) /
                              static_cast<double>(samples_)
                        : 0.0;
    }

  private:
    void
    arm()
    {
        sys_.eventQueue().scheduleIn(period_, [this] { tick(); });
    }

    void
    tick()
    {
        const auto now = Clock::now();
        std::uint64_t issued = 0;
        bool all_done = true;
        for (const auto &core : sys_.cores()) {
            issued += core->issued();
            all_done = all_done && core->done();
        }
        pendingSum_ += static_cast<double>(sys_.eventQueue().size());
        refused_ += sys_.controller() ? !sys_.controller()->canAccept()
                                      : !sys_.sharded()->canAccept();
        ++samples_;
        if (issued > lastIssued_) {
            if (opUs_) {
                opUs_->push_back(
                    secondsBetween(last_, now) * 1e6 /
                    static_cast<double>(issued - lastIssued_));
            }
            last_ = now;
            lastIssued_ = issued;
        }
        if (!all_done)
            arm();
    }

    sim::System &sys_;
    Tick period_;
    std::vector<double> *opUs_;
    Clock::time_point last_;
    std::uint64_t lastIssued_ = 0;
    double pendingSum_ = 0.0;
    std::uint64_t refused_ = 0;
    std::uint64_t samples_ = 0;
};

/** Simulated-time slice for SliceSampler: a few thousand a pass. */
Tick
slicePeriod(const std::string &workload)
{
    return workload == "mac_dram" ? 20'000'000 : 200'000'000;
}

/** Tick limit of a pass: about three (mac_dram) and four (shards_net)
 *  times the simulated length a pass needs, so only a model defect
 *  (livelock, lost request) reaches it, well inside the run's timeout. */
Tick
tickLimit(const std::string &workload)
{
    return workload == "mac_dram" ? Tick{100'000'000'000}
                                  : Tick{2'000'000'000'000};
}

PassOut
runSystemPass(const std::string &workload, const sim::SimConfig &cfg,
              SpanLog &spans, std::vector<double> *op_us,
              Observed *observed)
{
    PassOut out;
    out.expectedOps = cfg.requestsPerCore * cfg.cores;
    SpanScope pass_span(spans, "pass");

    const auto t0 = Clock::now();
    std::unique_ptr<sim::System> sys;
    {
        SpanScope s(spans, "sim.build");
        sys = std::make_unique<sim::System>(
            cfg, workload::mixProfiles("Mix3"));
    }
    const auto t1 = Clock::now();

    SliceSampler sampler(*sys, slicePeriod(workload), op_us);
    sim::RunResult r;
    {
        SpanScope s(spans, "sim.run");
        sampler.start();
        r = sys->run(tickLimit(workload));
    }
    const auto t2 = Clock::now();

    std::string json;
    {
        SpanScope s(spans, "sim.result_json");
        json = sim::toJson(r);
    }
    const auto t3 = Clock::now();

    out.ops = r.llcRequests;
    out.failed = r.failed;
    out.hitTickLimit = r.hitTickLimit;
    out.digest = resultDigest(json, r.reqStreamFingerprint);
    if (observed) {
        observed->result = r;
        observed->avgPendingEvents = sampler.avgPendingEvents();
        observed->frontEndRefused = sampler.refusedFraction();
        std::vector<core::OramController *> ctrls;
        if (sys->controller())
            ctrls.push_back(sys->controller());
        if (auto *sh = sys->sharded())
            for (unsigned s = 0; s < sh->numShards(); ++s)
                ctrls.push_back(&sh->shard(s));
        for (auto *c : ctrls) {
            observed->materializedBuckets +=
                c->store().materializedBuckets();
            observed->mappedBlocks += c->positionMap().size();
            observed->storeReads += c->store().readCount();
            observed->storeWrites += c->store().writeCount();
        }
    }

    const auto t4 = Clock::now();
    {
        SpanScope s(spans, "sim.teardown");
        sys.reset();
    }
    const auto t5 = Clock::now();

    out.setupS = secondsBetween(t0, t1);
    out.runS = secondsBetween(t1, t2);
    out.jsonS = secondsBetween(t2, t3);
    out.teardownS = secondsBetween(t4, t5);
    return out;
}

/** The RunResult of an embedded store, built from its controller's
 *  public counters (SyncOram has no run() to produce one). */
sim::RunResult
kvResult(sim::SyncOram &oram, std::uint64_t calls)
{
    core::OramController &c = oram.controller();
    sim::RunResult r;
    r.executionTicks = oram.now();
    r.avgLlcLatencyNs = c.oramLatency().mean();
    r.avgReadPathLen = c.avgReadPathLength();
    r.avgDramBucketsRead = c.avgDramBucketsRead();
    r.avgDramServiceNs = c.avgDramServiceNs();
    r.realAccesses = c.realAccesses();
    r.dummyAccesses = c.dummyAccessesRun();
    r.dummyReplacements = c.dummyReplacements();
    r.pendingSwaps = c.pendingSwaps();
    r.stashShortcuts = c.stashShortcuts();
    r.llcRequests = calls;
    r.mergedLevelsSkipped = c.mergedLevelsSkipped();
    r.mergeSkipsPerLevel = c.mergeSkipsPerLevel();
    if (auto *dram = oram.dram()) {
        r.rowHits = dram->rowHits();
        r.rowMisses = dram->rowMisses();
        r.dramEnergyNj = dram->energy(oram.now()).total();
    }
    const mem::BackendStats bs = oram.backend().statsSnapshot();
    r.backendKind = oram.backend().kind();
    r.backendReadBursts = bs.readBursts;
    r.backendWriteBursts = bs.writeBursts;
    r.backendBytesRead = bs.bytesRead;
    r.backendBytesWritten = bs.bytesWritten;
    r.backendAvgLatencyNs = bs.avgLatencyNs;
    r.reqStreamFingerprint = c.reqStreamFingerprint();
    r.controllerEnergyNj = sim::controllerEnergyNj(c, oram.now());
    r.stashPeak = c.stash().peakSize();
    r.stashOverflows = c.stash().overflowEvents();
    if (auto *mac = c.mac()) {
        r.cacheHits = mac->hits();
        r.cacheMisses = mac->misses();
    }
    return r;
}

PassOut
runKvPass(const KvInputs &in, const core::ControllerParams &params,
          SpanLog &spans, std::vector<double> *op_us,
          Observed *observed)
{
    PassOut out;
    out.expectedOps = in.calls.size();
    SpanScope pass_span(spans, "pass");

    // The mirror map the reads are checked against (not timed).
    std::vector<std::vector<std::uint8_t>> mirror;
    mirror.reserve(in.load.size());
    for (const auto &kv : in.load)
        mirror.push_back(kv.second);

    const auto t0 = Clock::now();
    std::unique_ptr<sim::SyncOram> oram;
    {
        SpanScope s(spans, "sim.build");
        oram = std::make_unique<sim::SyncOram>(params);
        SpanScope load(spans, "sim.sync_oram.bulk_load");
        oram->bulkLoad(in.load);
    }
    const auto t1 = Clock::now();
    const std::uint64_t loaded_reads =
        oram->controller().store().readCount();
    const std::uint64_t loaded_writes =
        oram->controller().store().writeCount();

    std::uint64_t read_digest = 0xcbf29ce484222325ULL;
    {
        SpanScope s(spans, "sim.run");
        std::uint64_t req_id = 0;
        for (const KvInputs::Call &call : in.calls) {
            ++req_id;
            std::vector<std::uint8_t> got;
            const auto c0 = Clock::now();
            if (call.write) {
                SpanScope cs(spans, "sim.sync_oram.write", req_id);
                oram->write(call.key, call.value);
            } else {
                SpanScope cs(spans, "sim.sync_oram.read", req_id);
                got = oram->read(call.key);
            }
            if (op_us) {
                op_us->push_back(secondsBetween(c0, Clock::now()) *
                                 1e6);
            }
            if (call.write) {
                mirror[call.key] = call.value;
            } else {
                out.mismatches += got != mirror[call.key];
                read_digest =
                    fnv1a(got.data(), got.size(), read_digest);
            }
            ++out.ops;
        }
    }
    const auto t2 = Clock::now();

    sim::RunResult r;
    std::string json;
    {
        SpanScope s(spans, "sim.result_json");
        r = kvResult(*oram, out.ops);
        json = sim::toJson(r);
    }
    const auto t3 = Clock::now();

    out.digest = resultDigest(json, r.reqStreamFingerprint ^ read_digest);
    if (observed) {
        observed->result = r;
        core::OramController &c = oram->controller();
        observed->materializedBuckets = c.store().materializedBuckets();
        observed->mappedBlocks = c.positionMap().size();
        observed->storeReads = c.store().readCount() - loaded_reads;
        observed->storeWrites = c.store().writeCount() - loaded_writes;
        // SyncOram keeps its event queue private; between calls the
        // pending work is at most the writeback window plus the
        // access in flight.
        observed->avgPendingEvents = params.writeWindow + 1.0;
    }

    const auto t4 = Clock::now();
    {
        SpanScope s(spans, "sim.teardown");
        oram.reset();
    }
    const auto t5 = Clock::now();

    out.setupS = secondsBetween(t0, t1);
    out.runS = secondsBetween(t1, t2);
    out.jsonS = secondsBetween(t2, t3);
    out.teardownS = secondsBetween(t4, t5);
    return out;
}

// ---------------------------------------------------------------------
// Layer probes: each layer timed alone, at the workload's parameters.

/**
 * ns per operation of @p run_n(n): n grows until one batch takes a
 * quarter of @p budget_s, then the median of three such batches.
 */
double
nsPerOp(double budget_s, const std::function<void(std::uint64_t)> &run_n)
{
    run_n(1); // warm-up: first-touch allocations, code paths
    const double batch_s = std::max(budget_s / 4.0, 0.01);
    std::uint64_t n = 1;
    for (;;) {
        const auto t0 = Clock::now();
        run_n(n);
        const double dt = secondsBetween(t0, Clock::now());
        if (dt >= batch_s || n >= (std::uint64_t{1} << 40))
            break;
        const double grow = batch_s / std::max(dt, 1e-7) * 1.2;
        n = std::max(n + 1, static_cast<std::uint64_t>(
                                static_cast<double>(n) * grow));
    }
    std::vector<double> per_op;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        run_n(n);
        per_op.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                         static_cast<double>(n));
    }
    std::sort(per_op.begin(), per_op.end());
    return per_op[1];
}

/** A sink that refuses for a fixed simulated window after each
 *  accepted request and counts every canAccept() poll. */
class RefusingSink : public workload::MemorySink
{
  public:
    RefusingSink(EventQueue &eq, Tick window, Tick latency)
        : eq_(eq), window_(window), latency_(latency)
    {
    }
    // Queued responses hold this object's address.
    RefusingSink(const RefusingSink &) = delete;
    RefusingSink &operator=(const RefusingSink &) = delete;

    bool
    canAccept() const override
    {
        ++polls_;
        return eq_.now() >= openAt_;
    }

    bool
    access(const workload::MemRequest &, ResponseFn on_response) override
    {
        if (eq_.now() < openAt_)
            return false;
        openAt_ = eq_.now() + window_;
        ++accepted_;
        eq_.scheduleIn(latency_, [this, cb = std::move(on_response)] {
            cb(eq_.now());
        });
        return true;
    }

    std::uint64_t polls() const { return polls_; }
    std::uint64_t accepted() const { return accepted_; }

  private:
    EventQueue &eq_;
    Tick window_;
    Tick latency_;
    Tick openAt_ = 0;
    mutable std::uint64_t polls_ = 0;
    std::uint64_t accepted_ = 0;
};

/** Accepts everything and never answers: CoreModel set-up only. */
class NullSink : public workload::MemorySink
{
  public:
    bool canAccept() const override { return true; }
    bool
    access(const workload::MemRequest &, ResponseFn) override
    {
        return true;
    }
};

/** Probe results by metric name (run.py holds the units). */
using Probes = std::vector<std::pair<std::string, double>>;

/** The workload's shape as the probes see it. */
struct LayerShape
{
    core::ControllerParams ctrl;
    sim::SimConfig sys; //!< backend/DRAM/net/core settings
    unsigned cores = 1;
    Observed obs;
};

Probes
runProbes(const LayerShape &shape, bool kv, const KvShape &kv_shape,
          std::uint64_t seed, double budget_s, SpanLog &spans)
{
    Probes probes;
    const core::ControllerParams &cp = shape.ctrl;
    const mem::TreeGeometry geo(cp.oram.leafLevel);
    const unsigned z = cp.oram.z;
    const std::size_t payload = cp.oram.payloadBytes;
    const sim::RunResult &r = shape.obs.result;
    // 13 timed measurements, plus slack for populating the tree store
    // and the Merkle tree.
    const double each = budget_s / 15.0;
    Rng rng(seed ^ 0x9b0be);

    auto add = [&](const char *name, double value) {
        probes.emplace_back(name, value);
    };

    {
        SpanScope s(spans, "probe.util.event_queue");
        const auto depth = static_cast<std::uint64_t>(
            std::max(1.0, std::round(shape.obs.avgPendingEvents)));
        EventQueue eq;
        Rng erng(7);
        struct Churn
        {
            EventQueue *eq;
            Rng *rng;
            void
            operator()() const
            {
                eq->scheduleIn(1 + rng->uniformInt(4096), *this);
            }
        };
        for (std::uint64_t i = 0; i < depth; ++i)
            eq.schedule(erng.uniformInt(4096), Churn{&eq, &erng});
        add("util.event_queue.ns_per_event",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    eq.step();
            }));
    }

    {
        SpanScope s(spans, "probe.workload.core_model");
        // The sink refuses for the share of a core's inter-accept
        // interval during which the workload's front end was seen
        // refusing, and answers after the workload's mean latency.
        const std::uint64_t per_core =
            std::max<std::uint64_t>(1, r.llcRequests / shape.cores);
        const auto window = static_cast<Tick>(
            shape.obs.frontEndRefused *
            static_cast<double>(r.executionTicks / per_core));
        const auto latency = static_cast<Tick>(
            std::llround(r.avgLlcLatencyNs * 1000.0));
        workload::CoreParams core_params;
        core_params.cpuPeriodTicks = shape.sys.cpuPeriodTicks;
        core_params.maxOutstanding = kv ? 1 : shape.sys.maxOutstanding;
        const auto profile = workload::mixProfiles("Mix3")[0];
        // Only start + run are timed: building a CoreModel builds its
        // Zipf CDF, which workload.setup_s measures.
        double host_s = 0.0;
        std::uint64_t polls = 0, accepted = 0;
        const auto start = Clock::now();
        for (std::uint64_t n = 16;
             secondsBetween(start, Clock::now()) < each; n *= 2) {
            EventQueue eq;
            RefusingSink sink(eq, window, latency);
            core_params.totalRequests = n;
            workload::CoreModel core(core_params, profile, 0, seed, eq,
                                     sink);
            const auto t0 = Clock::now();
            core.start();
            eq.run();
            host_s += secondsBetween(t0, Clock::now());
            polls += sink.polls();
            accepted += sink.accepted();
        }
        add("workload.core_model.ns_per_retry",
            host_s * 1e9 / static_cast<double>(polls));
        add("workload.core_model.retries_per_request",
            static_cast<double>(polls) / static_cast<double>(accepted));
    }

    {
        SpanScope s(spans, "probe.workload.setup");
        double setup_ns;
        if (kv) {
            setup_ns = nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    keep(makeKvInputs(kv_shape, seed));
            });
        } else {
            const auto profiles = workload::mixProfiles("Mix3");
            setup_ns = nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    EventQueue eq;
                    NullSink sink;
                    std::vector<std::unique_ptr<workload::CoreModel>>
                        cores;
                    for (unsigned c = 0; c < profiles.size(); ++c) {
                        workload::CoreParams p;
                        p.coreId = c;
                        cores.push_back(
                            std::make_unique<workload::CoreModel>(
                                p, profiles[c], 0, seed + c * 0x9111,
                                eq, sink));
                    }
                    keep(cores);
                }
            });
        }
        add("workload.setup_s", setup_ns * 1e-9);
    }

    {
        SpanScope s(spans, "probe.core.label_queue");
        core::LabelQueue queue(geo, cp.labelQueueSize, cp.agingThreshold,
                               cp.dummyPolicy, 3);
        add("core.label_queue.select_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    queue.ensureFull();
                    keep(queue.selectNext(
                        rng.uniformInt(geo.numLeaves())));
                }
            }));
    }

    {
        SpanScope s(spans, "probe.oram.stash");
        const std::size_t occupancy = std::max<std::size_t>(r.stashPeak, 1);
        oram::Stash stash(geo, std::max<std::size_t>(4096, 2 * occupancy));
        for (std::size_t i = 0; i < occupancy; ++i) {
            stash.insert(mem::Block(i, rng.uniformInt(geo.numLeaves()),
                                    randomBytes(rng, payload)));
        }
        // One eviction sweep of a path: every level, leaf first.
        add("oram.stash.evict_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    const LeafLabel path =
                        rng.uniformInt(geo.numLeaves());
                    for (unsigned l = geo.numLevels(); l-- > 0;) {
                        auto evicted = stash.evictForBucket(path, l, z);
                        for (auto &blk : evicted)
                            stash.insert(std::move(blk));
                    }
                }
            }) / geo.numLevels());
    }

    {
        SpanScope s(spans, "probe.core.mac");
        core::MergingCacheParams mp;
        mp.m1 = cp.macM1 >= 0 ? static_cast<unsigned>(cp.macM1)
                              : core::macBottomLevel(geo, cp.labelQueueSize);
        mp.budgetBytes = cp.cacheBudgetBytes;
        mp.bucketsPerSet = cp.macBucketsPerSet;
        mp.bucketBytes = cp.bucketBytes();
        mp.z = z;
        core::MergingAwareCache mac(geo, mp);
        const unsigned span = mac.m2() - mac.m1() + 1;
        add("core.mac.insert_extract_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    const unsigned level = mac.m1() + rng.uniformInt(span);
                    const BucketIndex idx =
                        ((std::uint64_t{1} << level) - 1) +
                        rng.uniformInt(std::uint64_t{1} << level);
                    keep(mac.insert(idx, mem::Bucket(z)));
                    keep(mac.extract(idx));
                }
            }));
    }

    // Buckets of the workload's block format, each slot filled with
    // the probability the first pass's tree was: mapped blocks over
    // the slots of its materialised buckets.
    const std::size_t resident = std::clamp<std::size_t>(
        shape.obs.materializedBuckets, 1, std::size_t{1} << 17);
    const double fill = std::clamp(
        static_cast<double>(shape.obs.mappedBlocks) /
            static_cast<double>(
                std::max<std::size_t>(shape.obs.materializedBuckets, 1) *
                z),
        0.0, 1.0);
    std::vector<mem::Bucket> pool;
    for (BlockAddr next = 0; pool.size() < 64;) {
        mem::Bucket b(z);
        for (unsigned i = 0; i < z; ++i) {
            if (rng.uniformDouble() < fill) {
                b.add(mem::Block(next++, rng.uniformInt(geo.numLeaves()),
                                 randomBytes(rng, payload)));
            }
        }
        pool.push_back(std::move(b));
    }
    const auto any_bucket = [&]() -> const mem::Bucket & {
        return pool[rng.uniformInt(pool.size())];
    };

    {
        SpanScope s(spans, "probe.mem.tree_store");
        // Whole paths, as the controller reads and writes them, over
        // as many resident buckets as the first pass materialised
        // (capped to bound the probe's memory). ns per bucket.
        mem::TreeStore store(geo, z, payload, cp.oram.encrypt, seed);
        while (store.materializedBuckets() < resident) {
            const LeafLabel leaf = rng.uniformInt(geo.numLeaves());
            for (unsigned l = 0; l < geo.numLevels(); ++l)
                store.writeBucket(geo.bucketAt(leaf, l), any_bucket());
        }
        add("mem.tree_store.read_bucket_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    const LeafLabel leaf = rng.uniformInt(geo.numLeaves());
                    for (unsigned l = 0; l < geo.numLevels(); ++l)
                        keep(store.readBucket(geo.bucketAt(leaf, l)));
                }
            }) / geo.numLevels());
        add("mem.tree_store.write_bucket_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    const LeafLabel leaf = rng.uniformInt(geo.numLeaves());
                    for (unsigned l = 0; l < geo.numLevels(); ++l)
                        store.writeBucket(geo.bucketAt(leaf, l),
                                          any_bucket());
                }
            }) / geo.numLevels());
    }

    {
        SpanScope s(spans, "probe.oram.integrity");
        // The slice a typical access rewrites: its fetched levels.
        const auto fetched = static_cast<unsigned>(std::clamp(
            std::lround(r.avgReadPathLen), 1L,
            static_cast<long>(geo.numLevels())));
        const unsigned start = geo.numLevels() - fetched;
        std::vector<mem::Bucket> slice;
        for (unsigned i = 0; i < fetched; ++i)
            slice.push_back(any_bucket());
        oram::MerkleTree tree(geo, seed);
        for (std::size_t i = 0; i < resident / geo.numLevels(); ++i)
            tree.updateSlice(rng.uniformInt(geo.numLeaves()), 0,
                             std::vector<mem::Bucket>(geo.numLevels(),
                                                      any_bucket()));
        add("oram.integrity.update_slice_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    tree.updateSlice(rng.uniformInt(geo.numLeaves()),
                                     start, slice);
                }
            }));
    }

    {
        SpanScope s(spans, "probe.crypto");
        // One sealed bucket image: Z slots of (addr, leaf, payload).
        crypto::CounterModeCipher cipher(seed);
        const std::vector<std::uint8_t> image =
            randomBytes(rng, z * (16 + payload));
        std::uint64_t nonce = 0;
        add("crypto.seal_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    keep(cipher.encrypt(image, ++nonce));
            }));
        const crypto::SealedBlock sealed = cipher.encrypt(image, 1);
        add("crypto.unseal_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    keep(cipher.decrypt(sealed));
            }));
    }

    {
        SpanScope s(spans, "probe.dram");
        EventQueue eq;
        dram::DramSystem dram(shape.sys.dram, eq);
        const auto bursts =
            static_cast<unsigned>(cp.bucketBytes() / 64);
        add("dram.transaction_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    dram::DramRequest req;
                    req.addr = rng.uniformInt(1ULL << 30) & ~63ULL;
                    req.isWrite = rng.chance(0.5);
                    req.bursts = bursts;
                    bool done = false;
                    req.onComplete = [&done](Tick) { done = true; };
                    dram.access(std::move(req));
                    eq.run();
                    keep(done);
                }
            }));
    }

    {
        SpanScope s(spans, "probe.mem.net");
        EventQueue eq;
        mem::NetBackend net(shape.sys.net, eq);
        add("mem.net.transaction_ns",
            nsPerOp(each, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    mem::BackendRequest req;
                    req.addr = rng.uniformInt(1ULL << 30) & ~63ULL;
                    req.isWrite = rng.chance(0.5);
                    req.bytes = cp.bucketBytes();
                    bool done = false;
                    req.onComplete = [&done](Tick) { done = true; };
                    net.access(std::move(req));
                    eq.run();
                    keep(done);
                }
            }));
    }
    return probes;
}

/**
 * Calls of a SyncOram built from a System workload's controller and
 * backend (with a payload, which SyncOram needs), so the per-call
 * spans exist on every workload. kv_sync's own calls are its spans.
 */
void
runSyncOramProbe(const LayerShape &shape, std::uint64_t seed,
                 double budget_s, SpanLog &spans)
{
    SpanScope s(spans, "probe.sim.sync_oram");
    core::ControllerParams cp = shape.ctrl;
    cp.oram.payloadBytes = cp.blockPhysBytes;
    std::unique_ptr<sim::SyncOram> oram =
        shape.sys.backendKind == sim::BackendKind::net
            ? std::make_unique<sim::SyncOram>(cp, shape.sys.net)
            : std::make_unique<sim::SyncOram>(cp, shape.sys.dram);
    Rng rng(seed ^ 0x5a11);
    const auto t0 = Clock::now();
    std::uint64_t req_id = 0;
    while (secondsBetween(t0, Clock::now()) < budget_s) {
        // Independent addresses, so a read is rarely served from
        // the stash by the write just before it.
        const BlockAddr waddr = rng.uniformInt(4096);
        const BlockAddr raddr = rng.uniformInt(4096);
        {
            SpanScope w(spans, "sim.sync_oram.write", ++req_id);
            oram->write(waddr, randomBytes(rng, cp.oram.payloadBytes));
        }
        {
            SpanScope rd(spans, "sim.sync_oram.read", ++req_id);
            keep(oram->read(raddr));
        }
    }
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
writeRaw(const std::string &path, const std::string &workload,
         std::uint64_t seed, bool trace, bool integrity,
         const std::vector<PassOut> &passes,
         const std::vector<double> &op_us, const Observed &obs,
         const Probes &probes, double rss_mb)
{
    const sim::RunResult &r = obs.result;
    JsonWriter w;
    w.beginObject()
        .field("workload", workload)
        .field("seed", seed)
        .field("trace", trace)
        .field("integrity", integrity)
        .field("peak_rss_mb", rss_mb);
    w.key("passes").beginArray();
    for (const PassOut &p : passes) {
        w.beginObject()
            .field("setup_s", p.setupS)
            .field("run_s", p.runS)
            .field("result_json_s", p.jsonS)
            .field("teardown_s", p.teardownS)
            .field("wall_s", p.wallS())
            .field("ops", p.ops)
            .field("expected_ops", p.expectedOps)
            .field("mismatches", p.mismatches)
            .field("failed", p.failed)
            .field("hit_tick_limit", p.hitTickLimit)
            .field("digest", hex64(p.digest))
            .field("traced", p.traced)
            .field("op_samples", p.opSamples)
            .endObject();
    }
    w.endArray();
    w.key("op_us").beginArray();
    for (double v : op_us)
        w.value(v);
    w.endArray();
    w.key("sim")
        .beginObject()
        .field("sim_exec_ms", static_cast<double>(r.executionTicks) / 1e9)
        .field("oram_latency_ns", r.avgLlcLatencyNs)
        .field("buckets_per_access", r.avgDramBucketsRead)
        .endObject();
    w.key("counts")
        .beginObject()
        .field("core.real_accesses", r.realAccesses)
        .field("core.dummy_accesses", r.dummyAccesses)
        .field("core.dummy_replacements", r.dummyReplacements)
        .field("core.read_path_len", r.avgReadPathLen)
        .field("core.merged_levels_skipped", r.mergedLevelsSkipped)
        .field("core.mac_hit_rate", r.cacheHitRate())
        .field("core.mac_lookups", r.cacheHits + r.cacheMisses)
        .field("core.shard_window_rejects", r.shardWindowRejects)
        .field("core.shard_busy_rejects", r.shardBusyRejects)
        .field("oram.stash_peak", std::uint64_t{r.stashPeak})
        .field("oram.stash_shortcuts", r.stashShortcuts)
        .field("dram.row_hit_rate", r.rowHitRate())
        .field("dram.service_ns", r.avgDramServiceNs)
        .field("dram.energy_uj", r.dramEnergyNj / 1e3)
        .field("mem.backend_bytes_read", r.backendBytesRead)
        .field("mem.backend_bytes_written", r.backendBytesWritten)
        .field("mem.backend_latency_ns", r.backendAvgLatencyNs)
        .field("mem.tree_store.reads", obs.storeReads)
        .field("mem.tree_store.writes", obs.storeWrites)
        .endObject();
    w.key("probes").beginObject();
    for (const auto &[name, value] : probes)
        w.field(name, value);
    w.endObject().endObject();
    writeFile(path, w.str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::string workload = args.getString("workload");
    const std::int64_t seed_arg = args.getInt("seed", -1);
    const double seconds = args.getDouble("seconds", 0.0);
    const bool trace = args.getInt("trace", 0) != 0;
    const std::string out_path = args.getString("out");
    const std::string spans_path = args.getString("spans-out");
    if (workload != "mac_dram" && workload != "shards_net" &&
        workload != "kv_sync")
        fp_fatal("unknown --workload '%s' (mac_dram, shards_net, "
                 "kv_sync)", workload.c_str());
    if (seed_arg < 0 || seconds <= 0.0 || out_path.empty())
        fp_fatal("usage: hostbench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --out=FILE [--spans-out=FILE]");
    const auto seed = static_cast<std::uint64_t>(seed_arg);
    const bool kv = workload == "kv_sync";

    LayerShape shape;
    KvShape kv_shape;
    KvInputs kv_inputs;
    if (kv) {
        shape.ctrl = kvParams(kv_shape);
        shape.sys.dram = sim::SimConfig::defaultDram();
        kv_inputs = makeKvInputs(kv_shape, seed);
    } else {
        shape.sys = systemConfig(workload, seed);
        shape.ctrl = shape.sys.controller;
        shape.cores = shape.sys.cores;
    }

    SpanLog spans;
    std::vector<PassOut> passes;
    std::vector<double> op_us;
    const auto pass = [&](bool traced, Observed *obs) {
        spans.setEnabled(traced);
        // End-to-end samples come from untraced passes only.
        std::vector<double> *ops = traced ? nullptr : &op_us;
        const std::size_t before = op_us.size();
        PassOut p = kv ? runKvPass(kv_inputs, shape.ctrl, spans, ops, obs)
                       : runSystemPass(workload, shape.sys, spans, ops,
                                       obs);
        p.traced = traced;
        p.opSamples = op_us.size() - before;
        spans.setEnabled(false);
        passes.push_back(p);
    };

    // Passes fill the whole run, or (traced) the first 55% of it,
    // untraced and traced alternating; the probes take the rest.
    const auto t0 = Clock::now();
    const double pass_budget = trace ? 0.55 * seconds : seconds;
    pass(false, &shape.obs);
    // Every pass does the same work; taken now, the peak excludes the
    // benchmark's own sample buffers, which grow with the run's length.
    const double rss_mb = peakRssMb();
    while (secondsBetween(t0, Clock::now()) < pass_budget ||
           (trace && passes.size() < 2)) {
        pass(trace && passes.size() % 2 == 1, nullptr);
    }

    Probes probes;
    if (trace) {
        spans.setEnabled(true);
        const double left =
            std::max(1.0, seconds - secondsBetween(t0, Clock::now()));
        if (!kv)
            runSyncOramProbe(shape, seed, left / 16.0, spans);
        probes = runProbes(shape, kv, kv_shape, seed,
                           kv ? left : left * 15.0 / 16.0, spans);
        spans.setEnabled(false);
        if (!spans_path.empty())
            spans.write(spans_path);
    }
    writeRaw(out_path, workload, seed, trace, shape.ctrl.enableIntegrity,
             passes, op_us, shape.obs, probes, rss_mb);
    return 0;
}
