#include "sim/system.hh"

#include <algorithm>
#include <fstream>

#include "util/bitops.hh"
#include "util/debug.hh"
#include "util/logging.hh"

namespace fp::sim
{

/** Adapter: LLC misses into the ORAM front end (one controller, or
 *  the shard dispatcher). A false return (controller busy, or the
 *  home shard's window full) is the retry-later signal. */
template <typename FrontEnd>
class System::OramSink : public workload::MemorySink
{
  public:
    explicit OramSink(FrontEnd &front) : front_(front) {}

    bool canAccept() const override { return front_.canAccept(); }
    bool capacityChangesOnlyInEvents() const override { return true; }

    bool
    access(const workload::MemRequest &req,
           ResponseFn on_response) override
    {
        auto op = req.isWrite ? oram::Op::write : oram::Op::read;
        std::uint64_t id = front_.request(
            op, req.addr, {},
            [cb = std::move(on_response)](
                Tick t, const std::vector<std::uint8_t> &) {
                cb(t);
            });
        return id != 0;
    }

  private:
    FrontEnd &front_;
};

/** Adapter: the insecure baseline, one burst per miss, straight at
 *  the memory backend. */
class System::InsecureSink : public workload::MemorySink
{
  public:
    InsecureSink(mem::MemoryBackend &backend,
                 std::uint64_t block_bytes,
                 std::size_t max_outstanding)
        : backend_(backend), blockBytes_(block_bytes),
          maxOutstanding_(max_outstanding)
    {
    }

    bool canAccept() const override
    {
        return outstanding_ < maxOutstanding_;
    }
    bool capacityChangesOnlyInEvents() const override { return true; }

    bool
    access(const workload::MemRequest &req,
           ResponseFn on_response) override
    {
        if (!canAccept())
            return false;
        ++outstanding_;
        mem::BackendRequest breq;
        breq.addr = req.addr * blockBytes_;
        breq.isWrite = req.isWrite;
        breq.bytes = backend_.burstBytes();
        breq.onComplete = [this, cb = std::move(on_response)](Tick t) {
            --outstanding_;
            cb(t);
        };
        backend_.access(std::move(breq));
        return true;
    }

  private:
    mem::MemoryBackend &backend_;
    std::uint64_t blockBytes_;
    std::size_t maxOutstanding_;
    std::size_t outstanding_ = 0;
};

System::System(const SimConfig &cfg,
               std::vector<workload::WorkloadProfile> profiles)
    : cfg_(cfg)
{
    fp_assert(profiles.size() == cfg.cores,
              "System: %zu profiles for %u cores", profiles.size(),
              cfg.cores);

    // Every StatGroup constructed below registers with this System's
    // registry, not a global one: the scope makes registry_ the
    // thread's current registry for the duration of construction.
    StatRegistry::Scope stat_scope(registry_);

    // Debug lines from this System's components are prefixed with
    // this event queue's clock (thread-local, so concurrent Systems
    // on worker threads each see their own clock).
    setDebugTickSource(eq_.nowPtr());

    if (cfg_.obs.traceEnabled()) {
        tracer_ = std::make_unique<obs::Tracer>(
            cfg_.obs.traceOut, cfg_.obs.traceLevel, eq_.nowPtr());
    }
    if (cfg_.obs.statsEnabled()) {
        intervalStats_ = std::make_unique<obs::IntervalStats>(
            cfg_.obs.statsOut, cfg_.obs.statsIntervalTicks,
            registry_);
    }
    const bool sharded = cfg_.shards > 1;
    if (sharded && cfg_.insecure)
        fp_fatal("--shards requires the ORAM path: the insecure "
                 "baseline has no controller to shard");

    // One store per shard. Each owns a complete memory stack (its own
    // DRAM channels or network pipe, with its own fault injector and
    // retry layer), so faults and retries are independent across
    // shards too.
    const unsigned num_stores = sharded ? cfg_.shards : 1;
    stores_.reserve(num_stores);
    for (unsigned s = 0; s < num_stores; ++s) {
        // A shard's StatGroups and trace tracks get an "s<N>." name
        // prefix (the dispatcher prefixes its controller stacks the
        // same way), keeping interval-stats keys unique.
        const std::string prefix = sharded ? strprintf("s%u.", s) : "";
        StatNameScope scope(prefix);

        std::unique_ptr<obs::Tracer> view;
        if (tracer_ && sharded) {
            // Same trace file; tracks land at tid 32 * shard + base.
            view = tracer_->makeView(32 * s, prefix);
        }
        obs::Tracer *tracer = view ? view.get() : tracer_.get();

        std::unique_ptr<obs::RequestProfiler> profiler;
        if (cfg_.obs.profilingEnabled() && !cfg_.insecure) {
            // The profiler tracks ORAM pipeline milestones, so
            // insecure runs (no controller) have nothing for it to
            // measure.
            profiler = std::make_unique<obs::RequestProfiler>(
                eq_.nowPtr(), cfg_.controller.bucketBytes());
            if (tracer)
                profiler->setTracer(tracer);
        }

        mem::FaultParams faults = cfg_.faults;
        if (sharded) {
            // Shards must not replay one another's fault decisions
            // in lockstep.
            faults.seed =
                core::ShardedOram::shardSeed(cfg_.faults.seed ^ 0xf417ULL, s);
        }
        stores_.push_back(Store{std::move(view), tracer,
                                std::move(profiler),
                                MemoryStack(cfg_.backendKind, cfg_.dram,
                                            cfg_.net, faults, cfg_.retry,
                                            eq_)});
        Store &st = stores_.back();
        if (st.tracer)
            st.stack.top().setTracer(st.tracer);
        if (st.profiler)
            st.stack.top().setProfiler(st.profiler.get());
    }

    if (cfg_.insecure) {
        // The insecure baseline's MSHR-equivalent depth scales with
        // the core count (per-core maxOutstanding each): 64 at the
        // Table-1 default of 16 outstanding x 4 cores.
        sink_ = std::make_unique<InsecureSink>(
            stores_[0].stack.top(), cfg_.controller.blockPhysBytes,
            std::size_t{cfg_.maxOutstanding} * cfg_.cores);
    } else if (!sharded) {
        // Not a one-shard ShardedOram: that would derive a new oram
        // seed, window the cores' misses, fold the fingerprint and
        // register a sharded_oram stat group.
        ctrl_ = std::make_unique<core::OramController>(
            cfg_.controller, eq_, stores_[0].stack.top());
        ctrls_.push_back(ctrl_.get());
        sink_ = std::make_unique<OramSink<core::OramController>>(*ctrl_);
    } else {
        std::vector<mem::MemoryBackend *> tops;
        for (Store &st : stores_)
            tops.push_back(&st.stack.top());
        core::ShardedOramParams sop;
        sop.shards = cfg_.shards;
        sop.shardWindow = cfg_.shardWindow;
        sharded_ = std::make_unique<core::ShardedOram>(
            sop, cfg_.controller, eq_, tops);
        for (unsigned s = 0; s < cfg_.shards; ++s)
            ctrls_.push_back(&sharded_->shard(s));
        sink_ = std::make_unique<OramSink<core::ShardedOram>>(*sharded_);
    }
    for (std::size_t s = 0; s < ctrls_.size(); ++s) {
        if (stores_[s].tracer)
            ctrls_[s]->setTracer(stores_[s].tracer);
        if (stores_[s].profiler)
            ctrls_[s]->setProfiler(stores_[s].profiler.get());
    }

    // Disjoint per-core address regions (shared for PARSEC mode),
    // spaced by the largest working set.
    std::uint64_t spacing = 1;
    for (const auto &p : profiles)
        spacing = std::max(spacing, p.workingSetBlocks);
    spacing = roundUpPow2(spacing, std::uint64_t{1} << 12);

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        workload::CoreParams cp;
        cp.coreId = c;
        cp.cpuPeriodTicks = cfg_.cpuPeriodTicks;
        cp.maxOutstanding = cfg_.maxOutstanding;
        cp.totalRequests = cfg_.requestsPerCore;
        BlockAddr base =
            cfg_.sharedAddressSpace ? 0 : spacing * 2 * c;
        cores_.push_back(std::make_unique<workload::CoreModel>(
            cp, profiles[c], base, cfg_.seed + c * 0x9111, eq_,
            *sink_));
    }
}

System::~System()
{
    clearDebugTickSource(eq_.nowPtr());
}

bool
System::resilienceConfigured() const
{
    return std::any_of(stores_.begin(), stores_.end(),
                       [](const Store &st) {
                           return st.stack.injector() ||
                                  st.stack.resilient();
                       });
}

bool
System::allDone() const
{
    return std::all_of(cores_.begin(), cores_.end(),
                       [](const auto &c) { return c->done(); });
}

RunResult
System::run(Tick limit)
{
    for (auto &core : cores_)
        core->start();

    if (intervalStats_) {
        // The sampling chain is passive (reads registered stats) and
        // ends itself once the cores finish, so it neither perturbs
        // results nor trips the deadlock assert below.
        intervalStats_->sample(eq_.now());
        intervalStats_->start(eq_, [this] { return !allDone(); });
    }

    bool hit_limit = false;
    bool failed = false;
    std::string failure_msg;
    const auto drive = [&] {
        while (!allDone()) {
            if (eq_.now() > limit) {
                // Truncate rather than abort: the partial run is
                // still a valid (if incomplete) measurement, and a
                // sweep wants an answer for this point, not a dead
                // process.
                hit_limit = true;
                break;
            }
            bool progressed = eq_.step(limit);
            fp_assert(progressed || allDone(),
                      "deadlock: no events but cores unfinished");
        }
    };
    if (resilienceConfigured()) {
        // A run configured to be hostile is allowed to fail: the
        // resilience stack escalates an exhausted retry budget via
        // fp_panic, which the recoverable-failure scope converts to
        // a SimFailure captured in the result instead of an abort.
        ScopedRecoverableFailures recover;
        try {
            drive();
        } catch (const SimFailure &e) {
            failed = true;
            failure_msg = e.what();
        }
    } else {
        drive();
    }

    RunResult r;
    r.hitTickLimit = hit_limit;
    r.failed = failed;
    r.failureMessage = failure_msg;
    for (const auto &core : cores_) {
        r.executionTicks = std::max(r.executionTicks,
                                    core->finishTick());
        r.llcRequests += core->issued();
    }
    if (hit_limit || failed) {
        // Unfinished cores report finishTick() == 0; the truncation
        // (or failure) point is the honest execution time.
        r.executionTicks = std::max(r.executionTicks, eq_.now());
    }

    if (!ctrls_.empty()) {
        // Aggregation over the controllers, one per store. Histograms
        // and Averages merge (so means weight stores by how many
        // accesses each served), counters sum, the stash peak is the
        // worst store's. With one controller every merge lands in an
        // empty stat and every sum starts at zero, so its own values
        // come through exactly.
        fp::Histogram latency = ctrls_[0]->oramLatency();
        fp::Average read_len, dram_read_len, dram_service;
        std::vector<std::uint64_t> skips;
        for (std::size_t s = 0; s < ctrls_.size(); ++s) {
            core::OramController &c = *ctrls_[s];
            if (s > 0)
                latency.merge(c.oramLatency());
            read_len.merge(c.readPathLengthStat());
            dram_read_len.merge(c.dramBucketsReadStat());
            dram_service.merge(c.dramServiceStat());

            r.realAccesses += c.realAccesses();
            r.dummyAccesses += c.dummyAccessesRun();
            r.dummyReplacements += c.dummyReplacements();
            r.pendingSwaps += c.pendingSwaps();
            r.mergedLevelsSkipped += c.mergedLevelsSkipped();
            r.stashShortcuts += c.stashShortcuts();

            const auto &per_level = c.mergeSkipsPerLevel();
            if (skips.size() < per_level.size())
                skips.resize(per_level.size(), 0);
            for (std::size_t l = 0; l < per_level.size(); ++l)
                skips[l] += per_level[l];

            r.stashPeak = std::max(r.stashPeak, c.stash().peakSize());
            r.stashOverflows += c.stash().overflowEvents();
            r.controllerEnergyNj += controllerEnergyNj(c, eq_.now());
            if (auto *mac = c.mac()) {
                r.cacheHits += mac->hits();
                r.cacheMisses += mac->misses();
            } else {
                r.cacheHits += c.onChipBucketReads();
            }
        }
        r.avgLlcLatencyNs = latency.mean();
        r.avgReadPathLen = read_len.mean();
        r.avgDramBucketsRead = dram_read_len.mean();
        r.avgDramServiceNs = dram_service.mean();
        r.mergeSkipsPerLevel = std::move(skips);
        r.reqStreamFingerprint = sharded_
                                     ? sharded_->reqStreamFingerprint()
                                     : ctrl_->reqStreamFingerprint();
    } else {
        // Insecure runs: "latency" is the cores' observed miss time.
        double sum = 0.0;
        std::uint64_t n = 0;
        for (const auto &core : cores_) {
            sum += core->missLatency().mean() *
                   static_cast<double>(core->missLatency().count());
            n += core->missLatency().count();
        }
        r.avgLlcLatencyNs = n ? sum / static_cast<double>(n) : 0.0;
    }

    if (sharded_) {
        r.shards = sharded_->numShards();
        r.shardWindow = cfg_.shardWindow;
        r.shardWindowRejects = sharded_->windowRejects();
        r.shardBusyRejects = sharded_->busyRejects();
        for (unsigned s = 0; s < r.shards; ++s) {
            const core::OramController &c = sharded_->shard(s);
            r.shardDispatched.push_back(sharded_->dispatched(s));
            r.shardRealAccesses.push_back(c.realAccesses());
            r.shardDummyAccesses.push_back(c.dummyAccessesRun());
            r.shardAvgLlcLatencyNs.push_back(c.oramLatency().mean());
        }
    }

    // Memory-side counters, summed over the stores. The backend
    // latency is burst-weighted across several stores; one store
    // keeps its own mean (avg * n / n is not exact in floating point).
    double weighted_ns = 0.0;
    std::uint64_t bursts = 0;
    r.backendKind = stores_[0].stack.base().kind();
    for (const Store &st : stores_) {
        if (auto *dram = st.stack.dram()) {
            r.rowHits += dram->rowHits();
            r.rowMisses += dram->rowMisses();
            r.dramEnergyNj += dram->energy(eq_.now()).total();
        }
        if (auto *inj = st.stack.injector()) {
            r.faultsEnabled = true;
            r.faultLossInjected += inj->lossInjected();
            r.faultErrorInjected += inj->errorInjected();
            r.faultSpikeInjected += inj->spikeInjected();
            r.faultOutageDropped += inj->outageDropped();
        }
        if (auto *res = st.stack.resilient()) {
            r.retryEnabled = true;
            r.retryAttempts += res->retries();
            r.retryTimeouts += res->timeouts();
            r.retryDedupDropped += res->dedupDropped();
            r.retryExhausted += res->exhausted();
            r.retryMaxAttempts =
                std::max(r.retryMaxAttempts, res->maxAttempts());
        }
        const mem::BackendStats bs = st.stack.base().statsSnapshot();
        r.backendReadBursts += bs.readBursts;
        r.backendWriteBursts += bs.writeBursts;
        r.backendBytesRead += bs.bytesRead;
        r.backendBytesWritten += bs.bytesWritten;
        const std::uint64_t n = bs.readBursts + bs.writeBursts;
        weighted_ns += bs.avgLatencyNs * static_cast<double>(n);
        bursts += n;
        r.backendAvgLatencyNs = bs.avgLatencyNs;
    }
    if (stores_.size() > 1) {
        r.backendAvgLatencyNs =
            bursts ? weighted_ns / static_cast<double>(bursts) : 0.0;
    }

    if (stores_[0].profiler) {
        // One store reports its own profiler; several roll up into a
        // scratch aggregate, whose throwaway registry keeps its
        // StatGroup out of this System's registry (the per-shard
        // "s<N>.request_profiler" groups are the live ones).
        StatRegistry tmp;
        StatRegistry::Scope tmp_scope(tmp);
        std::unique_ptr<obs::RequestProfiler> agg;
        const obs::RequestProfiler *prof = stores_[0].profiler.get();
        if (stores_.size() > 1) {
            agg = std::make_unique<obs::RequestProfiler>(
                eq_.nowPtr(), cfg_.controller.bucketBytes());
            for (const Store &st : stores_)
                agg->merge(*st.profiler);
            prof = agg.get();
        }
        r.profiled = true;
        r.profiledRequests = prof->completed();
        r.profileStages = prof->stageSummaries();
        r.profileEffectiveness = prof->effectiveness();
        if (!cfg_.obs.profileOut.empty()) {
            std::ofstream out(cfg_.obs.profileOut);
            if (!out) {
                fp_fatal("cannot open --profile-out file '%s'",
                         cfg_.obs.profileOut.c_str());
            }
            out << prof->reportJson() << '\n';
        }
    }

    if (intervalStats_) {
        // Flush the final partial interval (skipped when the run ends
        // exactly on a sample tick, which would emit a duplicate) and
        // seal the file.
        intervalStats_->finish(eq_.now());
    }
    if (tracer_)
        tracer_->finish();
    return r;
}

} // namespace fp::sim
