#include "sim/system.hh"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "dram/dram_backend.hh"
#include "mem/net_backend.hh"
#include "util/bitops.hh"
#include "util/debug.hh"
#include "util/logging.hh"

namespace fp::sim
{

/** Adapter: LLC misses into the ORAM controller. */
class System::OramSink : public workload::MemorySink
{
  public:
    explicit OramSink(core::OramController &ctrl) : ctrl_(ctrl) {}

    bool canAccept() const override { return ctrl_.canAccept(); }
    bool capacityChangesOnlyInEvents() const override { return true; }

    bool
    access(const workload::MemRequest &req,
           ResponseFn on_response) override
    {
        auto op = req.isWrite ? oram::Op::write : oram::Op::read;
        std::uint64_t id = ctrl_.request(
            op, req.addr, {},
            [cb = std::move(on_response)](
                Tick t, const std::vector<std::uint8_t> &) {
                cb(t);
            });
        return id != 0;
    }

  private:
    core::OramController &ctrl_;
};

/** Adapter: LLC misses into the shard dispatcher. A false return
 *  (home-shard window full or its controller busy) is the same
 *  retry-later signal a busy single controller gives. */
class System::ShardedSink : public workload::MemorySink
{
  public:
    explicit ShardedSink(core::ShardedOram &sharded)
        : sharded_(sharded)
    {
    }

    bool canAccept() const override { return sharded_.canAccept(); }
    bool capacityChangesOnlyInEvents() const override { return true; }

    bool
    access(const workload::MemRequest &req,
           ResponseFn on_response) override
    {
        auto op = req.isWrite ? oram::Op::write : oram::Op::read;
        std::uint64_t id = sharded_.request(
            op, req.addr, {},
            [cb = std::move(on_response)](
                Tick t, const std::vector<std::uint8_t> &) {
                cb(t);
            });
        return id != 0;
    }

  private:
    core::ShardedOram &sharded_;
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
    if (cfg_.obs.profilingEnabled() && !cfg_.insecure &&
        cfg_.shards <= 1) {
        // The profiler tracks ORAM pipeline milestones, so insecure
        // runs (no controller) have nothing for it to measure.
        // Sharded runs carry one profiler per shard instead (rolled
        // up into the RunResult after the run).
        profiler_ = std::make_unique<obs::RequestProfiler>(
            eq_.nowPtr(), cfg_.controller.bucketBytes());
        if (tracer_)
            profiler_->setTracer(tracer_.get());
    }

    if (cfg_.shards > 1) {
        if (cfg_.insecure)
            fp_fatal("--shards requires the ORAM path: the insecure "
                     "baseline has no controller to shard");
        buildSharded();
    } else {
        buildSingle();
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

void
System::buildSingle()
{
    if (cfg_.backendKind == BackendKind::dram) {
        dram_ = std::make_unique<dram::DramSystem>(cfg_.dram, eq_);
        backend_ = std::make_unique<dram::DramBackend>(*dram_);
    } else {
        backend_ = std::make_unique<mem::NetBackend>(cfg_.net, eq_);
    }

    // Optional resilience stack: store <- injector <- retry layer.
    topBackend_ = backend_.get();
    if (cfg_.faults.enabled()) {
        injector_ = std::make_unique<mem::FaultInjector>(
            cfg_.faults, eq_, *topBackend_);
        topBackend_ = injector_.get();
        // Injecting faults without a retry policy would wedge the run
        // on the first lost request; pick a deadline comfortably
        // above the store's worst case unless the user chose one.
        if (!cfg_.retry.enabled()) {
            cfg_.retry.timeoutUs =
                cfg_.backendKind == BackendKind::net
                    ? std::max(10.0 * 2.0 * cfg_.net.oneWayLatencyUs,
                               1000.0)
                    : 100.0;
        }
    }
    if (cfg_.retry.enabled()) {
        resilient_ = std::make_unique<mem::ResilientBackend>(
            cfg_.retry, eq_, *topBackend_);
        topBackend_ = resilient_.get();
    }
    if (tracer_)
        topBackend_->setTracer(tracer_.get());
    if (profiler_)
        topBackend_->setProfiler(profiler_.get());

    if (cfg_.insecure) {
        // The insecure baseline's MSHR-equivalent depth scales with
        // the core count (per-core maxOutstanding each): 64 at the
        // Table-1 default of 16 outstanding x 4 cores.
        sink_ = std::make_unique<InsecureSink>(
            *topBackend_, cfg_.controller.blockPhysBytes,
            std::size_t{cfg_.maxOutstanding} * cfg_.cores);
    } else {
        ctrl_ = std::make_unique<core::OramController>(
            cfg_.controller, eq_, *topBackend_);
        if (tracer_)
            ctrl_->setTracer(tracer_.get());
        if (profiler_)
            ctrl_->setProfiler(profiler_.get());
        sink_ = std::make_unique<OramSink>(*ctrl_);
    }
}

void
System::buildSharded()
{
    // The auto retry deadline is shared by every shard (each shard's
    // store has the same worst case), so pick it once up front, as
    // the single path does.
    if (cfg_.faults.enabled() && !cfg_.retry.enabled()) {
        cfg_.retry.timeoutUs =
            cfg_.backendKind == BackendKind::net
                ? std::max(10.0 * 2.0 * cfg_.net.oneWayLatencyUs,
                           1000.0)
                : 100.0;
    }

    shardParts_.resize(cfg_.shards);
    std::vector<mem::MemoryBackend *> tops;
    tops.reserve(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        ShardParts &sp = shardParts_[s];
        const std::string prefix = "s" + std::to_string(s) + ".";
        // Every StatGroup this shard's stack constructs gets the
        // "s<N>." name prefix (the dispatcher prefixes its controller
        // stacks the same way), keeping interval-stats keys unique.
        StatNameScope scope(prefix);

        if (tracer_) {
            // Same trace file; tracks land at tid 32 * shard + base
            // with "s<N>."-prefixed names ("s1.controller", ...).
            sp.tracerView = tracer_->makeView(32 * s, prefix);
        }
        if (cfg_.obs.profilingEnabled()) {
            sp.profiler = std::make_unique<obs::RequestProfiler>(
                eq_.nowPtr(), cfg_.controller.bucketBytes());
            if (sp.tracerView)
                sp.profiler->setTracer(sp.tracerView.get());
        }

        // Each shard owns a complete store: its own DRAM channels or
        // its own network pipe. Decorators stack per shard so faults
        // and retries are independent across shards too.
        if (cfg_.backendKind == BackendKind::dram) {
            sp.dram =
                std::make_unique<dram::DramSystem>(cfg_.dram, eq_);
            sp.backend = std::make_unique<dram::DramBackend>(*sp.dram);
        } else {
            sp.backend =
                std::make_unique<mem::NetBackend>(cfg_.net, eq_);
        }
        sp.top = sp.backend.get();
        if (cfg_.faults.enabled()) {
            // Derived per-shard fault seed: shards must not replay
            // one another's fault decisions in lockstep.
            mem::FaultParams fparams = cfg_.faults;
            fparams.seed = core::ShardedOram::shardSeed(
                cfg_.faults.seed ^ 0xf417ULL, s);
            sp.injector = std::make_unique<mem::FaultInjector>(
                fparams, eq_, *sp.top);
            sp.top = sp.injector.get();
        }
        if (cfg_.retry.enabled()) {
            sp.resilient = std::make_unique<mem::ResilientBackend>(
                cfg_.retry, eq_, *sp.top);
            sp.top = sp.resilient.get();
        }
        if (sp.tracerView)
            sp.top->setTracer(sp.tracerView.get());
        if (sp.profiler)
            sp.top->setProfiler(sp.profiler.get());
        tops.push_back(sp.top);
    }

    core::ShardedOramParams sop;
    sop.shards = cfg_.shards;
    sop.shardWindow = cfg_.shardWindow;
    sharded_ = std::make_unique<core::ShardedOram>(
        sop, cfg_.controller, eq_, tops);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        if (shardParts_[s].tracerView)
            sharded_->shard(s).setTracer(
                shardParts_[s].tracerView.get());
        if (shardParts_[s].profiler)
            sharded_->shard(s).setProfiler(
                shardParts_[s].profiler.get());
    }
    sink_ = std::make_unique<ShardedSink>(*sharded_);
}

void
System::printStats(std::ostream &os)
{
    if (ctrl_) {
        ctrl_->stats().print(os);
        ctrl_->store().stats().print(os);
    }
    if (sharded_) {
        sharded_->stats().print(os);
        for (unsigned s = 0; s < sharded_->numShards(); ++s) {
            sharded_->shard(s).stats().print(os);
            sharded_->shard(s).store().stats().print(os);
            ShardParts &sp = shardParts_[s];
            if (sp.dram) {
                for (unsigned c = 0; c < sp.dram->numChannels(); ++c)
                    sp.dram->channel(c).stats().print(os);
            } else if (auto *net = dynamic_cast<mem::NetBackend *>(
                           sp.backend.get())) {
                net->stats().print(os);
            }
            if (sp.injector)
                sp.injector->stats().print(os);
            if (sp.resilient)
                sp.resilient->stats().print(os);
        }
    }
    if (dram_) {
        for (unsigned c = 0; c < dram_->numChannels(); ++c)
            dram_->channel(c).stats().print(os);
    } else if (auto *net =
                   dynamic_cast<mem::NetBackend *>(backend_.get())) {
        net->stats().print(os);
    }
    if (injector_)
        injector_->stats().print(os);
    if (resilient_)
        resilient_->stats().print(os);
}

bool
System::resilienceConfigured() const
{
    if (injector_ || resilient_)
        return true;
    for (const ShardParts &sp : shardParts_)
        if (sp.injector || sp.resilient)
            return true;
    return false;
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

    if (ctrl_) {
        r.avgLlcLatencyNs = ctrl_->oramLatency().mean();
        r.avgReadPathLen = ctrl_->avgReadPathLength();
        r.avgDramBucketsRead = ctrl_->avgDramBucketsRead();
        r.avgDramServiceNs = ctrl_->avgDramServiceNs();
        r.realAccesses = ctrl_->realAccesses();
        r.dummyAccesses = ctrl_->dummyAccessesRun();
        r.dummyReplacements = ctrl_->dummyReplacements();
        r.pendingSwaps = ctrl_->pendingSwaps();
        r.mergedLevelsSkipped = ctrl_->mergedLevelsSkipped();
        r.mergeSkipsPerLevel = ctrl_->mergeSkipsPerLevel();
        r.stashShortcuts = ctrl_->stashShortcuts();
        r.stashPeak = ctrl_->stash().peakSize();
        r.stashOverflows = ctrl_->stash().overflowEvents();
        r.controllerEnergyNj = controllerEnergyNj(*ctrl_, eq_.now());
        if (auto *mac = ctrl_->mac()) {
            r.cacheHits = mac->hits();
            r.cacheMisses = mac->misses();
        } else {
            r.cacheHits = ctrl_->onChipBucketReads();
        }
    } else if (sharded_) {
        // Cross-shard aggregation. Histograms and Averages merge (so
        // means weight shards by how many accesses each served),
        // counters sum, the stash peak is the worst shard's.
        r.shards = sharded_->numShards();
        r.shardWindow = cfg_.shardWindow;
        r.shardWindowRejects = sharded_->windowRejects();
        r.shardBusyRejects = sharded_->busyRejects();

        fp::Histogram latency = sharded_->shard(0).oramLatency();
        fp::Average read_len, dram_read_len, dram_service;
        std::vector<std::uint64_t> skips;
        for (unsigned s = 0; s < r.shards; ++s) {
            const core::OramController &sc = sharded_->shard(s);
            if (s > 0)
                latency.merge(sc.oramLatency());
            read_len.merge(sc.readPathLengthStat());
            dram_read_len.merge(sc.dramBucketsReadStat());
            dram_service.merge(sc.dramServiceStat());

            r.realAccesses += sc.realAccesses();
            r.dummyAccesses += sc.dummyAccessesRun();
            r.dummyReplacements += sc.dummyReplacements();
            r.pendingSwaps += sc.pendingSwaps();
            r.mergedLevelsSkipped += sc.mergedLevelsSkipped();
            r.stashShortcuts += sc.stashShortcuts();

            const auto &per_level = sc.mergeSkipsPerLevel();
            if (skips.size() < per_level.size())
                skips.resize(per_level.size(), 0);
            for (std::size_t l = 0; l < per_level.size(); ++l)
                skips[l] += per_level[l];

            core::OramController &scm = sharded_->shard(s);
            r.stashPeak =
                std::max(r.stashPeak, scm.stash().peakSize());
            r.stashOverflows += scm.stash().overflowEvents();
            r.controllerEnergyNj +=
                controllerEnergyNj(sc, eq_.now());
            if (auto *mac = scm.mac()) {
                r.cacheHits += mac->hits();
                r.cacheMisses += mac->misses();
            } else {
                r.cacheHits += sc.onChipBucketReads();
            }

            r.shardDispatched.push_back(sharded_->dispatched(s));
            r.shardRealAccesses.push_back(sc.realAccesses());
            r.shardDummyAccesses.push_back(sc.dummyAccessesRun());
            r.shardAvgLlcLatencyNs.push_back(
                sc.oramLatency().mean());
        }
        r.avgLlcLatencyNs = latency.mean();
        r.avgReadPathLen = read_len.mean();
        r.avgDramBucketsRead = dram_read_len.mean();
        r.avgDramServiceNs = dram_service.mean();
        r.mergeSkipsPerLevel = std::move(skips);
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

    if (dram_) {
        r.rowHits = dram_->rowHits();
        r.rowMisses = dram_->rowMisses();
        r.dramEnergyNj = dram_->energy(eq_.now()).total();
    }
    for (const ShardParts &sp : shardParts_) {
        if (sp.dram) {
            r.rowHits += sp.dram->rowHits();
            r.rowMisses += sp.dram->rowMisses();
            r.dramEnergyNj += sp.dram->energy(eq_.now()).total();
        }
    }
    r.faultsEnabled = injector_ != nullptr;
    r.retryEnabled = resilient_ != nullptr;
    if (injector_) {
        r.faultLossInjected = injector_->lossInjected();
        r.faultErrorInjected = injector_->errorInjected();
        r.faultSpikeInjected = injector_->spikeInjected();
        r.faultOutageDropped = injector_->outageDropped();
    }
    if (resilient_) {
        r.retryAttempts = resilient_->retries();
        r.retryTimeouts = resilient_->timeouts();
        r.retryDedupDropped = resilient_->dedupDropped();
        r.retryExhausted = resilient_->exhausted();
        r.retryMaxAttempts = resilient_->maxAttempts();
    }
    for (const ShardParts &sp : shardParts_) {
        if (sp.injector) {
            r.faultsEnabled = true;
            r.faultLossInjected += sp.injector->lossInjected();
            r.faultErrorInjected += sp.injector->errorInjected();
            r.faultSpikeInjected += sp.injector->spikeInjected();
            r.faultOutageDropped += sp.injector->outageDropped();
        }
        if (sp.resilient) {
            r.retryEnabled = true;
            r.retryAttempts += sp.resilient->retries();
            r.retryTimeouts += sp.resilient->timeouts();
            r.retryDedupDropped += sp.resilient->dedupDropped();
            r.retryExhausted += sp.resilient->exhausted();
            r.retryMaxAttempts = std::max(
                r.retryMaxAttempts, sp.resilient->maxAttempts());
        }
    }
    if (ctrl_)
        r.reqStreamFingerprint = ctrl_->reqStreamFingerprint();
    else if (sharded_)
        r.reqStreamFingerprint = sharded_->reqStreamFingerprint();

    if (profiler_) {
        r.profiled = true;
        r.profiledRequests = profiler_->completed();
        r.profileStages = profiler_->stageSummaries();
        r.profileEffectiveness = profiler_->effectiveness();
        if (!cfg_.obs.profileOut.empty()) {
            std::ofstream out(cfg_.obs.profileOut);
            if (!out) {
                fp_fatal("cannot open --profile-out file '%s'",
                         cfg_.obs.profileOut.c_str());
            }
            out << profiler_->reportJson() << '\n';
        }
    } else if (!shardParts_.empty() && shardParts_[0].profiler) {
        // Roll the per-shard profilers up into one report. The
        // aggregate profiler is scratch: a throwaway registry keeps
        // its StatGroup out of this System's registry (the per-shard
        // "s<N>.request_profiler" groups are the live ones).
        StatRegistry tmp;
        StatRegistry::Scope tmp_scope(tmp);
        obs::RequestProfiler agg(eq_.nowPtr(),
                                 cfg_.controller.bucketBytes());
        for (const ShardParts &sp : shardParts_)
            agg.merge(*sp.profiler);
        r.profiled = true;
        r.profiledRequests = agg.completed();
        r.profileStages = agg.stageSummaries();
        r.profileEffectiveness = agg.effectiveness();
        if (!cfg_.obs.profileOut.empty()) {
            std::ofstream out(cfg_.obs.profileOut);
            if (!out) {
                fp_fatal("cannot open --profile-out file '%s'",
                         cfg_.obs.profileOut.c_str());
            }
            out << agg.reportJson() << '\n';
        }
    }

    if (backend_) {
        r.backendKind = backend_->kind();
        const mem::BackendStats bs = backend_->statsSnapshot();
        r.backendReadBursts = bs.readBursts;
        r.backendWriteBursts = bs.writeBursts;
        r.backendBytesRead = bs.bytesRead;
        r.backendBytesWritten = bs.bytesWritten;
        r.backendAvgLatencyNs = bs.avgLatencyNs;
    } else if (!shardParts_.empty()) {
        // Burst-weighted aggregate over the per-shard base stores.
        double weighted_ns = 0.0;
        std::uint64_t bursts = 0;
        r.backendKind = shardParts_[0].backend->kind();
        for (const ShardParts &sp : shardParts_) {
            const mem::BackendStats bs = sp.backend->statsSnapshot();
            r.backendReadBursts += bs.readBursts;
            r.backendWriteBursts += bs.writeBursts;
            r.backendBytesRead += bs.bytesRead;
            r.backendBytesWritten += bs.bytesWritten;
            const std::uint64_t n = bs.readBursts + bs.writeBursts;
            weighted_ns += bs.avgLatencyNs * static_cast<double>(n);
            bursts += n;
        }
        if (bursts)
            r.backendAvgLatencyNs =
                weighted_ns / static_cast<double>(bursts);
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
