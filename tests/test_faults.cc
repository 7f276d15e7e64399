/**
 * @file
 * Tests of the resilience stack at the memory-backend seam:
 * mem::FaultInjector (deterministic seeded fault model) and
 * mem::ResilientBackend (deadline timers, exponential backoff
 * retries, dedup of late completions, escalation), plus the
 * end-to-end behaviour of the stack under SyncOram and the
 * full-system harness on both backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "mem/fault_injector.hh"
#include "mem/resilient_backend.hh"
#include "sim/runner.hh"
#include "sim/sim_config.hh"
#include "sim/memory_stack.hh"
#include "sim/sync_oram.hh"
#include "sim/system.hh"
#include "util/event_queue.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/mixes.hh"

namespace fp
{
namespace
{

/**
 * A scriptable inner backend: records every request it is handed and
 * lets the test deliver completions/errors itself (via the event
 * queue, honouring the no-re-entrant-completion contract). Default
 * behaviour completes every request after a fixed latency.
 */
class ScriptedBackend final : public mem::MemoryBackend
{
  public:
    enum class Mode
    {
        complete,  //!< complete after `latency`
        error,     //!< fail (onError) after `latency`
        blackHole, //!< swallow: neither callback ever fires
        manual,    //!< record only; the test delivers by hand
    };

    ScriptedBackend(EventQueue &eq, Tick latency = 1000,
                    Mode mode = Mode::complete)
        : eq_(eq), latency_(latency), mode_(mode)
    {
    }

    void
    access(mem::BackendRequest req) override
    {
        issued.push_back(
            {req.addr, req.isWrite, req.bytes, eq_.now()});
        switch (mode_) {
        case Mode::complete:
            ++inFlight_;
            eq_.scheduleIn(latency_,
                           [this, cb = std::move(req.onComplete)] {
                               --inFlight_;
                               if (cb)
                                   cb(eq_.now());
                           });
            break;
        case Mode::error:
            ++inFlight_;
            eq_.scheduleIn(latency_,
                           [this, cb = std::move(req.onError)] {
                               --inFlight_;
                               if (cb)
                                   cb(eq_.now());
                           });
            break;
        case Mode::blackHole:
            break;
        case Mode::manual:
            pending.push_back(std::move(req));
            break;
        }
    }

    bool idle() const override
    {
        return inFlight_ == 0 && pending.empty();
    }
    std::size_t queueDepth() const override
    {
        return inFlight_ + pending.size();
    }
    mem::BackendStats statsSnapshot() const override { return {}; }
    void setTracer(obs::Tracer *) override {}
    void resetStats() override {}
    std::uint64_t burstBytes() const override { return 64; }
    std::uint64_t rowBytes() const override { return 8192; }
    const char *kind() const override { return "scripted"; }

    struct Issued
    {
        Addr addr;
        bool isWrite;
        std::uint64_t bytes;
        Tick at;
    };
    std::vector<Issued> issued;
    /** Mode::manual: requests awaiting hand delivery. */
    std::vector<mem::BackendRequest> pending;

  private:
    EventQueue &eq_;
    Tick latency_;
    Mode mode_;
    std::size_t inFlight_ = 0;
};

mem::BackendRequest
makeReq(Addr addr, int *completions = nullptr, int *errors = nullptr)
{
    mem::BackendRequest r;
    r.addr = addr;
    r.bytes = 64;
    if (completions)
        r.onComplete = [completions](Tick) { ++*completions; };
    if (errors)
        r.onError = [errors](Tick) { ++*errors; };
    return r;
}

// --- FaultInjector --------------------------------------------------------

/** Drive N requests through an injector; returns which were dropped
 *  (loss), errored, or forwarded, as a decision string. */
std::string
decisionString(const mem::FaultParams &fp, int n)
{
    EventQueue eq;
    ScriptedBackend inner(eq, 10);
    mem::FaultInjector inj(fp, eq, inner);
    std::string decisions;
    std::uint64_t loss_before = 0, err_before = 0, spike_before = 0;
    for (int i = 0; i < n; ++i) {
        inj.access(makeReq(static_cast<Addr>(i) * 64));
        if (inj.lossInjected() > loss_before)
            decisions += 'L';
        else if (inj.errorInjected() > err_before)
            decisions += 'E';
        else if (inj.spikeInjected() > spike_before)
            decisions += 'S';
        else
            decisions += '.';
        loss_before = inj.lossInjected();
        err_before = inj.errorInjected();
        spike_before = inj.spikeInjected();
        eq.run();
    }
    return decisions;
}

TEST(FaultInjector, DecisionStreamIsDeterministic)
{
    mem::FaultParams fp;
    fp.lossRate = 0.1;
    fp.errorRate = 0.05;
    fp.spikeRate = 0.05;
    fp.seed = 42;

    const std::string a = decisionString(fp, 400);
    const std::string b = decisionString(fp, 400);
    EXPECT_EQ(a, b);
    // All three fault classes actually occurred at these rates.
    EXPECT_NE(a.find('L'), std::string::npos);
    EXPECT_NE(a.find('E'), std::string::npos);
    EXPECT_NE(a.find('S'), std::string::npos);

    // A different seed gives a different stream.
    mem::FaultParams fp2 = fp;
    fp2.seed = 43;
    EXPECT_NE(decisionString(fp2, 400), a);
}

TEST(FaultInjector, DecisionStreamIndependentOfEnabledClasses)
{
    // Four draws are consumed per request whether or not each class
    // is on, so turning error injection OFF must not re-shuffle which
    // requests get lost.
    mem::FaultParams both;
    both.lossRate = 0.1;
    both.errorRate = 0.2;
    both.seed = 7;
    mem::FaultParams loss_only = both;
    loss_only.errorRate = 0.0;

    std::string with_errors = decisionString(both, 300);
    std::string without = decisionString(loss_only, 300);
    ASSERT_EQ(with_errors.size(), without.size());
    for (std::size_t i = 0; i < with_errors.size(); ++i) {
        if (with_errors[i] == 'L') {
            EXPECT_EQ(without[i], 'L') << "request " << i;
        } else if (with_errors[i] == '.') {
            EXPECT_EQ(without[i], '.') << "request " << i;
        } else if (with_errors[i] == 'E') {
            // 'E' positions become forwards when errors are off.
            EXPECT_EQ(without[i], '.') << "request " << i;
        }
    }
}

TEST(FaultInjector, LossRateMatchesExpectation)
{
    mem::FaultParams fp;
    fp.lossRate = 0.25;
    fp.seed = 9;
    EventQueue eq;
    ScriptedBackend inner(eq, 10);
    mem::FaultInjector inj(fp, eq, inner);
    const int n = 4000;
    int completions = 0;
    for (int i = 0; i < n; ++i)
        inj.access(makeReq(static_cast<Addr>(i) * 64, &completions));
    eq.run();
    const double observed =
        static_cast<double>(inj.lossInjected()) / n;
    EXPECT_NEAR(observed, 0.25, 0.03);
    EXPECT_EQ(completions,
              n - static_cast<int>(inj.lossInjected()));
    EXPECT_EQ(inj.forwarded() + inj.lossInjected(),
              static_cast<std::uint64_t>(n));
}

TEST(FaultInjector, SpikeDelaysCompletionButStillDelivers)
{
    mem::FaultParams fp;
    fp.spikeRate = 1.0; // every request spikes
    fp.spikeUs = 100.0;
    fp.spikeJitterUs = 0.0;
    EventQueue eq;
    ScriptedBackend inner(eq, 1000);
    mem::FaultInjector inj(fp, eq, inner);
    Tick done_at = 0;
    auto req = makeReq(0);
    req.onComplete = [&](Tick t) { done_at = t; };
    inj.access(std::move(req));
    eq.run();
    // Inner latency 1000 ticks + 100 us spike, no jitter.
    EXPECT_EQ(done_at, 1000u + 100'000'000u);
    EXPECT_EQ(inj.spikeInjected(), 1u);
    EXPECT_TRUE(inj.idle());
}

TEST(FaultInjector, ErrorAnswersOnErrorChannel)
{
    mem::FaultParams fp;
    fp.errorRate = 1.0;
    fp.errorLatencyUs = 5.0;
    EventQueue eq;
    ScriptedBackend inner(eq, 10);
    mem::FaultInjector inj(fp, eq, inner);
    int completions = 0, errors = 0;
    Tick err_at = 0;
    auto req = makeReq(0, &completions);
    req.onError = [&](Tick t) {
        ++errors;
        err_at = t;
    };
    inj.access(std::move(req));
    EXPECT_FALSE(inj.idle()); // error answer still owed
    eq.run();
    EXPECT_EQ(completions, 0);
    EXPECT_EQ(errors, 1);
    EXPECT_EQ(err_at, 5'000'000u);
    // The store never saw the request.
    EXPECT_TRUE(inner.issued.empty());
    EXPECT_TRUE(inj.idle());
}

TEST(FaultInjector, OutageWindowTiming)
{
    mem::FaultParams fp;
    fp.outageStartUs = 10.0; // [10us, 20us)
    fp.outageEndUs = 20.0;
    EventQueue eq;
    ScriptedBackend inner(eq, 1);
    mem::FaultInjector inj(fp, eq, inner);
    ASSERT_TRUE(fp.hasOutage());
    ASSERT_TRUE(fp.enabled());

    const Tick us = 1'000'000;
    int completions = 0;
    auto issue_at = [&](Tick t) {
        eq.schedule(t, [&inj, &completions, t] {
            mem::BackendRequest r;
            r.addr = t;
            r.bytes = 64;
            r.onComplete = [&completions](Tick) { ++completions; };
            inj.access(std::move(r));
        });
    };
    issue_at(9 * us);      // before: forwarded
    issue_at(10 * us);     // boundary t0: dropped (closed start)
    issue_at(15 * us);     // inside: dropped
    issue_at(20 * us - 1); // last outage tick: dropped
    issue_at(20 * us);     // boundary t1: forwarded (open end)
    issue_at(25 * us);     // after: forwarded
    eq.run();

    EXPECT_EQ(inj.outageDropped(), 3u);
    EXPECT_EQ(inj.forwarded(), 3u);
    EXPECT_EQ(completions, 3);
    EXPECT_FALSE(inj.inOutage(9 * us));
    EXPECT_TRUE(inj.inOutage(10 * us));
    EXPECT_TRUE(inj.inOutage(20 * us - 1));
    EXPECT_FALSE(inj.inOutage(20 * us));
}

// --- ResilientBackend -----------------------------------------------------

TEST(ResilientBackend, PassThroughWhenInnerHealthy)
{
    EventQueue eq;
    ScriptedBackend inner(eq, 1000);
    mem::RetryParams rp;
    rp.timeoutUs = 100.0;
    mem::ResilientBackend res(rp, eq, inner);
    int completions = 0;
    for (int i = 0; i < 10; ++i)
        res.access(makeReq(static_cast<Addr>(i) * 64, &completions));
    eq.run();
    EXPECT_EQ(completions, 10);
    EXPECT_EQ(res.requests(), 10u);
    EXPECT_EQ(res.retries(), 0u);
    EXPECT_EQ(res.timeouts(), 0u);
    EXPECT_EQ(res.maxAttempts(), 1u);
    EXPECT_TRUE(res.idle());
    EXPECT_TRUE(eq.empty()); // no timer debris left behind
}

TEST(ResilientBackend, RecoversLostRequestByTimeoutRetry)
{
    EventQueue eq;
    ScriptedBackend inner(eq, 1000, ScriptedBackend::Mode::manual);
    mem::RetryParams rp;
    rp.timeoutUs = 50.0;
    rp.backoffBaseUs = 10.0;
    rp.backoffJitter = 0.0;
    mem::ResilientBackend res(rp, eq, inner);
    int completions = 0;
    res.access(makeReq(0x40, &completions));

    // First attempt vanishes (never delivered). The deadline fires at
    // 50us, backoff 10us, re-issue at 60us.
    eq.run(49'999'999);
    ASSERT_EQ(inner.issued.size(), 1u);
    eq.run(60'000'000);
    ASSERT_EQ(inner.issued.size(), 2u);
    EXPECT_EQ(inner.issued[1].at, 60'000'000u);
    EXPECT_EQ(inner.issued[1].addr, 0x40u);
    EXPECT_EQ(inner.issued[1].bytes, 64u); // byte-identical re-issue

    // Deliver the second attempt.
    auto cb = std::move(inner.pending[1].onComplete);
    inner.pending.clear();
    eq.scheduleIn(1000, [&cb, &eq] { cb(eq.now()); });
    eq.run();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(res.timeouts(), 1u);
    EXPECT_EQ(res.retries(), 1u);
    EXPECT_EQ(res.maxAttempts(), 2u);
    EXPECT_TRUE(res.idle());
}

TEST(ResilientBackend, BackoffScheduleIsExponentialAndCapped)
{
    EventQueue eq;
    ScriptedBackend inner(eq, 1000, ScriptedBackend::Mode::error);
    mem::RetryParams rp;
    rp.timeoutUs = 1000.0; // errors come back at 1000 ticks << this
    rp.maxRetries = 6;
    rp.backoffBaseUs = 10.0;
    rp.backoffCapUs = 50.0;
    rp.backoffJitter = 0.0; // exact schedule
    mem::ResilientBackend res(rp, eq, inner);
    int errors = 0;
    res.access(makeReq(0, nullptr, &errors));
    eq.run();

    // 7 attempts total; every attempt errors 1000 ticks after issue,
    // then waits min(50, 10*2^(k-1)) us: 10, 20, 40, 50, 50, 50.
    ASSERT_EQ(inner.issued.size(), 7u);
    const double us = 1e6;
    std::vector<double> gaps;
    for (std::size_t i = 1; i < inner.issued.size(); ++i) {
        gaps.push_back(
            static_cast<double>(inner.issued[i].at -
                                inner.issued[i - 1].at) /
                us -
            1000.0 / us); // subtract the error turnaround
    }
    const std::vector<double> expect = {10, 20, 40, 50, 50, 50};
    ASSERT_EQ(gaps.size(), expect.size());
    for (std::size_t i = 0; i < gaps.size(); ++i)
        EXPECT_DOUBLE_EQ(gaps[i], expect[i]) << "retry " << i + 1;

    EXPECT_EQ(errors, 1); // escalated exactly once, to the caller
    EXPECT_EQ(res.exhausted(), 1u);
    EXPECT_EQ(res.errors(), 7u);
    EXPECT_EQ(res.maxAttempts(), 7u);
    EXPECT_TRUE(res.idle());
}

TEST(ResilientBackend, BackoffJitterStaysInBand)
{
    EventQueue eq;
    ScriptedBackend inner(eq, 100, ScriptedBackend::Mode::error);
    mem::RetryParams rp;
    rp.timeoutUs = 1000.0;
    rp.maxRetries = 20;
    rp.backoffBaseUs = 10.0;
    rp.backoffCapUs = 10.0; // flat base, isolates the jitter term
    rp.backoffJitter = 0.5;
    mem::ResilientBackend res(rp, eq, inner);
    int errors = 0;
    res.access(makeReq(0, nullptr, &errors));
    eq.run();
    ASSERT_EQ(inner.issued.size(), 21u);
    EXPECT_EQ(errors, 1);

    // Every backoff is flat-10us scaled by (1 + 0.5*u), u in [0,1):
    // gaps (minus the 100-tick error turnaround) live in [10, 15) us
    // and actually vary (the jitter draw is live).
    std::vector<double> gaps;
    for (std::size_t i = 1; i < inner.issued.size(); ++i)
        gaps.push_back(static_cast<double>(inner.issued[i].at -
                                           inner.issued[i - 1].at -
                                           100) /
                       1e6);
    for (double g : gaps) {
        EXPECT_GE(g, 10.0);
        EXPECT_LT(g, 15.0);
    }
    EXPECT_GT(*std::max_element(gaps.begin(), gaps.end()),
              *std::min_element(gaps.begin(), gaps.end()));
}

TEST(ResilientBackend, DedupsLateCompletionRacingRetry)
{
    EventQueue eq;
    ScriptedBackend inner(eq, 0, ScriptedBackend::Mode::manual);
    mem::RetryParams rp;
    rp.timeoutUs = 50.0;
    rp.backoffBaseUs = 10.0;
    rp.backoffJitter = 0.0;
    mem::ResilientBackend res(rp, eq, inner);
    int completions = 0;
    res.access(makeReq(0x80, &completions));
    ASSERT_EQ(inner.pending.size(), 1u);
    auto first = std::move(inner.pending[0].onComplete);
    inner.pending.clear();

    // Let the deadline fire (50us) and the retry issue (60us); the
    // first attempt was slow, not lost: it completes at 70us, BEFORE
    // the second attempt's completion at 80us.
    eq.schedule(70'000'000, [&first, &eq] { first(eq.now()); });
    eq.run(65'000'000);
    ASSERT_EQ(inner.pending.size(), 1u); // the retry, in flight
    auto second = std::move(inner.pending[0].onComplete);
    inner.pending.clear();
    eq.schedule(80'000'000, [&second, &eq] { second(eq.now()); });
    eq.run();

    // Exactly one completion surfaced: the late first attempt won,
    // the retry's completion was deduplicated.
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(res.lateWins(), 1u);
    EXPECT_EQ(res.dedupDropped(), 1u);
    EXPECT_EQ(res.timeouts(), 1u);
    EXPECT_TRUE(res.idle());
}

TEST(ResilientBackend, ExhaustionWithoutErrorSinkIsRecoverableFailure)
{
    EventQueue eq;
    ScriptedBackend inner(eq, 0, ScriptedBackend::Mode::blackHole);
    mem::RetryParams rp;
    rp.timeoutUs = 10.0;
    rp.maxRetries = 0; // fail fast
    mem::ResilientBackend res(rp, eq, inner);
    int completions = 0;
    res.access(makeReq(0, &completions));
    ScopedRecoverableFailures recover;
    EXPECT_THROW(eq.run(), SimFailure);
    EXPECT_EQ(completions, 0);
    EXPECT_EQ(res.exhausted(), 1u);
}

// --- stacked: injector under resilient layer ------------------------------

TEST(ResilienceStack, LossyStoreDeliversEveryRequestExactlyOnce)
{
    EventQueue eq;
    ScriptedBackend store(eq, 1000);
    mem::FaultParams fp;
    fp.lossRate = 0.2;
    fp.errorRate = 0.05;
    fp.seed = 1234;
    mem::FaultInjector inj(fp, eq, store);
    mem::RetryParams rp;
    rp.timeoutUs = 10.0;
    rp.maxRetries = 50; // loss^51: escalation impossible in practice
    rp.backoffBaseUs = 1.0;
    mem::ResilientBackend res(rp, eq, inj);

    const int n = 500;
    int completions = 0;
    for (int i = 0; i < n; ++i)
        res.access(makeReq(static_cast<Addr>(i) * 64, &completions));
    eq.run();

    EXPECT_EQ(completions, n); // exactly once each, zero lost
    EXPECT_EQ(res.exhausted(), 0u);
    EXPECT_GT(res.retries(), 0u);
    EXPECT_GT(res.timeouts(), 0u);
    EXPECT_EQ(res.retries(),
              inj.lossInjected() + inj.errorInjected());
    EXPECT_TRUE(res.idle());
    EXPECT_TRUE(inj.idle());
}

// --- SyncOram: obliviousness under retry ----------------------------------

core::ControllerParams
smallController()
{
    auto params = core::ControllerParams::forkPath();
    params.oram.leafLevel = 8;
    params.oram.payloadBytes = 16;
    params.oram.seed = 77;
    params.labelQueueSize = 8;
    // Minimal on-chip cache band: at this tree size the default 1 MiB
    // budget absorbs nearly every bucket, starving the backend (and
    // the injector under test) of traffic.
    params.cacheBudgetBytes = 4 << 10;
    return params;
}

mem::NetBackendParams
fastNet()
{
    mem::NetBackendParams net;
    net.oneWayLatencyUs = 2.0;
    net.linkGbps = 40.0;
    net.window = 8;
    return net;
}

TEST(ResilienceStack, SyncOramStreamIdenticalUnderFaults)
{
    // Closed-loop traffic: the controller's issued request stream is
    // a pure function of the request sequence and its seeds, so the
    // fingerprint above the resilience stack must be bit-identical
    // between a fault-free run and a heavily faulted one.
    auto drive = [](sim::SyncOram &oram) {
        std::vector<std::uint8_t> v(16, 0x5a);
        for (BlockAddr a = 0; a < 24; ++a)
            oram.write(a, v);
        for (BlockAddr a = 0; a < 24; ++a)
            EXPECT_EQ(oram.read(a), v);
        return oram.controller().reqStreamFingerprint();
    };

    sim::SyncOram clean(smallController(), fastNet());
    const std::uint64_t clean_fp = drive(clean);
    EXPECT_NE(clean_fp, 0u);

    mem::FaultParams fp;
    fp.lossRate = 0.05;
    fp.errorRate = 0.02;
    fp.spikeRate = 0.02;
    fp.spikeUs = 30.0;
    fp.seed = 99;
    mem::RetryParams rp;
    rp.timeoutUs = 200.0;
    rp.maxRetries = 10;
    sim::SyncOram faulty(smallController(), fastNet(), fp, rp);
    ASSERT_NE(faulty.faultInjector(), nullptr);
    ASSERT_NE(faulty.resilientBackend(), nullptr);
    const std::uint64_t faulty_fp = drive(faulty);

    // Faults really happened, every request was recovered, and the
    // stream the controller emitted is unchanged.
    EXPECT_GT(faulty.faultInjector()->lossInjected(), 0u);
    EXPECT_GT(faulty.resilientBackend()->retries(), 0u);
    EXPECT_EQ(faulty.resilientBackend()->exhausted(), 0u);
    EXPECT_EQ(faulty_fp, clean_fp);
    // The faulted run took longer in simulated time (timeouts,
    // backoff), proving the comparison is not vacuous.
    EXPECT_GT(faulty.now(), clean.now());
}

TEST(ResilienceStack, SyncOramDataIntactUnderFaults)
{
    mem::FaultParams fp;
    fp.lossRate = 0.1;
    fp.seed = 5;
    mem::RetryParams rp;
    rp.timeoutUs = 150.0;
    rp.maxRetries = 10;
    sim::SyncOram oram(smallController(), fastNet(), fp, rp);

    Rng rng(20260807);
    std::map<BlockAddr, std::vector<std::uint8_t>> shadow;
    for (int i = 0; i < 120; ++i) {
        BlockAddr addr = rng.uniformInt(48);
        if (shadow.empty() || rng.chance(0.5)) {
            std::vector<std::uint8_t> v(16);
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng.uniformInt(256));
            oram.write(addr, v);
            shadow[addr] = std::move(v);
        } else if (shadow.count(addr)) {
            EXPECT_EQ(oram.read(addr), shadow[addr]);
        }
    }
    for (const auto &[addr, v] : shadow)
        EXPECT_EQ(oram.read(addr), v);
    EXPECT_GT(oram.faultInjector()->lossInjected(), 0u);
    EXPECT_EQ(oram.resilientBackend()->exhausted(), 0u);
}

// --- full-system ----------------------------------------------------------

sim::SimConfig
quickConfig()
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    cfg.requestsPerCore = 150;
    cfg.controller.oram.leafLevel = 14;
    return sim::withMergeOnly(cfg, 64);
}

TEST(ResilienceSystem, ZeroLostUserRequestsOnBothBackends)
{
    for (sim::BackendKind kind :
         {sim::BackendKind::dram, sim::BackendKind::net}) {
        sim::SimConfig cfg = quickConfig();
        cfg.backendKind = kind;
        cfg.faults.lossRate = 0.01;
        cfg.retry.maxRetries = 5;

        sim::RunResult r = sim::runMix(cfg, "Mix3");
        SCOPED_TRACE(kind == sim::BackendKind::dram ? "dram" : "net");
        EXPECT_FALSE(r.failed) << r.failureMessage;
        EXPECT_FALSE(r.hitTickLimit);
        // Every core retired its full budget: no user request lost.
        EXPECT_EQ(r.llcRequests, 4u * 150u);
        EXPECT_TRUE(r.faultsEnabled);
        EXPECT_TRUE(r.retryEnabled);
        EXPECT_GT(r.faultLossInjected, 0u);
        EXPECT_EQ(r.retryAttempts, r.faultLossInjected);
        EXPECT_EQ(r.retryTimeouts, r.faultLossInjected);
        EXPECT_EQ(r.retryExhausted, 0u);
        EXPECT_GE(r.retryMaxAttempts, 2u);
    }
}

TEST(ResilienceSystem, NetStreamIdenticalToFaultFreeRun)
{
    // On the window-bounded net store the controller's issued stream
    // is insensitive to the completion-time shifts retries introduce
    // (the label queue stays saturated), so the fingerprint must
    // match the fault-free run exactly. (The DRAM backend's stream is
    // timing-sensitive at 4 cores; docs/ROBUSTNESS.md discusses why
    // that is a scheduling property, not an information leak.)
    sim::SimConfig clean = quickConfig();
    clean.backendKind = sim::BackendKind::net;
    sim::RunResult r0 = sim::runMix(clean, "Mix3");
    ASSERT_FALSE(r0.faultsEnabled);

    sim::SimConfig faulty = clean;
    faulty.faults.lossRate = 0.01;
    faulty.retry.maxRetries = 5;
    sim::RunResult r1 = sim::runMix(faulty, "Mix3");
    EXPECT_FALSE(r1.failed) << r1.failureMessage;
    EXPECT_GT(r1.faultLossInjected, 0u);
    EXPECT_EQ(r1.reqStreamFingerprint, r0.reqStreamFingerprint);
    EXPECT_NE(r1.reqStreamFingerprint, 0u);
}

TEST(ResilienceSystem, RunsAreDeterministic)
{
    sim::SimConfig cfg = quickConfig();
    cfg.backendKind = sim::BackendKind::net;
    cfg.faults.lossRate = 0.02;
    cfg.faults.spikeRate = 0.01;
    cfg.retry.maxRetries = 8;
    sim::RunResult a = sim::runMix(cfg, "Mix3");
    sim::RunResult b = sim::runMix(cfg, "Mix3");
    EXPECT_EQ(sim::toJson(a), sim::toJson(b));
    EXPECT_EQ(a.faultLossInjected, b.faultLossInjected);
    EXPECT_EQ(a.executionTicks, b.executionTicks);
}

TEST(ResilienceSystem, ExhaustedRetriesDegradeToFailedResult)
{
    // An outage longer than the whole retry schedule with a zero
    // retry budget: the first lost request escalates, and the run
    // must end in a captured recoverable failure, not a crash.
    sim::SimConfig cfg = quickConfig();
    cfg.faults.outageStartUs = 0.0;
    cfg.faults.outageEndUs = 1e9; // forever, effectively
    cfg.retry.maxRetries = 0;
    cfg.retry.timeoutUs = 20.0;

    sim::RunResult r = sim::runMix(cfg, "Mix3");
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failureMessage.find("attempts"), std::string::npos)
        << r.failureMessage;
    EXPECT_TRUE(r.faultsEnabled);
    EXPECT_GT(r.faultOutageDropped, 0u);
    EXPECT_EQ(r.retryExhausted, 1u);

    // The failure serialises into the JSON record.
    const std::string json = sim::toJson(r);
    EXPECT_NE(json.find("\"fault_run_failed\":true"),
              std::string::npos);
}

TEST(ResilienceSystem, FaultFreeJsonCarriesNoFaultFields)
{
    sim::SimConfig cfg = quickConfig();
    ASSERT_FALSE(cfg.faults.enabled());
    sim::RunResult r = sim::runMix(cfg, "Mix3");
    const std::string json = sim::toJson(r);
    EXPECT_EQ(json.find("fault_"), std::string::npos);
    EXPECT_EQ(json.find("retry_"), std::string::npos);

    sim::SimConfig faulty = cfg;
    faulty.faults.lossRate = 0.01;
    const std::string fjson = sim::toJson(sim::runMix(faulty, "Mix3"));
    EXPECT_NE(fjson.find("\"fault_loss_injected\""),
              std::string::npos);
    EXPECT_NE(fjson.find("\"retry_attempts\""), std::string::npos);
    EXPECT_NE(fjson.find("\"fault_stream_fingerprint\""),
              std::string::npos);
}

// --- the derived retry deadline -------------------------------------------

/** The deadline of every retry layer a System built, one per store. */
std::vector<double>
systemDeadlines(const sim::SimConfig &cfg)
{
    sim::System sys(cfg, workload::mixProfiles("Mix3"));
    std::vector<double> out;
    for (unsigned s = 0; s < sys.numStores(); ++s) {
        const mem::ResilientBackend *res = sys.store(s).stack.resilient();
        EXPECT_NE(res, nullptr) << "store " << s;
        if (res)
            out.push_back(res->params().timeoutUs);
    }
    return out;
}

TEST(RetryDeadline, DerivedAlikeBySystemAndSyncOram)
{
    // Faults on and timeoutUs == 0: every builder picks the same
    // deadline, 100 us on DRAM and max(20 x one-way, 1000) us on the
    // net store. One-way 80 us exercises the first arm of the max,
    // 2 us the floor.
    mem::FaultParams faults;
    faults.lossRate = 0.01;
    struct Case
    {
        sim::BackendKind kind;
        double oneWayUs;
        double want;
    };
    for (const Case &c : {Case{sim::BackendKind::dram, 50.0, 100.0},
                          Case{sim::BackendKind::net, 80.0, 1600.0},
                          Case{sim::BackendKind::net, 2.0, 1000.0}}) {
        SCOPED_TRACE(sim::backendKindName(c.kind) + std::string(" ") +
                     std::to_string(c.oneWayUs));
        sim::SimConfig cfg = quickConfig();
        cfg.backendKind = c.kind;
        cfg.net.oneWayLatencyUs = c.oneWayUs;
        cfg.faults = faults;
        ASSERT_FALSE(cfg.retry.enabled());

        for (unsigned shards : {1u, 2u}) {
            cfg.shards = shards;
            EXPECT_EQ(systemDeadlines(cfg),
                      std::vector<double>(shards, c.want))
                << shards << " shards";
        }

        if (c.kind == sim::BackendKind::net) {
            sim::SyncOram oram(smallController(), cfg.net, faults,
                               mem::RetryParams{});
            ASSERT_NE(oram.resilientBackend(), nullptr);
            EXPECT_EQ(oram.resilientBackend()->params().timeoutUs,
                      c.want);
        } else {
            // SyncOram offers faults on the net store only; its
            // builder is the same MemoryStack either way.
            EventQueue eq;
            sim::MemoryStack stack(c.kind, cfg.dram, cfg.net, faults,
                                   mem::RetryParams{}, eq);
            ASSERT_NE(stack.resilient(), nullptr);
            EXPECT_EQ(stack.resilient()->params().timeoutUs, c.want);
        }
    }
}

TEST(RetryDeadline, ExplicitTimeoutWins)
{
    mem::FaultParams faults;
    faults.lossRate = 0.01;
    mem::RetryParams retry;
    retry.timeoutUs = 333.0;
    for (sim::BackendKind kind :
         {sim::BackendKind::dram, sim::BackendKind::net}) {
        SCOPED_TRACE(sim::backendKindName(kind));
        sim::SimConfig cfg = quickConfig();
        cfg.backendKind = kind;
        cfg.faults = faults;
        cfg.retry = retry;
        for (unsigned shards : {1u, 2u}) {
            cfg.shards = shards;
            EXPECT_EQ(systemDeadlines(cfg),
                      std::vector<double>(shards, 333.0))
                << shards << " shards";
        }
    }
    sim::SyncOram oram(smallController(), fastNet(), faults, retry);
    ASSERT_NE(oram.resilientBackend(), nullptr);
    EXPECT_EQ(oram.resilientBackend()->params().timeoutUs, 333.0);
}

} // anonymous namespace
} // namespace fp
