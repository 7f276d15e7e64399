/**
 * @file
 * Tests of the workload substrate: profile tables, Table 2 mixes,
 * address-stream behaviour and the core model's issue discipline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/event_queue.hh"
#include "workload/core_model.hh"
#include "workload/mixes.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace fp::workload
{
namespace
{

TEST(SpecProfiles, Table2BenchmarksExist)
{
    for (const char *name :
         {"povray", "sjeng", "GemsFDTD", "h264ref", "bzip2", "tonto",
          "omnetpp", "astar", "gcc", "bwaves", "mcf", "gromacs",
          "libquantum", "lbm", "wrf", "namd", "calculix"}) {
        EXPECT_NO_FATAL_FAILURE(specProfile(name)) << name;
        EXPECT_EQ(specProfile(name).name, name);
    }
}

TEST(SpecProfiles, GroupsPartitionTheTable)
{
    auto lg = lowOverheadGroup();
    auto hg = highOverheadGroup();
    EXPECT_EQ(lg.size() + hg.size(), specNames().size());
    for (const auto &n : lg)
        EXPECT_FALSE(specProfile(n).highOverheadGroup);
    for (const auto &n : hg)
        EXPECT_TRUE(specProfile(n).highOverheadGroup);
}

TEST(SpecProfiles, HgIsMoreIntenseThanLgOnAverage)
{
    // The paper's grouping is by ORAM overhead, which tracks but is
    // not identical to miss intensity (namd sits in HG with moderate
    // intensity); require clear separation of the group means.
    double lg_sum = 0, hg_sum = 0;
    for (const auto &n : lowOverheadGroup())
        lg_sum += specProfile(n).missIntervalCycles;
    for (const auto &n : highOverheadGroup())
        hg_sum += specProfile(n).missIntervalCycles;
    double lg_mean = lg_sum / lowOverheadGroup().size();
    double hg_mean = hg_sum / highOverheadGroup().size();
    EXPECT_GT(lg_mean, 1.8 * hg_mean);
}

TEST(Mixes, Table2Composition)
{
    EXPECT_EQ(mixNames().size(), 10u);
    EXPECT_EQ(mixMembers("Mix1"),
              (std::vector<std::string>{"povray", "sjeng", "GemsFDTD",
                                        "h264ref"}));
    EXPECT_EQ(mixMembers("Mix7"),
              (std::vector<std::string>{"bwaves", "bwaves", "bwaves",
                                        "bwaves"}));
    EXPECT_EQ(mixMembers("Mix10"),
              (std::vector<std::string>{"bzip2", "povray",
                                        "libquantum", "libquantum"}));
    for (const auto &mix : mixNames())
        EXPECT_EQ(mixMembers(mix).size(), 4u) << mix;
}

TEST(Mixes, LowHighGroupMembership)
{
    // Mix1/Mix2 all-LG; Mix3/Mix4 all-HG (paper text).
    for (const auto &n : mixMembers("Mix1"))
        EXPECT_FALSE(specProfile(n).highOverheadGroup) << n;
    for (const auto &n : mixMembers("Mix2"))
        EXPECT_FALSE(specProfile(n).highOverheadGroup) << n;
    for (const auto &n : mixMembers("Mix3"))
        EXPECT_TRUE(specProfile(n).highOverheadGroup) << n;
    for (const auto &n : mixMembers("Mix4"))
        EXPECT_TRUE(specProfile(n).highOverheadGroup) << n;
}

TEST(Mixes, GeneratedMixesDeterministic)
{
    auto a = makeMixForCores(8, 5);
    auto b = makeMixForCores(8, 5);
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].name, b[i].name);
}

TEST(Parsec, ProfilesExist)
{
    EXPECT_EQ(parsecNames().size(), 10u);
    EXPECT_NO_FATAL_FAILURE(parsecProfile("canneal"));
    auto threads = parsecThreads("x264", 4);
    EXPECT_EQ(threads.size(), 4u);
    EXPECT_EQ(threads[0].name, "x264");
}

TEST(AddressStream, StaysInWorkingSet)
{
    WorkloadProfile p = specProfile("mcf");
    AddressStream s(p, 1000, Rng(5));
    for (int i = 0; i < 20000; ++i) {
        auto req = s.next();
        EXPECT_GE(req.addr, 1000u);
        EXPECT_LT(req.addr, 1000u + p.workingSetBlocks);
    }
}

TEST(AddressStream, WriteFractionApproximatelyHonored)
{
    WorkloadProfile p = specProfile("lbm"); // 0.45 writes
    AddressStream s(p, 0, Rng(7));
    int writes = 0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += s.next().isWrite;
    EXPECT_NEAR(static_cast<double>(writes) / n, p.writeFraction,
                0.02);
}

TEST(AddressStream, SequentialRunsExist)
{
    WorkloadProfile p = specProfile("libquantum"); // seq-heavy
    AddressStream s(p, 0, Rng(9));
    int seq_pairs = 0;
    BlockAddr prev = s.next().addr;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        BlockAddr cur = s.next().addr;
        seq_pairs += (cur == prev + 1);
        prev = cur;
    }
    EXPECT_GT(seq_pairs, n / 3);
}

TEST(AddressStream, Deterministic)
{
    WorkloadProfile p = specProfile("gcc");
    AddressStream a(p, 0, Rng(11)), b(p, 0, Rng(11));
    for (int i = 0; i < 1000; ++i) {
        auto ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
    }
}

TEST(Phases, DutyCycledIntervals)
{
    WorkloadProfile p = specProfile("omnetpp"); // phased LG member
    ASSERT_GT(p.phasePeriodMisses, 0u);
    double low = p.missIntervalAt(0);  // cycle starts low-intensity
    double high = p.missIntervalAt(p.phasePeriodMisses - 1);
    EXPECT_GT(low, high * 2.0);
    EXPECT_DOUBLE_EQ(high, p.missIntervalCycles);
    // Periodic in the miss index.
    EXPECT_DOUBLE_EQ(p.missIntervalAt(0),
                     p.missIntervalAt(p.phasePeriodMisses));
}

TEST(Phases, SteadyProfilesUnchanged)
{
    WorkloadProfile p = specProfile("mcf");
    EXPECT_EQ(p.phasePeriodMisses, 0u);
    EXPECT_DOUBLE_EQ(p.missIntervalAt(12345), p.missIntervalCycles);
}

// --- core model: a sink with programmable latency ------------------------

class FakeSink : public MemorySink
{
  public:
    FakeSink(EventQueue &eq, Tick latency) : eq_(eq), latency_(latency)
    {
    }

    bool canAccept() const override { return true; }

    bool
    access(const MemRequest &, ResponseFn on_response) override
    {
        ++inFlight_;
        maxInFlight_ = std::max(maxInFlight_, inFlight_);
        ++total_;
        eq_.scheduleIn(latency_, [this, cb = std::move(on_response)] {
            --inFlight_;
            cb(eq_.now());
        });
        return true;
    }

    unsigned maxInFlight_ = 0;
    unsigned inFlight_ = 0;
    std::uint64_t total_ = 0;

  private:
    EventQueue &eq_;
    Tick latency_;
};

TEST(CoreModel, IssuesExactBudget)
{
    EventQueue eq;
    FakeSink sink(eq, 1000);
    CoreParams cp;
    cp.totalRequests = 500;
    cp.maxOutstanding = 4;
    CoreModel core(cp, specProfile("mcf"), 0, 1, eq, sink);
    core.start();
    eq.run();
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.issued(), 500u);
    EXPECT_EQ(sink.total_, 500u);
    EXPECT_GT(core.finishTick(), 0u);
}

TEST(CoreModel, RespectsMlpLimit)
{
    EventQueue eq;
    FakeSink sink(eq, 1'000'000); // slow memory forces queueing
    CoreParams cp;
    cp.totalRequests = 200;
    cp.maxOutstanding = 3;
    CoreModel core(cp, specProfile("mcf"), 0, 2, eq, sink);
    core.start();
    eq.run();
    EXPECT_TRUE(core.done());
    EXPECT_LE(sink.maxInFlight_, 3u);
    EXPECT_EQ(sink.maxInFlight_, 3u); // memory-bound: cap reached
}

TEST(CoreModel, InOrderHasOneOutstanding)
{
    EventQueue eq;
    FakeSink sink(eq, 100'000);
    CoreParams cp;
    cp.totalRequests = 100;
    cp.maxOutstanding = 1;
    CoreModel core(cp, specProfile("lbm"), 0, 3, eq, sink);
    core.start();
    eq.run();
    EXPECT_EQ(sink.maxInFlight_, 1u);
}

TEST(CoreModel, ComputeGapsSlowLightWorkloads)
{
    // A low-intensity profile should take longer wall-clock than a
    // high-intensity one against the same instant memory.
    auto run_one = [](const WorkloadProfile &p) {
        EventQueue eq;
        FakeSink sink(eq, 10);
        CoreParams cp;
        cp.totalRequests = 300;
        CoreModel core(cp, p, 0, 4, eq, sink);
        core.start();
        eq.run();
        return core.finishTick();
    };
    EXPECT_GT(run_one(specProfile("povray")),
              5 * run_one(specProfile("mcf")));
}

TEST(CoreModel, MissLatencyRecorded)
{
    EventQueue eq;
    FakeSink sink(eq, 2000);
    CoreParams cp;
    cp.totalRequests = 50;
    CoreModel core(cp, specProfile("gcc"), 0, 5, eq, sink);
    core.start();
    eq.run();
    EXPECT_EQ(core.missLatency().count(), 50u);
    EXPECT_NEAR(core.missLatency().mean(), 2.0, 0.1); // 2000 ticks = 2ns
}

// --- core model: refused by a full sink ----------------------------------

/** A few slots shared by several cores; a slot frees only when its
 *  response event runs, so the sink may opt in to idle-poll skipping.
 *  One response in four is 100x faster, so some cores get an answer,
 *  and issue again, while their retry is pending. */
class SlotSink : public MemorySink
{
  public:
    SlotSink(EventQueue &eq, unsigned slots, Tick latency, bool opt_in)
        : eq_(eq), slots_(slots), latency_(latency), optIn_(opt_in)
    {
    }

    bool canAccept() const override { return inFlight_ < slots_; }
    bool capacityChangesOnlyInEvents() const override { return optIn_; }

    bool
    access(const MemRequest &req, ResponseFn on_response) override
    {
        if (!canAccept())
            return false;
        ++inFlight_;
        issues.emplace_back(eq_.now(), req.addr);
        const Tick latency =
            rng_.chance(0.25) ? latency_ / 100 : latency_;
        eq_.scheduleIn(latency, [this, cb = std::move(on_response)] {
            --inFlight_;
            cb(eq_.now());
        });
        return true;
    }

    std::vector<std::pair<Tick, BlockAddr>> issues;

  private:
    EventQueue &eq_;
    unsigned slots_;
    Tick latency_;
    bool optIn_;
    unsigned inFlight_ = 0;
    Rng rng_{7};
};

TEST(CoreModel, SkippedIdlePollsKeepIssueTicksAndCutEvents)
{
    struct Outcome
    {
        std::vector<std::pair<Tick, BlockAddr>> issues;
        std::vector<Tick> finish;
        std::vector<std::vector<std::uint64_t>> latencyBuckets;
        std::vector<double> latencyMeans;
        std::uint64_t executed;
    };
    auto run = [](bool opt_in) {
        EventQueue eq;
        // Two misses per core over three slots keep the sink full,
        // and most responses take 200 retry periods, so blocked cores
        // idle for long stretches.
        SlotSink sink(eq, 3, 200 * 50 * 500, opt_in);
        const auto profiles = mixProfiles("Mix3");
        std::vector<std::unique_ptr<CoreModel>> cores;
        for (unsigned c = 0; c < 4; ++c) {
            CoreParams cp;
            cp.coreId = c;
            cp.maxOutstanding = 2;
            cp.totalRequests = 60;
            cores.push_back(std::make_unique<CoreModel>(
                cp, profiles[c], c * 100000, 9, eq, sink));
        }
        for (auto &core : cores)
            core->start();
        Outcome out;
        out.executed = eq.run();
        out.issues = sink.issues;
        for (const auto &core : cores) {
            EXPECT_TRUE(core->done());
            out.finish.push_back(core->finishTick());
            out.latencyBuckets.push_back(core->missLatency().buckets());
            out.latencyMeans.push_back(core->missLatency().mean());
        }
        return out;
    };
    const Outcome polled = run(false), skipped = run(true);
    EXPECT_EQ(skipped.issues, polled.issues);
    EXPECT_EQ(skipped.finish, polled.finish);
    EXPECT_EQ(skipped.latencyBuckets, polled.latencyBuckets);
    EXPECT_EQ(skipped.latencyMeans, polled.latencyMeans);
    EXPECT_EQ(polled.issues.size(), 240u);
    EXPECT_GE(polled.executed, 10 * skipped.executed);
}

/** Opens at a fixed tick whatever the queue does: time-driven, so it
 *  must not opt in, and the core keeps polling every period. */
class OpensAtSink : public MemorySink
{
  public:
    OpensAtSink(EventQueue &eq, Tick open_at) : eq_(eq), openAt_(open_at)
    {
    }

    bool canAccept() const override { return eq_.now() >= openAt_; }

    bool
    access(const MemRequest &, ResponseFn on_response) override
    {
        if (!canAccept())
            return false;
        issueTick = eq_.now();
        eq_.scheduleIn(1000, [this, cb = std::move(on_response)] {
            cb(eq_.now());
        });
        return true;
    }

    Tick issueTick = 0;

  private:
    EventQueue &eq_;
    Tick openAt_;
};

TEST(CoreModel, TimeDrivenSinkIssuesOnFirstGridTickAfterOpening)
{
    EventQueue eq;
    const Tick open_at = 1'234'567;
    OpensAtSink sink(eq, open_at);
    // An unrelated event far beyond the opening: a core that skipped
    // its idle polls would jump straight to it.
    eq.schedule(100 * open_at, [] {});
    CoreParams cp;
    cp.totalRequests = 1;
    CoreModel core(cp, specProfile("mcf"), 0, 1, eq, sink);
    core.start();
    eq.run();
    const Tick period = cp.retryCycles * cp.cpuPeriodTicks;
    EXPECT_TRUE(core.done());
    EXPECT_EQ(sink.issueTick, (open_at + period - 1) / period * period);
}

} // anonymous namespace
} // namespace fp::workload
