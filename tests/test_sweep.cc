/**
 * @file
 * SweepRunner tests: parallel execution must be a pure reordering of
 * sequential execution (identical ordered results), failing points
 * must be isolated into error records, and concurrent Systems must
 * not share statistics state (run under TSan in CI).
 */

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "sim/sweep.hh"
#include "sim/system.hh"
#include "util/logging.hh"
#include "workload/spec_profiles.hh"

namespace fp::sim
{
namespace
{

SimConfig
smallConfig(std::uint64_t seed)
{
    SimConfig cfg = SimConfig::paperDefault();
    cfg.cores = 2;
    cfg.requestsPerCore = 60;
    cfg.controller.oram.leafLevel = 10;
    cfg.seed = seed;
    return cfg;
}

std::vector<workload::WorkloadProfile>
twoCoreProfiles()
{
    return {workload::specProfile("mcf"),
            workload::specProfile("lbm")};
}

std::vector<SweepPoint>
twelvePoints()
{
    std::vector<SweepPoint> points;
    for (unsigned i = 0; i < 12; ++i) {
        auto cfg = i % 2 ? withMergeOnly(smallConfig(100 + i), 8)
                         : withTraditional(smallConfig(100 + i));
        points.push_back(pointFromProfiles(
            strprintf("p%u", i), cfg, twoCoreProfiles()));
    }
    return points;
}

/** Fields that pin down a run for cross-job comparison. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.executionTicks, b.executionTicks);
    EXPECT_EQ(a.realAccesses, b.realAccesses);
    EXPECT_EQ(a.dummyAccesses, b.dummyAccesses);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.llcRequests, b.llcRequests);
    EXPECT_DOUBLE_EQ(a.avgLlcLatencyNs, b.avgLlcLatencyNs);
    EXPECT_DOUBLE_EQ(a.avgReadPathLen, b.avgReadPathLen);
    EXPECT_DOUBLE_EQ(a.dramEnergyNj, b.dramEnergyNj);
}

TEST(Sweep, ParallelMatchesSequential)
{
    SweepOptions seq;
    seq.jobs = 1;
    auto sequential = SweepRunner(seq).run(twelvePoints());

    SweepOptions par;
    par.jobs = 4;
    auto parallel = SweepRunner(par).run(twelvePoints());

    ASSERT_EQ(sequential.size(), 12u);
    ASSERT_EQ(parallel.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(sequential[i].name, parallel[i].name);
        ASSERT_TRUE(sequential[i].ok) << sequential[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        expectSameResult(sequential[i].result, parallel[i].result);
    }
}

TEST(Sweep, ResultsStayInSubmissionOrder)
{
    auto points = twelvePoints();
    std::vector<std::string> expected;
    for (const auto &p : points)
        expected.push_back(p.name);

    SweepOptions opt;
    opt.jobs = 3;
    auto outcomes = SweepRunner(opt).run(std::move(points));
    ASSERT_EQ(outcomes.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(outcomes[i].name, expected[i]);
}

TEST(Sweep, FailingPointYieldsErrorRecordNotSweepDeath)
{
    auto points = twelvePoints();
    // Poison one point: a profile-count/core-count mismatch trips an
    // fp_assert inside System's constructor.
    points[5].profiles.pop_back();

    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opt;
        opt.jobs = jobs;
        auto outcomes = SweepRunner(opt).run(points);
        ASSERT_EQ(outcomes.size(), 12u);
        EXPECT_FALSE(outcomes[5].ok);
        EXPECT_NE(outcomes[5].error.find("profiles"),
                  std::string::npos)
            << outcomes[5].error;
        for (std::size_t i = 0; i < 12; ++i) {
            if (i == 5)
                continue;
            EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        }
    }
}

TEST(Sweep, OnPointDoneSeesEveryPoint)
{
    SweepOptions opt;
    opt.jobs = 4;
    std::size_t calls = 0;
    std::size_t last_done = 0;
    opt.onPointDone = [&](const SweepOutcome &, std::size_t done,
                          std::size_t total) {
        // Serialized by the runner's lock, so plain variables are
        // safe here.
        ++calls;
        EXPECT_EQ(done, last_done + 1);
        EXPECT_EQ(total, 12u);
        last_done = done;
    };
    auto outcomes = SweepRunner(opt).run(twelvePoints());
    EXPECT_EQ(calls, 12u);
    EXPECT_EQ(outcomes.size(), 12u);
}

TEST(Sweep, TickLimitTruncatesInsteadOfAborting)
{
    auto points = twelvePoints();
    points.resize(2);
    points[0].limit = 1'000'000; // far too few ticks to finish
    SweepOptions opt;
    opt.jobs = 1;
    auto outcomes = SweepRunner(opt).run(std::move(points));
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_TRUE(outcomes[0].result.hitTickLimit);
    EXPECT_GT(outcomes[0].result.executionTicks, 0u);
    ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
    EXPECT_FALSE(outcomes[1].result.hitTickLimit);
}

TEST(Sweep, ConcurrentSystemsKeepDisjointStatRegistries)
{
    // Two Systems built and run on separate threads at once: each
    // must see only its own StatGroups. TSan (the CI thread-sanitizer
    // job) additionally checks for data races here.
    auto run_one = [](std::uint64_t seed, std::size_t *groups,
                      RunResult *result) {
        SimConfig cfg = withTraditional(smallConfig(seed));
        System system(cfg, {workload::specProfile("mcf"),
                            workload::specProfile("lbm")});
        *groups = system.statRegistry().size();
        *result = system.run();
    };

    std::size_t groups_a = 0, groups_b = 0;
    RunResult res_a, res_b;
    std::thread ta(run_one, 1, &groups_a, &res_a);
    std::thread tb(run_one, 2, &groups_b, &res_b);
    ta.join();
    tb.join();

    EXPECT_GT(groups_a, 0u);
    EXPECT_EQ(groups_a, groups_b);
    EXPECT_GT(res_a.executionTicks, 0u);
    EXPECT_GT(res_b.executionTicks, 0u);

    // And the same runs single-threaded give identical numbers: the
    // concurrent Systems did not perturb each other.
    std::size_t groups_c = 0;
    RunResult res_c;
    run_one(1, &groups_c, &res_c);
    EXPECT_EQ(groups_c, groups_a);
    EXPECT_EQ(res_c.executionTicks, res_a.executionTicks);
    EXPECT_EQ(res_c.realAccesses, res_a.realAccesses);
}

TEST(Sweep, RecoverableFailureGuardRestoresMode)
{
    EXPECT_FALSE(recoverableFailuresEnabled());
    {
        ScopedRecoverableFailures guard;
        EXPECT_TRUE(recoverableFailuresEnabled());
        EXPECT_THROW(fp_panic("intentional test panic"), SimFailure);
        {
            ScopedRecoverableFailures nested;
            EXPECT_TRUE(recoverableFailuresEnabled());
        }
        EXPECT_TRUE(recoverableFailuresEnabled());
    }
    EXPECT_FALSE(recoverableFailuresEnabled());
}

TEST(Sweep, HardwareJobsIsPositive)
{
    EXPECT_GE(SweepRunner::hardwareJobs(), 1u);
}

} // anonymous namespace
} // namespace fp::sim
