/**
 * @file
 * Small-scale regression locks on the figure *shapes* (who wins,
 * what is monotone, where the knee sits). These run the same
 * harness as the bench binaries but at test-sized workloads, so a
 * regression that would silently bend a paper figure fails CI
 * instead.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workload/spec_profiles.hh"

namespace fp::sim
{
namespace
{

SimConfig
figConfig(std::uint64_t requests = 350)
{
    SimConfig cfg = SimConfig::paperDefault();
    cfg.requestsPerCore = requests;
    cfg.controller.oram.leafLevel = 14;
    cfg.seed = 99;
    return cfg;
}

std::vector<workload::WorkloadProfile>
heavyMix()
{
    return {workload::specProfile("mcf"),
            workload::specProfile("lbm"),
            workload::specProfile("bwaves"),
            workload::specProfile("libquantum")};
}

TEST(FigureShapes, Fig10PathLengthFallsWithQueue)
{
    auto cfg = figConfig();
    auto profiles = heavyMix();
    double prev = 1e9;
    for (unsigned q : {1u, 8u, 32u}) {
        auto r = runProfiles(withMergeOnly(cfg, q), profiles);
        EXPECT_LT(r.avgReadPathLen, prev) << "q=" << q;
        prev = r.avgReadPathLen;
    }
}

TEST(FigureShapes, Fig11RequestOverheadSmallAndGrowing)
{
    auto cfg = figConfig();
    auto profiles = heavyMix();
    auto trad = runProfiles(withTraditional(cfg), profiles);
    auto q8 = runProfiles(withMergeOnly(cfg, 8), profiles);
    auto q64 = runProfiles(withMergeOnly(cfg, 64), profiles);
    double base = static_cast<double>(trad.realAccesses +
                                      trad.dummyAccesses);
    double r8 = q8.totalAccesses() / base;
    double r64 = q64.totalAccesses() / base;
    EXPECT_GE(r8, 0.99);
    EXPECT_LT(r8, 1.2);
    EXPECT_LT(r64, 1.6);
    EXPECT_GE(r64, r8 - 0.02);
}

TEST(FigureShapes, Fig13CacheOrdering)
{
    auto cfg = figConfig();
    auto profiles = heavyMix();
    auto merge = runProfiles(withMergeOnly(cfg, 32), profiles);
    auto mac_small =
        runProfiles(withMergeMac(cfg, 64 << 10, 32), profiles);
    auto mac_big =
        runProfiles(withMergeMac(cfg, 512 << 10, 32), profiles);
    // Caching helps, and more capacity helps more.
    EXPECT_LT(mac_small.avgLlcLatencyNs, merge.avgLlcLatencyNs);
    EXPECT_LT(mac_big.avgLlcLatencyNs, mac_small.avgLlcLatencyNs);
}

TEST(FigureShapes, Fig14SlowdownOrdering)
{
    auto cfg = figConfig();
    auto profiles = heavyMix();
    auto insecure = runProfiles(withInsecure(cfg), profiles);
    auto trad = runProfiles(withTraditional(cfg), profiles);
    auto fork =
        runProfiles(withMergeMac(cfg, 512 << 10, 32), profiles);
    EXPECT_GT(trad.executionTicks, insecure.executionTicks);
    EXPECT_GT(fork.executionTicks, insecure.executionTicks);
    EXPECT_LT(fork.executionTicks, trad.executionTicks);
}

TEST(FigureShapes, Fig15EnergyOrdering)
{
    auto cfg = figConfig();
    auto profiles = heavyMix();
    auto trad = runProfiles(withTraditional(cfg), profiles);
    auto merge = runProfiles(withMergeOnly(cfg, 32), profiles);
    auto mac =
        runProfiles(withMergeMac(cfg, 512 << 10, 32), profiles);
    EXPECT_LT(merge.totalEnergyNj(), trad.totalEnergyNj());
    EXPECT_LT(mac.totalEnergyNj(), merge.totalEnergyNj());
}

TEST(FigureShapes, Fig17bAdvantageDilutesWithDepth)
{
    auto profiles = heavyMix();
    double shallow, deep;
    {
        auto cfg = figConfig(250);
        cfg.controller.oram.leafLevel = 12;
        auto t = runProfiles(withTraditional(cfg), profiles);
        auto f = runProfiles(withMergeOnly(cfg, 32), profiles);
        shallow = f.avgLlcLatencyNs / t.avgLlcLatencyNs;
    }
    {
        auto cfg = figConfig(250);
        cfg.controller.oram.leafLevel = 20;
        auto t = runProfiles(withTraditional(cfg), profiles);
        auto f = runProfiles(withMergeOnly(cfg, 32), profiles);
        deep = f.avgLlcLatencyNs / t.avgLlcLatencyNs;
    }
    // The fixed absolute path-length saving matters less in deeper
    // trees: the normalized advantage shrinks (ratio rises).
    EXPECT_GT(deep, shallow - 0.02);
}

TEST(FigureShapes, ReplacingWindowExists)
{
    // A request arriving shortly after another's read phase must be
    // able to replace the committed dummy (the replacing spec's knee).
    auto cfg = figConfig(250);
    auto with = runProfiles(withMergeOnly(cfg, 16), heavyMix());
    EXPECT_GT(with.dummyReplacements + with.realAccesses, 0u);
}

} // anonymous namespace
} // namespace fp::sim
