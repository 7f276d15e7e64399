/**
 * @file
 * Tests of the mem::MemoryBackend seam: the golden identity check
 * that pins the DRAM adapter to the pre-refactor RunResult JSON, unit
 * tests of the NetBackend timing model (propagation, serialization,
 * windowing), a randomized read-after-write functional test driving
 * the full controller over the network store, and the full-system
 * harness running end-to-end on each backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "mem/net_backend.hh"
#include "sim/runner.hh"
#include "sim/sim_config.hh"
#include "sim/sync_oram.hh"
#include "util/event_queue.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace fp
{
namespace
{

/**
 * The `fp_bench fig10 --quick` "merge q=64 / Mix3" point, captured
 * from the tree immediately before the MemoryBackend seam was
 * introduced (controller wired straight to dram::DramSystem &). The
 * DRAM adapter must reproduce it byte for byte: same events in the
 * same order at the same ticks, and the same serialised JSON.
 */
const char *kGoldenMergeQ64Mix3 =
    R"({"hit_tick_limit":false,"execution_ticks":325271250,)"
    R"("avg_llc_latency_ns":31222.810833333333,)"
    R"("avg_read_path_len":9.0490196078431371,)"
    R"("avg_dram_buckets_read":9.0490196078431371,)"
    R"("avg_dram_service_ns":511.52414075286418,)"
    R"("real_accesses":595,"dummy_accesses":16,"total_accesses":611,)"
    R"("dummy_replacements":6,"pending_swaps":3,"stash_shortcuts":1,)"
    R"("llc_requests":600,"merged_levels_skipped":3642,)"
    R"("row_hits":10066,"row_misses":995,)"
    R"("row_hit_rate":0.91004429979206225,)"
    R"("dram_energy_nj":303697.88076923077,)"
    R"("controller_energy_nj":633.78736175537108,"stash_peak":85,)"
    R"("stash_overflows":0,"cache_hits":0,"cache_misses":0,)"
    R"("cache_hit_rate":0,"merge_skips_per_level":)"
    R"([611,582,531,481,423,357,267,170,104,63,28,14,7,2,2]})";

sim::SimConfig
goldenConfig()
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    cfg.requestsPerCore = 150;
    cfg.controller.oram.leafLevel = 14;
    return sim::withMergeOnly(cfg, 64);
}

TEST(BackendGolden, DramAdapterMatchesPreRefactorJson)
{
    sim::RunResult r = sim::runMix(goldenConfig(), "Mix3");
    EXPECT_EQ(sim::toJson(r), kGoldenMergeQ64Mix3);
    EXPECT_EQ(r.backendKind, "dram");
}

TEST(BackendGolden, NetBackendEmitsBackendFields)
{
    sim::SimConfig cfg = goldenConfig();
    cfg.backendKind = sim::BackendKind::net;
    sim::RunResult r = sim::runMix(cfg, "Mix3");
    EXPECT_EQ(r.backendKind, "net");
    EXPECT_EQ(r.rowHits, 0u); // no row buffers in the net model

    JsonValue doc = JsonValue::parse(sim::toJson(r));
    EXPECT_EQ(doc.at("backend_kind").asString(), "net");
    EXPECT_GT(doc.at("backend_read_bursts").asNumber(), 0.0);
    EXPECT_GT(doc.at("backend_avg_latency_ns").asNumber(), 0.0);
}

// ---------------------------------------------------------------------------
// NetBackend unit tests.

mem::NetBackendParams
netParams()
{
    mem::NetBackendParams p;
    p.oneWayLatencyUs = 10.0; // 20 us RTT
    p.linkGbps = 8.0;         // 1 byte per ns
    p.window = 2;
    return p;
}

TEST(NetBackendParams, TickConversionRoundsToNearest)
{
    // Boundary values pinning round-to-nearest (llround, half away
    // from zero) in the double -> Tick conversions; plain truncation
    // used to bias every non-representable latency low.
    mem::NetBackendParams p;

    // 64 B * 8 * 1e3 / 3 Gbps = 170666.67 ps: truncation said
    // 170666, rounding says 170667.
    p.linkGbps = 3.0;
    EXPECT_EQ(p.serializationTicks(64), 170667u);
    // 2/3 of a tick rounds up; 1/3 rounds down.
    EXPECT_EQ(p.serializationTicks(1), 2667u);  // 2666.67 ps
    p.linkGbps = 6.0;
    EXPECT_EQ(p.serializationTicks(1), 1333u);  // 1333.33 ps

    // Exactly representable values stay exact (the pre-fix test
    // vectors elsewhere in this file are unchanged by the fix).
    p.linkGbps = 8.0;
    EXPECT_EQ(p.serializationTicks(256), 256'000u);

    // One-way latency: 12.3456789 us = 12345678.9 ps rounds up.
    p.oneWayLatencyUs = 12.3456789;
    EXPECT_EQ(p.oneWayTicks(), 12'345'679u);
    // Half a tick rounds away from zero, not down.
    p.oneWayLatencyUs = 5e-7; // 0.5 ps
    EXPECT_EQ(p.oneWayTicks(), 1u);
    p.oneWayLatencyUs = 0.0;
    EXPECT_EQ(p.oneWayTicks(), 0u);
}

TEST(NetBackend, SingleRequestPaysRttPlusSerialization)
{
    EventQueue eq;
    mem::NetBackend net(netParams(), eq);
    ASSERT_TRUE(net.idle());

    Tick done_at = 0;
    mem::BackendRequest req;
    req.addr = 0;
    req.bytes = 256;
    req.onComplete = [&](Tick t) { done_at = t; };
    net.access(std::move(req));
    EXPECT_FALSE(net.idle());
    EXPECT_EQ(net.queueDepth(), 1u);
    eq.run();

    // 256 B at 1 B/ns = 256 ns serialization + 20 us RTT.
    const Tick expect = 256'000 + 2 * 10'000'000;
    EXPECT_EQ(done_at, expect);
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.queueDepth(), 0u);
}

TEST(NetBackend, TransfersSerializeOnTheLink)
{
    EventQueue eq;
    mem::NetBackend net(netParams(), eq);

    std::vector<Tick> done;
    for (int i = 0; i < 2; ++i) {
        mem::BackendRequest req;
        req.addr = static_cast<Addr>(i) * 256;
        req.bytes = 256;
        req.onComplete = [&](Tick t) { done.push_back(t); };
        net.access(std::move(req));
    }
    eq.run();

    // Same RTT, but the second transfer waits out the first one's
    // link occupancy: exactly one serialization time later.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 256'000 + 20'000'000);
    EXPECT_EQ(done[1] - done[0], 256'000);
}

TEST(NetBackend, WindowBoundsOutstandingRequests)
{
    EventQueue eq;
    mem::NetBackend net(netParams(), eq); // window = 2

    int completed = 0;
    for (int i = 0; i < 5; ++i) {
        mem::BackendRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.bytes = 64;
        req.onComplete = [&](Tick) { ++completed; };
        net.access(std::move(req));
    }
    // 2 admitted, 3 parked locally behind the window.
    EXPECT_EQ(net.queueDepth(), 5u);
    EXPECT_EQ(net.windowStalls(), 3u);

    eq.run();
    EXPECT_EQ(completed, 5);
    EXPECT_TRUE(net.idle());

    const mem::BackendStats s = net.statsSnapshot();
    EXPECT_EQ(s.readBursts, 5u);
    EXPECT_EQ(s.bytesRead, 5u * 64u);
    EXPECT_EQ(s.writeBursts, 0u);
    EXPECT_GT(s.avgLatencyNs, 0.0);
}

TEST(NetBackend, ResetStatsClearsCounters)
{
    EventQueue eq;
    mem::NetBackend net(netParams(), eq);
    mem::BackendRequest req;
    req.isWrite = true;
    req.bytes = 64;
    req.onComplete = [](Tick) {};
    net.access(std::move(req));
    eq.run();
    EXPECT_EQ(net.statsSnapshot().writeBursts, 1u);
    net.resetStats();
    EXPECT_EQ(net.statsSnapshot().writeBursts, 0u);
    EXPECT_EQ(net.statsSnapshot().bytesWritten, 0u);
}

TEST(DramBackend, AdapterForwardsToDramSystem)
{
    EventQueue eq;
    dram::DramSystem dram(sim::SimConfig::defaultDram(), eq);
    dram::DramBackend backend(dram);
    EXPECT_STREQ(backend.kind(), "dram");
    EXPECT_TRUE(backend.idle());

    Tick done_at = 0;
    mem::BackendRequest req;
    req.addr = 1 << 20;
    req.bytes = 256; // = 4 bursts of 64 B
    req.onComplete = [&](Tick t) { done_at = t; };
    backend.access(std::move(req));
    eq.run();

    EXPECT_GT(done_at, 0u);
    const mem::BackendStats s = backend.statsSnapshot();
    EXPECT_EQ(s.readBursts, 4u);
    EXPECT_EQ(s.bytesRead, 256u);
}

// ---------------------------------------------------------------------------
// Randomized functional coverage: the full ORAM controller running
// read-after-write traffic against the network store.

TEST(NetBackendFunctional, RandomizedReadAfterWrite)
{
    auto params = core::ControllerParams::forkPath();
    params.oram.leafLevel = 9;
    params.oram.payloadBytes = 16;
    params.oram.seed = 77;
    params.labelQueueSize = 8;
    params.cacheBudgetBytes = 32 << 10;

    mem::NetBackendParams net;
    net.oneWayLatencyUs = 2.0; // keep the simulated run short
    net.linkGbps = 40.0;
    net.window = 8;

    sim::SyncOram oram(params, net);
    EXPECT_EQ(oram.dram(), nullptr);
    EXPECT_STREQ(oram.backend().kind(), "net");

    Rng rng(20260806);
    std::map<BlockAddr, std::vector<std::uint8_t>> shadow;
    for (int i = 0; i < 300; ++i) {
        BlockAddr addr = rng.uniformInt(128);
        if (shadow.empty() || rng.chance(0.5)) {
            std::vector<std::uint8_t> v(16);
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng.uniformInt(256));
            oram.write(addr, v);
            shadow[addr] = std::move(v);
        } else if (shadow.count(addr)) {
            EXPECT_EQ(oram.read(addr), shadow[addr]);
        } else {
            EXPECT_EQ(oram.read(addr),
                      std::vector<std::uint8_t>(16, 0));
        }
    }
    // Final sweep: every written block reads back.
    for (const auto &[addr, v] : shadow)
        EXPECT_EQ(oram.read(addr), v);

    // The remote store actually served the traffic.
    const mem::BackendStats s = oram.backend().statsSnapshot();
    EXPECT_GT(s.readBursts, 0u);
    EXPECT_GT(s.writeBursts, 0u);
    EXPECT_GT(oram.now(), 0u);
}

TEST(NetBackendFunctional, LatencyScalesWithLinkRate)
{
    auto params = core::ControllerParams::traditional();
    params.oram.leafLevel = 9;
    params.oram.payloadBytes = 16;
    params.oram.seed = 3;

    auto avg_latency = [&](double gbps) {
        mem::NetBackendParams net;
        net.oneWayLatencyUs = 5.0;
        net.linkGbps = gbps;
        sim::SyncOram oram(params, net);
        std::vector<std::uint8_t> v(16, 0x42);
        for (BlockAddr a = 0; a < 16; ++a)
            oram.write(a, v);
        return oram.controller().oramLatency().mean();
    };

    // A slower link must cost simulated time, never change results.
    EXPECT_GT(avg_latency(1.0), avg_latency(100.0));
}

} // anonymous namespace
} // namespace fp
