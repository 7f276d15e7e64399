/**
 * @file
 * Tests of the sharded ORAM front-end (core::ShardedOram) and its
 * system wiring: the --shards=1 golden-identity guarantee, derived
 * per-shard seeding, the dispatcher's routing and window bounds, a
 * randomized read-after-write functional run spanning shard
 * boundaries, cross-shard stat/profiler aggregation, JSON gating of
 * the shard block, and byte-identical sweep output at any --jobs.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/sharded_oram.hh"
#include "mem/net_backend.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "workload/mixes.hh"

namespace fp
{
namespace
{

/**
 * The same pre-seam golden RunResult pinned by test_backend.cc: a
 * --shards=1 run must produce this byte for byte, proving the sharded
 * front-end leaves the single-controller path completely untouched.
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

/** A small sharded full-system config that finishes in well under a
 *  second: Mix3 on the net store, Fork Path merging. */
sim::SimConfig
shardedConfig(unsigned shards)
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    cfg.requestsPerCore = 60;
    cfg.controller.oram.leafLevel = 10;
    cfg = sim::withMergeOnly(cfg, 16);
    cfg.backendKind = sim::BackendKind::net;
    cfg.shards = shards;
    return cfg;
}

TEST(ShardedGolden, ShardsOneIsByteIdenticalToGolden)
{
    sim::SimConfig cfg = goldenConfig();
    cfg.shards = 1; // explicit, to pin the default too
    sim::RunResult r = sim::runMix(cfg, "Mix3");
    EXPECT_EQ(sim::toJson(r), kGoldenMergeQ64Mix3);
    EXPECT_EQ(r.shards, 1u);
}

// ---------------------------------------------------------------------------
// Seed derivation and routing.

TEST(ShardedOramUnit, ShardSeedsPairwiseDistinctAndDeterministic)
{
    for (std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1},
                               std::uint64_t{0xdeadbeefULL}}) {
        std::set<std::uint64_t> seen;
        for (unsigned s = 0; s < 64; ++s) {
            std::uint64_t d = core::ShardedOram::shardSeed(base, s);
            // Derived seeds never collide with each other or with the
            // base seed (a shard must not replay the unsharded run's
            // RNG streams).
            EXPECT_TRUE(seen.insert(d).second)
                << "base " << base << " shard " << s;
            EXPECT_NE(d, base);
            // Pure function of (base, shard): independent of call
            // order, host threads, or any global state.
            EXPECT_EQ(d, core::ShardedOram::shardSeed(base, s));
        }
    }
}

TEST(ShardedOramUnit, ShardOfIsBalancedDeterministicPartition)
{
    const unsigned shards = 4;
    std::vector<std::uint64_t> count(shards, 0);
    for (BlockAddr a = 0; a < 4096; ++a) {
        unsigned s = core::ShardedOram::shardOf(a, shards);
        ASSERT_LT(s, shards);
        EXPECT_EQ(s, core::ShardedOram::shardOf(a, shards));
        ++count[s];
    }
    // splitmix64 spreads a contiguous range near-uniformly; each
    // shard should hold roughly 1024 of 4096 addresses.
    for (unsigned s = 0; s < shards; ++s)
        EXPECT_GT(count[s], 700u) << "shard " << s << " starved";
}

// ---------------------------------------------------------------------------
// Dispatcher harness over per-shard network stores.

class ShardedHarness
{
  public:
    explicit ShardedHarness(unsigned shards, unsigned window = 16,
                            unsigned leaf_level = 8)
    {
        core::ControllerParams params =
            core::ControllerParams::forkPath();
        params.oram.leafLevel = leaf_level;
        params.oram.payloadBytes = 16;
        params.oram.seed = 77;
        params.labelQueueSize = 8;

        mem::NetBackendParams net;
        net.oneWayLatencyUs = 2.0; // keep the simulated run short
        net.linkGbps = 40.0;
        net.window = 8;

        std::vector<mem::MemoryBackend *> tops;
        for (unsigned s = 0; s < shards; ++s) {
            stores_.push_back(
                std::make_unique<mem::NetBackend>(net, eq_));
            tops.push_back(stores_.back().get());
        }
        core::ShardedOramParams sop;
        sop.shards = shards;
        sop.shardWindow = window;
        sharded_ = std::make_unique<core::ShardedOram>(
            sop, params, eq_, tops);
    }

    core::ShardedOram &sharded() { return *sharded_; }
    EventQueue &eq() { return eq_; }

    /** Blocking write of one 16-byte block (SyncOram style). */
    void write(BlockAddr addr, std::vector<std::uint8_t> data)
    {
        bool done = false;
        std::uint64_t id = sharded_->request(
            oram::Op::write, addr, std::move(data),
            [&](Tick, const auto &) { done = true; });
        ASSERT_NE(id, 0u);
        eq_.runWhile([&done] { return !done; });
        ASSERT_TRUE(done);
    }

    /** Blocking read of one block. */
    std::vector<std::uint8_t> read(BlockAddr addr)
    {
        std::vector<std::uint8_t> out;
        bool done = false;
        std::uint64_t id = sharded_->request(
            oram::Op::read, addr, {}, [&](Tick, const auto &data) {
                out = data;
                done = true;
            });
        EXPECT_NE(id, 0u);
        eq_.runWhile([&done] { return !done; });
        EXPECT_TRUE(done);
        return out;
    }

  private:
    EventQueue eq_;
    std::vector<std::unique_ptr<mem::NetBackend>> stores_;
    std::unique_ptr<core::ShardedOram> sharded_;
};

TEST(ShardedDispatcher, RequestIdsAreGloballyUniqueAcrossShards)
{
    const unsigned shards = 3;
    ShardedHarness h(shards, /*window=*/16);
    std::set<std::uint64_t> ids;
    unsigned completions = 0;
    for (BlockAddr a = 0; a < 30; ++a) {
        std::uint64_t id = h.sharded().request(
            oram::Op::read, a, {},
            [&](Tick, const auto &) { ++completions; });
        ASSERT_NE(id, 0u);
        // Interleaved id streams: shard s issues s+1, s+1+S, ... so
        // no two shards can ever mint the same id.
        EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
        h.eq().runWhile(
            [&] { return h.sharded().inFlight() > 0; });
    }
    EXPECT_EQ(completions, 30u);
}

TEST(ShardedDispatcher, WindowBoundsInflightAndCountsRejects)
{
    const unsigned shards = 2;
    ShardedHarness h(shards, /*window=*/1);

    // Two addresses homed on the same shard.
    BlockAddr a = 0;
    unsigned home = core::ShardedOram::shardOf(a, shards);
    BlockAddr b = 1;
    while (core::ShardedOram::shardOf(b, shards) != home)
        ++b;

    unsigned done = 0;
    auto cb = [&](Tick, const auto &) { ++done; };
    ASSERT_NE(h.sharded().request(oram::Op::read, a, {}, cb), 0u);
    EXPECT_EQ(h.sharded().inFlight(), 1u);

    // The home shard's window (1) is full: rejected, counted, and no
    // slot leaked.
    EXPECT_EQ(h.sharded().request(oram::Op::read, b, {}, cb), 0u);
    EXPECT_EQ(h.sharded().windowRejects(), 1u);
    EXPECT_EQ(h.sharded().inFlight(), 1u);

    h.eq().runWhile([&] { return h.sharded().inFlight() > 0; });
    EXPECT_EQ(done, 1u);

    // With the slot free again the same request goes through.
    EXPECT_NE(h.sharded().request(oram::Op::read, b, {}, cb), 0u);
    h.eq().runWhile([&] { return h.sharded().inFlight() > 0; });
    EXPECT_EQ(done, 2u);
    EXPECT_EQ(h.sharded().windowRejects(), 1u);
}

TEST(ShardedFunctional, RandomizedReadAfterWriteAcrossShards)
{
    const unsigned shards = 4;
    ShardedHarness h(shards);

    // 128 block addresses hash across all four shards, so the
    // interleaved stream continually crosses shard boundaries.
    Rng rng(20260808);
    std::map<BlockAddr, std::vector<std::uint8_t>> shadow;
    for (int i = 0; i < 300; ++i) {
        BlockAddr addr = rng.uniformInt(128);
        if (shadow.empty() || rng.chance(0.5)) {
            std::vector<std::uint8_t> v(16);
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng.uniformInt(256));
            h.write(addr, v);
            shadow[addr] = std::move(v);
        } else if (shadow.count(addr)) {
            EXPECT_EQ(h.read(addr), shadow[addr]);
        } else {
            EXPECT_EQ(h.read(addr),
                      std::vector<std::uint8_t>(16, 0));
        }
    }
    // Final sweep: every written block reads back from its home
    // shard, whichever that is.
    for (const auto &[addr, v] : shadow)
        EXPECT_EQ(h.read(addr), v);

    // The traffic genuinely spanned every shard.
    for (unsigned s = 0; s < shards; ++s)
        EXPECT_GT(h.sharded().dispatched(s), 0u)
            << "shard " << s << " saw no requests";
}

// ---------------------------------------------------------------------------
// Full-system aggregation and serialisation.

TEST(ShardedSystem, AggregationEqualsPerShardSums)
{
    sim::SimConfig cfg = shardedConfig(3);
    cfg.obs.profileRequests = true;
    sim::System sys(cfg, workload::mixProfiles("Mix3"));
    sim::RunResult r = sys.run();

    core::ShardedOram *sh = sys.sharded();
    ASSERT_NE(sh, nullptr);
    ASSERT_EQ(r.shards, 3u);
    ASSERT_EQ(r.shardDispatched.size(), 3u);

    std::uint64_t real = 0, dummy = 0, dispatched = 0, skipped = 0;
    std::uint64_t completed = 0, eff_total = 0;
    std::size_t peak = 0;
    std::vector<std::uint64_t> skips;
    for (unsigned s = 0; s < 3; ++s) {
        const core::OramController &c = sh->shard(s);
        real += c.realAccesses();
        dummy += c.dummyAccessesRun();
        skipped += c.mergedLevelsSkipped();
        dispatched += sh->dispatched(s);
        EXPECT_EQ(r.shardDispatched[s], sh->dispatched(s));
        EXPECT_EQ(r.shardRealAccesses[s], c.realAccesses());
        EXPECT_EQ(r.shardDummyAccesses[s], c.dummyAccessesRun());
        peak = std::max(peak, sh->shard(s).stash().peakSize());
        const auto &per_level = c.mergeSkipsPerLevel();
        if (skips.size() < per_level.size())
            skips.resize(per_level.size(), 0);
        for (std::size_t l = 0; l < per_level.size(); ++l)
            skips[l] += per_level[l];

        obs::RequestProfiler *prof = sys.store(s).profiler.get();
        ASSERT_NE(prof, nullptr);
        completed += prof->completed();
        eff_total += prof->effectiveness().totalAccesses;
    }

    // The RunResult is exactly the sum (or max) of the per-shard
    // snapshots — nothing double-counted, nothing dropped.
    EXPECT_EQ(r.realAccesses, real);
    EXPECT_EQ(r.dummyAccesses, dummy);
    EXPECT_EQ(r.mergedLevelsSkipped, skipped);
    EXPECT_EQ(r.mergeSkipsPerLevel, skips);
    EXPECT_EQ(r.stashPeak, peak);
    // Every LLC request was dispatched to exactly one shard.
    EXPECT_EQ(dispatched, r.llcRequests);
    // Profiler rollup: merged histogram count equals the per-shard
    // completion sum, as do the effectiveness counters.
    EXPECT_TRUE(r.profiled);
    EXPECT_EQ(r.profiledRequests, completed);
    EXPECT_EQ(r.profileEffectiveness.totalAccesses, eff_total);
    EXPECT_EQ(r.profileEffectiveness.totalAccesses, real + dummy);
}

TEST(ShardedSystem, ShardJsonBlockGatedOnShardCount)
{
    sim::RunResult sharded = sim::runMix(shardedConfig(4), "Mix3");
    JsonValue doc = JsonValue::parse(sim::toJson(sharded));
    const JsonValue *block = doc.find("shard");
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(block->at("shards").asUint64(), 4u);
    EXPECT_EQ(block->at("shard_dispatched").size(), 4u);
    EXPECT_EQ(block->at("shard_real_accesses").size(), 4u);
    EXPECT_EQ(block->at("shard_dummy_accesses").size(), 4u);
    EXPECT_EQ(block->at("shard_avg_llc_latency_ns").size(), 4u);

    sim::RunResult single = sim::runMix(shardedConfig(1), "Mix3");
    JsonValue sdoc = JsonValue::parse(sim::toJson(single));
    EXPECT_EQ(sdoc.find("shard"), nullptr);
}

TEST(ShardedResilience, PerShardRetryStatsSumToAggregate)
{
    // Sharding (PR-7) composed with the fault/retry stack (PR-5):
    // four shards on the network store, each behind its own injector
    // and retry layer, with enough loss that retries genuinely fire.
    sim::SimConfig cfg = shardedConfig(4);
    cfg.faults.lossRate = 0.05;
    cfg.faults.seed = 99;
    cfg.retry.maxRetries = 8; // timeoutUs = 0: backend-derived deadline
    sim::System sys(cfg, workload::mixProfiles("Mix3"));
    sim::RunResult r = sys.run();

    // The run completed: every LLC request was dispatched and no
    // request ran out of retry budget.
    EXPECT_FALSE(r.hitTickLimit);
    EXPECT_EQ(r.llcRequests, 4u * 60u);
    EXPECT_EQ(r.retryExhausted, 0u);
    ASSERT_TRUE(r.faultsEnabled);
    ASSERT_TRUE(r.retryEnabled);

    std::uint64_t retries = 0, timeouts = 0, losses = 0;
    for (unsigned s = 0; s < 4; ++s) {
        mem::ResilientBackend *res = sys.store(s).stack.resilient();
        ASSERT_NE(res, nullptr) << "shard " << s;
        retries += res->retries();
        timeouts += res->timeouts();
        mem::FaultInjector *inj = sys.store(s).stack.injector();
        ASSERT_NE(inj, nullptr) << "shard " << s;
        losses += inj->lossInjected();
    }
    // Aggregates are exactly the per-shard sums, and the injected
    // losses actually exercised the retry path.
    EXPECT_EQ(r.retryAttempts, retries);
    EXPECT_EQ(r.retryTimeouts, timeouts);
    EXPECT_EQ(r.faultLossInjected, losses);
    EXPECT_GT(losses, 0u);
    EXPECT_GT(retries, 0u);
}

TEST(ShardedSystem, StoreLayersFollowConfig)
{
    // One store per shard (one when unsharded), each built with the
    // same layers: a DRAM model only on the DRAM backend, and the
    // injector plus retry layer only with faults on.
    for (sim::BackendKind kind :
         {sim::BackendKind::dram, sim::BackendKind::net}) {
        for (bool faults : {false, true}) {
            for (unsigned shards : {1u, 4u}) {
                SCOPED_TRACE(std::string(sim::backendKindName(kind)) +
                             (faults ? " faults " : " clean ") +
                             std::to_string(shards));
                sim::SimConfig cfg = shardedConfig(shards);
                cfg.backendKind = kind;
                if (faults) {
                    cfg.faults.lossRate = 0.01;
                    cfg.faults.seed = 4242;
                }
                sim::System sys(cfg, workload::mixProfiles("Mix3"));
                ASSERT_EQ(sys.numStores(), shards);
                EXPECT_EQ(sys.controller() != nullptr, shards == 1);
                EXPECT_EQ(sys.sharded() != nullptr, shards > 1);

                std::set<std::uint64_t> seeds;
                for (unsigned s = 0; s < shards; ++s) {
                    const sim::MemoryStack &st = sys.store(s).stack;
                    EXPECT_EQ(st.dram() != nullptr,
                              kind == sim::BackendKind::dram);
                    EXPECT_STREQ(st.base().kind(),
                                 sim::backendKindName(kind));
                    ASSERT_EQ(st.injector() != nullptr, faults);
                    ASSERT_EQ(st.resilient() != nullptr, faults);
                    mem::MemoryBackend *top = &st.base();
                    if (faults)
                        top = st.resilient();
                    EXPECT_EQ(&st.top(), top);
                    if (faults)
                        seeds.insert(st.injector()->params().seed);
                }
                if (!faults)
                    continue;
                if (shards == 1) {
                    // Unsharded runs inject with the raw seed.
                    EXPECT_EQ(*seeds.begin(), cfg.faults.seed);
                } else {
                    // Sharded runs derive one seed per shard.
                    EXPECT_EQ(seeds.size(), shards);
                    EXPECT_EQ(seeds.count(cfg.faults.seed), 0u);
                }
            }
        }
    }
}

TEST(ShardedSystem, SweepByteIdenticalAcrossJobs)
{
    auto points = [] {
        std::vector<sim::SweepPoint> ps;
        ps.push_back(sim::pointFromMix("net_s2", shardedConfig(2),
                                       "Mix3"));
        ps.push_back(sim::pointFromMix("net_s4", shardedConfig(4),
                                       "Mix3"));
        sim::SimConfig dram_cfg = shardedConfig(2);
        dram_cfg.backendKind = sim::BackendKind::dram;
        ps.push_back(
            sim::pointFromMix("dram_s2", dram_cfg, "Mix3"));
        return ps;
    };

    sim::SweepOptions seq;
    seq.jobs = 1;
    auto sequential = sim::SweepRunner(seq).run(points());
    sim::SweepOptions par;
    par.jobs = 4;
    auto parallel = sim::SweepRunner(par).run(points());

    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        ASSERT_TRUE(sequential[i].ok) << sequential[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        // Byte-identical JSON: shard seeding and dispatch are pure
        // functions of the config, not of worker scheduling.
        EXPECT_EQ(sim::toJson(sequential[i].result),
                  sim::toJson(parallel[i].result))
            << sequential[i].name;
    }
}

} // anonymous namespace
} // namespace fp
