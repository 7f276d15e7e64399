/**
 * @file
 * Functional tests of the baseline Path ORAM engine: the RAM
 * interface contract (read-your-writes under random workloads), the
 * path invariant, stash behaviour, dummy accesses and the access
 * trace shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "oram/path_oram.hh"
#include "oram/stash.hh"
#include "oram/treetop_cache.hh"
#include "util/random.hh"

namespace fp::oram
{
namespace
{

OramParams
smallParams(unsigned leaf_level = 6, std::size_t payload = 8,
            bool encrypt = false)
{
    OramParams p;
    p.leafLevel = leaf_level;
    p.z = 4;
    p.payloadBytes = payload;
    p.stashCapacity = 200;
    p.encrypt = encrypt;
    p.seed = 1234;
    return p;
}

std::vector<std::uint8_t>
valueFor(std::uint64_t x, std::size_t n = 8)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>((x >> (8 * (i % 8))) + i);
    return v;
}

/** Check the Path ORAM invariant: every mapped block is in the stash
 *  or on the path of its current label. */
void
checkInvariant(PathOram &oram, const std::vector<BlockAddr> &addrs)
{
    for (BlockAddr a : addrs) {
        if (!oram.positionMap().contains(a))
            continue;
        LeafLabel l = oram.positionMap().get(a);
        if (oram.stash().contains(a))
            continue;
        bool on_path = false;
        for (BucketIndex idx : oram.geometry().pathIndices(l)) {
            mem::Bucket bucket = oram.store().readBucket(idx);
            for (const auto &blk : bucket.blocks()) {
                if (blk.addr == a) {
                    EXPECT_EQ(blk.leaf, l)
                        << "stale label in tree for " << a;
                    on_path = true;
                }
            }
        }
        EXPECT_TRUE(on_path)
            << "block " << a << " neither stashed nor on path " << l;
    }
}

TEST(PathOram, FreshReadIsZero)
{
    PathOram oram(smallParams());
    EXPECT_EQ(oram.read(42),
              std::vector<std::uint8_t>(8, 0));
}

TEST(PathOram, ReadYourWrite)
{
    PathOram oram(smallParams());
    oram.write(7, valueFor(7));
    EXPECT_EQ(oram.read(7), valueFor(7));
}

TEST(PathOram, WriteReturnsOldValue)
{
    PathOram oram(smallParams());
    oram.write(3, valueFor(1));
    auto v2 = valueFor(2);
    auto old = oram.access(Op::write, 3, &v2);
    EXPECT_EQ(old, valueFor(1));
    EXPECT_EQ(oram.read(3), valueFor(2));
}

TEST(PathOram, RandomWorkloadMatchesReferenceMap)
{
    PathOram oram(smallParams());
    std::map<BlockAddr, std::vector<std::uint8_t>> ref;
    Rng rng(99);
    std::vector<BlockAddr> addrs;
    for (int i = 0; i < 2000; ++i) {
        BlockAddr a = rng.uniformInt(64);
        if (rng.chance(0.5)) {
            auto v = valueFor(rng());
            oram.write(a, v);
            ref[a] = v;
        } else {
            auto expect = ref.count(a)
                              ? ref[a]
                              : std::vector<std::uint8_t>(8, 0);
            EXPECT_EQ(oram.read(a), expect) << "addr " << a;
        }
        addrs.push_back(a);
    }
    checkInvariant(oram, addrs);
}

TEST(PathOram, EncryptedWorkload)
{
    PathOram oram(smallParams(5, 16, /*encrypt=*/true));
    std::map<BlockAddr, std::vector<std::uint8_t>> ref;
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        BlockAddr a = rng.uniformInt(32);
        if (rng.chance(0.5)) {
            auto v = valueFor(rng(), 16);
            oram.write(a, v);
            ref[a] = v;
        } else if (ref.count(a)) {
            EXPECT_EQ(oram.read(a), ref[a]);
        }
    }
}

TEST(PathOram, InvariantHoldsThroughout)
{
    PathOram oram(smallParams(5));
    Rng rng(17);
    std::vector<BlockAddr> addrs;
    for (int i = 0; i < 300; ++i) {
        BlockAddr a = rng.uniformInt(40);
        oram.write(a, valueFor(a));
        addrs.push_back(a);
        if (i % 50 == 49)
            checkInvariant(oram, addrs);
    }
}

TEST(PathOram, StashStaysBounded)
{
    PathOram oram(smallParams(8));
    Rng rng(23);
    for (int i = 0; i < 3000; ++i)
        oram.write(rng.uniformInt(400), valueFor(i));
    // Z=4, 50%-style load: the stash should stay tiny relative to
    // the working set; overflows of the 200 soft cap must not occur.
    EXPECT_EQ(oram.stash().overflowEvents(), 0u);
    EXPECT_LT(oram.stash().peakSize(), 150u);
}

TEST(PathOram, StashHitReturnsWithoutPathAccess)
{
    auto params = smallParams();
    PathOram oram(params);
    oram.write(5, valueFor(5));
    // Force the block into the stash by accessing it, then check the
    // shortcut: a stash-resident block answers without tree traffic.
    oram.read(5);
    if (oram.stash().contains(5)) {
        auto reads_before = oram.store().readCount();
        oram.read(5);
        EXPECT_EQ(oram.store().readCount(), reads_before);
        EXPECT_GT(oram.stashHits(), 0u);
    }
}

TEST(PathOram, TraceCoversFullPath)
{
    PathOram oram(smallParams(4));
    oram.setTraceEnabled(true);
    oram.write(1, valueFor(1));
    ASSERT_FALSE(oram.trace().empty());
    const AccessTrace &tr = oram.trace().back();
    EXPECT_EQ(tr.bucketsRead.size(), oram.geometry().numLevels());
    EXPECT_EQ(tr.bucketsWritten.size(), oram.geometry().numLevels());
    // Read is root-first; write is leaf-first.
    EXPECT_EQ(tr.bucketsRead.front(), 0u);
    EXPECT_EQ(tr.bucketsWritten.back(), 0u);
    // Both cover exactly the labelled path.
    auto path = oram.geometry().pathIndices(tr.label);
    EXPECT_EQ(tr.bucketsRead, path);
}

TEST(PathOram, DummyAccessKeepsState)
{
    PathOram oram(smallParams());
    oram.write(9, valueFor(9));
    for (int i = 0; i < 50; ++i)
        oram.dummyAccess();
    EXPECT_EQ(oram.read(9), valueFor(9));
}

TEST(PathOram, RemapsOnEveryAccess)
{
    auto params = smallParams(10);
    params.stashShortcut = false; // force a full access every time
    PathOram oram(params);
    oram.write(1, valueFor(1));
    std::set<LeafLabel> labels;
    for (int i = 0; i < 20; ++i) {
        labels.insert(oram.positionMap().get(1));
        oram.read(1);
    }
    EXPECT_GT(labels.size(), 5u); // 20 draws over 1024 leaves
}

TEST(PathOram, CountsAccesses)
{
    PathOram oram(smallParams());
    oram.write(1, valueFor(1));
    oram.read(1);
    oram.dummyAccess();
    EXPECT_EQ(oram.accessCount(), 2u);
}

// --- parameterized functional sweep -------------------------------------------

struct OramSweep
{
    unsigned leafLevel;
    unsigned z;
    std::size_t payload;
    bool encrypt;
    bool shortcut;

    friend std::ostream &
    operator<<(std::ostream &os, const OramSweep &s)
    {
        os << "L" << s.leafLevel << "_Z" << s.z << "_p" << s.payload
           << (s.encrypt ? "_enc" : "_plain")
           << (s.shortcut ? "_sc" : "_nosc");
        return os;
    }
};

class PathOramSweep : public ::testing::TestWithParam<OramSweep>
{
};

TEST_P(PathOramSweep, RandomWorkloadContract)
{
    const OramSweep &s = GetParam();
    OramParams params;
    params.leafLevel = s.leafLevel;
    params.z = s.z;
    params.payloadBytes = s.payload;
    params.encrypt = s.encrypt;
    params.stashShortcut = s.shortcut;
    params.seed = 9090 + s.leafLevel + s.z;
    PathOram oram(params);

    std::map<BlockAddr, std::vector<std::uint8_t>> ref;
    Rng rng(100 + s.leafLevel * 3 + s.z);
    const std::uint64_t space =
        std::min<std::uint64_t>(40, oram.geometry().numLeaves());
    for (int i = 0; i < 400; ++i) {
        BlockAddr a = rng.uniformInt(space);
        if (rng.chance(0.5)) {
            std::vector<std::uint8_t> v(s.payload);
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng());
            oram.write(a, v);
            ref[a] = v;
        } else {
            auto expect =
                ref.count(a)
                    ? ref[a]
                    : std::vector<std::uint8_t>(s.payload, 0);
            ASSERT_EQ(oram.read(a), expect)
                << "addr " << a << " op " << i;
        }
    }
    EXPECT_EQ(oram.stash().overflowEvents(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PathOramSweep,
    ::testing::Values(OramSweep{2, 4, 8, false, true},
                      OramSweep{4, 2, 8, false, true},
                      OramSweep{4, 8, 8, false, true},
                      OramSweep{6, 4, 0, false, true},
                      OramSweep{6, 4, 64, true, true},
                      OramSweep{8, 4, 8, false, false},
                      OramSweep{10, 3, 16, true, false},
                      OramSweep{12, 4, 8, false, true}),
    [](const ::testing::TestParamInfo<OramSweep> &info) {
        std::ostringstream os;
        os << info.param;
        return os.str();
    });

// --- treetop cache sizing ----------------------------------------------------

TEST(TreetopCache, LevelsForBudget)
{
    mem::TreeGeometry geo(24);
    // 1 MB / 256 B buckets = 4096 frames -> levels 0..11 (4095).
    TreetopCache cache(geo, 256, 1 << 20);
    EXPECT_EQ(cache.numCachedLevels(), 12u);
    EXPECT_TRUE(cache.covers(0));
    EXPECT_TRUE(cache.covers(11));
    EXPECT_FALSE(cache.covers(12));
    EXPECT_EQ(cache.sizeBytes(), 4095u * 256u);
}

TEST(TreetopCache, ZeroBudget)
{
    mem::TreeGeometry geo(8);
    TreetopCache cache(geo, 256, 0);
    EXPECT_EQ(cache.numCachedLevels(), 0u);
    EXPECT_FALSE(cache.covers(0));
}

TEST(TreetopCache, BudgetBeyondTree)
{
    mem::TreeGeometry geo(3);
    TreetopCache cache(geo, 256, 1 << 20);
    EXPECT_EQ(cache.numCachedLevels(), geo.numLevels());
}

TEST(Stash, EvictionSelectsCandidatesInAddressOrder)
{
    // Eviction must not depend on unordered_map iteration order:
    // with more eligible blocks than slots, the lowest addresses win,
    // regardless of insertion order.
    mem::TreeGeometry geo(6);
    Stash stash(geo, 200);
    // All blocks mapped to leaf 0 are eligible for level 0 (root) of
    // any path. Insert in a scrambled order.
    for (BlockAddr addr : {41u, 7u, 23u, 3u, 55u, 12u}) {
        mem::Block b;
        b.addr = addr;
        b.leaf = 0;
        stash.insert(std::move(b));
    }
    auto evicted = stash.evictForBucket(/*path_label=*/0,
                                        /*level=*/0,
                                        /*max_blocks=*/4);
    ASSERT_EQ(evicted.size(), 4u);
    EXPECT_EQ(evicted[0].addr, 3u);
    EXPECT_EQ(evicted[1].addr, 7u);
    EXPECT_EQ(evicted[2].addr, 12u);
    EXPECT_EQ(evicted[3].addr, 23u);
    // The two highest addresses stay behind.
    EXPECT_TRUE(stash.contains(41));
    EXPECT_TRUE(stash.contains(55));
}

TEST(Stash, EvictionIsInsertionOrderIndependent)
{
    mem::TreeGeometry geo(6);
    std::vector<BlockAddr> addrs = {9, 2, 31, 17, 5, 44, 28, 1};
    auto evict = [&](const std::vector<BlockAddr> &order) {
        Stash stash(geo, 200);
        for (BlockAddr a : order) {
            mem::Block b;
            b.addr = a;
            b.leaf = 0;
            stash.insert(std::move(b));
        }
        std::vector<BlockAddr> out;
        for (const auto &b : stash.evictForBucket(0, 0, 5))
            out.push_back(b.addr);
        return out;
    };
    auto forward = evict(addrs);
    std::reverse(addrs.begin(), addrs.end());
    auto backward = evict(addrs);
    EXPECT_EQ(forward, backward);
    EXPECT_EQ(forward,
              (std::vector<BlockAddr>{1, 2, 5, 9, 17}));
}

} // anonymous namespace
} // namespace fp::oram
