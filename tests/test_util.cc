/**
 * @file
 * Unit tests for the util substrate: bit ops, RNG, statistics, the
 * event queue, table rendering and CLI parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/bitops.hh"
#include "util/cli.hh"
#include "util/event_queue.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/stat_tests.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/types.hh"

namespace fp
{
namespace
{

// --- bitops -------------------------------------------------------------

TEST(Bitops, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ULL << 63));
    EXPECT_FALSE(isPow2((1ULL << 63) + 1));
}

TEST(Bitops, BitWidth)
{
    EXPECT_EQ(bitWidth(0), 0u);
    EXPECT_EQ(bitWidth(1), 1u);
    EXPECT_EQ(bitWidth(2), 2u);
    EXPECT_EQ(bitWidth(255), 8u);
    EXPECT_EQ(bitWidth(256), 9u);
    EXPECT_EQ(bitWidth(~0ULL), 64u);
}

TEST(Bitops, Log2)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(7), 2u);
    EXPECT_EQ(log2Floor(8), 3u);
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(7), 3u);
    EXPECT_EQ(log2Ceil(8), 3u);
    EXPECT_EQ(log2Ceil(9), 4u);
}

TEST(Bitops, ExtractBits)
{
    EXPECT_EQ(extractBits(0xABCD, 4, 8), 0xBCULL);
    EXPECT_EQ(extractBits(0xFF, 0, 4), 0xFULL);
    EXPECT_EQ(extractBits(0xFF, 8, 4), 0ULL);
    EXPECT_EQ(extractBits(~0ULL, 0, 64), ~0ULL);
}

TEST(Bitops, RoundUpPow2)
{
    EXPECT_EQ(roundUpPow2(0, 8), 0ULL);
    EXPECT_EQ(roundUpPow2(1, 8), 8ULL);
    EXPECT_EQ(roundUpPow2(8, 8), 8ULL);
    EXPECT_EQ(roundUpPow2(9, 8), 16ULL);
}

// --- types --------------------------------------------------------------

TEST(Types, TimeConversions)
{
    EXPECT_EQ(periodFromMHz(2000.0), 500u); // 2 GHz -> 500 ps
    EXPECT_EQ(periodFromMHz(800.0), 1250u); // DDR3-1600 clock
    EXPECT_EQ(nsToTicks(1.0), 1000u);
    EXPECT_DOUBLE_EQ(ticksToNs(1500), 1.5);
}

// --- rng ----------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntRoughlyUniform)
{
    Rng rng(11);
    constexpr int buckets = 16;
    constexpr int n = 160000;
    int counts[buckets] = {};
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(buckets)];
    // Chi-square with 15 dof; 99.9 percentile ~ 37.7.
    double chi2 = 0.0;
    double expect = static_cast<double>(n) / buckets;
    for (int c : counts)
        chi2 += (c - expect) * (c - expect) / expect;
    EXPECT_LT(chi2, 37.7);
}

TEST(Rng, UniformRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniformRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, UniformDoubleInUnit)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.uniformDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, GeometricMean)
{
    Rng rng(13);
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(10.0));
    double mean = sum / n;
    EXPECT_NEAR(mean, 10.0, 0.5);
}

TEST(Rng, GeometricMinimumOne)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(1.0), 1u);
}

TEST(Rng, ForkIndependentStreams)
{
    Rng a(21);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == child();
    EXPECT_LT(same, 2);
}

TEST(Zipf, UniformWhenAlphaZero)
{
    Rng rng(23);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 700);
}

TEST(Zipf, SkewPrefersLowRanks)
{
    Rng rng(29);
    ZipfSampler z(1000, 1.0);
    int head = 0, tail = 0;
    for (int i = 0; i < 100000; ++i) {
        auto s = z.sample(rng);
        if (s < 10)
            ++head;
        if (s >= 990)
            ++tail;
    }
    EXPECT_GT(head, 10 * tail);
}

// --- stats --------------------------------------------------------------

TEST(Stats, AverageBasics)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_EQ(a.count(), 3u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h(4, 10.0);
    h.sample(5.0);   // bucket 0
    h.sample(15.0);  // bucket 1
    h.sample(39.9);  // bucket 3
    h.sample(100.0); // overflow
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_NEAR(h.mean(), (5.0 + 15.0 + 39.9 + 100.0) / 4.0, 1e-9);
}

TEST(Stats, HistogramPercentile)
{
    Histogram h(100, 1.0);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 2.0);
}

TEST(Stats, HistogramUnderflow)
{
    Histogram h(4, 10.0);
    h.sample(-1.0);
    h.sample(-100.0);
    h.sample(5.0);
    // Negative samples are counted separately, not folded into
    // bucket 0, so bucket 0 reflects only genuine [0, width) samples.
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), -100.0);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Stats, HistogramPercentileZeroIsMinimum)
{
    Histogram h(10, 10.0);
    h.sample(7.0);
    h.sample(42.0);
    h.sample(93.0);
    // percentile(0.0) must be the exact minimum, not the first
    // occupied bucket's edge (which would be 0.0 here).
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 93.0);
}

TEST(Stats, HistogramPercentileWithUnderflow)
{
    Histogram h(10, 1.0);
    h.sample(-5.0);
    h.sample(-3.0);
    h.sample(2.5);
    h.sample(8.5);
    // Half the mass is negative: low fractions resolve to the exact
    // minimum, fractions above 0.5 walk the positive buckets.
    EXPECT_DOUBLE_EQ(h.percentile(0.25), -5.0);
    EXPECT_GE(h.percentile(0.9), 2.0);
}

TEST(Stats, HistogramTailPercentileInterpolates)
{
    Histogram h(10, 10.0);
    // 1000 evenly spread samples over [0, 100): exact quantiles are
    // known, and p99.9 must resolve inside the last bucket instead of
    // collapsing onto its edge.
    for (int i = 0; i < 1000; ++i)
        h.sample(i * 0.1);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 0.5);
    EXPECT_NEAR(h.percentile(0.95), 95.0, 0.5);
    EXPECT_NEAR(h.percentile(0.999), 99.9, 0.5);
    EXPECT_GT(h.percentile(0.999), h.percentile(0.99));
    EXPECT_LE(h.percentile(0.999), h.max());
}

TEST(Stats, HistogramMergeMatchesConcatenation)
{
    Histogram a(16, 5.0), b(16, 5.0), both(16, 5.0);
    Rng rng(99);
    for (int i = 0; i < 400; ++i) {
        double v = rng.uniformDouble() * 100.0 - 10.0; // underflow too
        (i % 2 ? a : b).sample(v);
        both.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.underflow(), both.underflow());
    EXPECT_EQ(a.overflow(), both.overflow());
    EXPECT_EQ(a.buckets(), both.buckets());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    EXPECT_DOUBLE_EQ(a.min(), both.min());
    EXPECT_DOUBLE_EQ(a.max(), both.max());
    for (double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(a.percentile(q), both.percentile(q)) << q;
}

TEST(Stats, AverageMerge)
{
    Average a, b;
    a.sample(1.0);
    a.sample(3.0);
    b.sample(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);

    Average empty;
    a.merge(empty); // merging nothing changes nothing
    EXPECT_EQ(a.count(), 3u);
    empty.merge(a); // merging into empty adopts the other side
    EXPECT_DOUBLE_EQ(empty.min(), 1.0);
    EXPECT_DOUBLE_EQ(empty.max(), 5.0);
    EXPECT_EQ(empty.count(), 3u);
}

TEST(Stats, GaugeSamplesAtRenderTime)
{
    int depth = 3;
    StatGroup g("gauged");
    g.regGauge("depth", [&depth] { return double(depth); }, "a gauge");
    std::ostringstream os1;
    g.print(os1);
    EXPECT_NE(os1.str().find("3"), std::string::npos);
    depth = 7;
    std::ostringstream os2;
    g.print(os2);
    EXPECT_NE(os2.str().find("7"), std::string::npos);
}

TEST(Stats, RegistryTracksLiveGroups)
{
    StatRegistry reg;
    StatRegistry::Scope scope(reg);
    EXPECT_EQ(reg.size(), 0u);
    {
        StatGroup g1("reg_a"), g2("reg_b");
        EXPECT_EQ(reg.size(), 2u);
        bool saw_a = false, saw_b = false;
        reg.forEach([&](const StatGroup &g) {
            saw_a = saw_a || g.name() == "reg_a";
            saw_b = saw_b || g.name() == "reg_b";
        });
        EXPECT_TRUE(saw_a);
        EXPECT_TRUE(saw_b);
    }
    EXPECT_EQ(reg.size(), 0u);
}

TEST(Stats, GroupsOutsideAnyScopeAreUnregistered)
{
    EXPECT_EQ(StatRegistry::current(), nullptr);
    StatGroup g("scopeless");
    StatRegistry reg;
    StatRegistry::Scope scope(reg);
    EXPECT_EQ(reg.size(), 0u);
}

TEST(Stats, ScopesNestAndRestore)
{
    StatRegistry outer_reg;
    StatRegistry::Scope outer(outer_reg);
    StatGroup g_outer("nest_outer");
    {
        StatRegistry inner_reg;
        StatRegistry::Scope inner(inner_reg);
        StatGroup g_inner("nest_inner");
        EXPECT_EQ(inner_reg.size(), 1u);
        EXPECT_EQ(outer_reg.size(), 1u);
    }
    EXPECT_EQ(StatRegistry::current(), &outer_reg);
    StatGroup g_again("nest_again");
    EXPECT_EQ(outer_reg.size(), 2u);
}

TEST(Stats, WriteJsonFieldsRoundTrips)
{
    Counter c;
    c.inc(41);
    Histogram h(4, 10.0);
    h.sample(-2.0);
    h.sample(15.0);
    StatGroup g("grp");
    g.regCounter("count", c, "a counter");
    g.regHistogram("hist", h, "a histogram");
    JsonWriter w;
    w.beginObject();
    g.writeJsonFields(w);
    w.endObject();

    JsonValue v = JsonValue::parse(w.str());
    EXPECT_EQ(v.at("grp.count").asUint64(), 41u);
    const JsonValue &hist = v.at("grp.hist");
    EXPECT_EQ(hist.at("underflow").asUint64(), 1u);
    EXPECT_EQ(hist.at("count").asUint64(), 2u);
    EXPECT_EQ(hist.at("buckets").at(1).asUint64(), 1u);
}

TEST(Stats, StatGroupPrints)
{
    Counter c;
    c.inc(5);
    Average a;
    a.sample(1.0);
    StatGroup g("grp");
    g.regCounter("count", c, "a counter");
    g.regAverage("avg", a, "an average");
    std::ostringstream os;
    g.print(os);
    EXPECT_NE(os.str().find("grp.count"), std::string::npos);
    EXPECT_NE(os.str().find("5"), std::string::npos);
    EXPECT_NE(os.str().find("a counter"), std::string::npos);
}

// --- json parser ---------------------------------------------------------

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e2").asNumber(), -250.0);
    EXPECT_EQ(JsonValue::parse("\"a b\"").asString(), "a b");
}

TEST(Json, ParsesNestedStructures)
{
    JsonValue v = JsonValue::parse(
        R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})");
    EXPECT_EQ(v.at("a").size(), 3u);
    EXPECT_EQ(v.at("a").at(1).asUint64(), 2u);
    EXPECT_TRUE(v.at("a").at(2).at("b").asBool());
    EXPECT_TRUE(v.at("c").at("d").isNull());
    EXPECT_EQ(v.at("e").asString(), "x");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParsesEscapesAndUnicode)
{
    JsonValue v = JsonValue::parse(R"("tab\tquote\"uA")");
    EXPECT_EQ(v.asString(), "tab\tquote\"uA");
}

TEST(Json, ObjectKeysKeepSourceOrder)
{
    JsonValue v = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, WriterOutputParsesBack)
{
    JsonWriter w;
    w.beginObject()
        .field("n", std::uint64_t{42})
        .field("f", 2.125)
        .field("s", "he\"llo")
        .field("b", true);
    w.key("arr").beginArray().value(1).value(2).endArray();
    w.endObject();

    JsonValue v = JsonValue::parse(w.str());
    EXPECT_EQ(v.at("n").asUint64(), 42u);
    EXPECT_DOUBLE_EQ(v.at("f").asNumber(), 2.125);
    EXPECT_EQ(v.at("s").asString(), "he\"llo");
    EXPECT_TRUE(v.at("b").asBool());
    EXPECT_EQ(v.at("arr").size(), 2u);
}

// --- event queue ----------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(10, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] {
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, RunLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.run(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, Step)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunWhile)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(i, [&] { ++fired; });
    eq.runWhile([&] { return fired < 3; });
    EXPECT_EQ(fired, 3);
}

// --- periodic polls -------------------------------------------------------

TEST(EventQueue, PollFiresOnGridUntilItReturnsFalse)
{
    EventQueue eq;
    std::vector<Tick> fires;
    eq.schedulePoll(7, 10, [&] {
        fires.push_back(eq.now());
        return fires.size() < 3;
    });
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{7, 17, 27}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, NewPollFiresOnItsFirstTickAheadOfLaterEvents)
{
    // No poll may be skipped before it has fired once.
    EventQueue eq;
    std::vector<Tick> fires;
    eq.schedule(1000, [] {});
    eq.schedulePoll(7, 10, [&] {
        fires.push_back(eq.now());
        return false;
    });
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{7}));
}

TEST(EventQueue, IdlePollIsSkippedUpToTheNextEvent)
{
    // A poll that only re-arms costs nothing between events: it next
    // fires on its first grid tick after the event that changes its
    // answer, and a same-tick poll re-arm queues behind that event.
    EventQueue eq;
    bool open = false;
    std::vector<std::pair<Tick, char>> log;
    eq.schedulePoll(0, 10, [&] {
        if (!open)
            return true;
        log.emplace_back(eq.now(), 'p');
        return false;
    });
    eq.schedule(1'000'000, [&] {
        open = true;
        log.emplace_back(eq.now(), 'e');
    });
    const std::uint64_t executed = eq.run();
    EXPECT_EQ(log, (std::vector<std::pair<Tick, char>>{
                       {1'000'000, 'e'}, {1'000'000, 'p'}}));
    EXPECT_LT(executed, 10u);
}

TEST(EventQueue, PollDueOnAnEventsTickFiresBeforeIt)
{
    // The event is queued after the poll re-armed for tick 10, so the
    // poll's (idle) firing at 10 comes first and it acts at 20.
    EventQueue eq;
    bool open = false;
    std::vector<std::pair<Tick, char>> log;
    eq.schedulePoll(0, 10, [&] {
        if (!open)
            return true;
        log.emplace_back(eq.now(), 'p');
        return false;
    });
    eq.run(5);
    eq.schedule(10, [&] {
        open = true;
        log.emplace_back(eq.now(), 'e');
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<std::pair<Tick, char>>{{10, 'e'},
                                                        {20, 'p'}}));
}

/**
 * A seeded world of events and polls competing for credits, run
 * either on schedulePoll() or on a reference that re-schedules a
 * plain event every period. Only work that acts is logged, so the
 * two runs must log the same (tick, id) sequence.
 */
class PollWorld
{
  public:
    PollWorld(bool use_polls, std::uint64_t seed)
        : usePolls_(use_polls), rng_(seed)
    {
    }
    // Queued callbacks hold this object's address.
    PollWorld(const PollWorld &) = delete;
    PollWorld &operator=(const PollWorld &) = delete;

    /** Polls sharing a few periods and phases, plus seed events,
     *  registered outside any event. Without @p late_event the heap
     *  empties while polls whose credits never come still spin. */
    void
    populate(bool late_event)
    {
        for (int i = 0; i < 6; ++i)
            addPoll(rng_.uniformInt(8));
        for (int i = 0; i < 4; ++i)
            addEvent(rng_.uniformInt(40));
        if (late_event)
            addEvent(5900);
    }

    /** An event that acts at @p when, queued behind everything. */
    void
    addEvent(Tick when)
    {
        const int id = nextId_++;
        eq.schedule(when, [this, id] {
            log.emplace_back(eq.now(), id);
            if (rng_.chance(0.5))
                ++credits_[rng_.uniformInt(3)];
            act();
        });
    }

    EventQueue eq;
    std::vector<std::pair<Tick, int>> log;

  private:
    static constexpr Tick periods[] = {3, 4, 6, 12};

    void
    addPoll(Tick first)
    {
        const int id = nextId_++;
        const unsigned k = static_cast<unsigned>(rng_.uniformInt(3));
        const Tick period = periods[rng_.uniformInt(4)];
        PollFn fn = [this, id, k] {
            if (credits_[k] == 0)
                return true;
            --credits_[k];
            log.emplace_back(eq.now(), id);
            // Acting may open another poll's way, not only close it.
            if (rng_.chance(0.3))
                ++credits_[rng_.uniformInt(3)];
            act();
            return false;
        };
        if (usePolls_)
            eq.schedulePoll(first, period, std::move(fn));
        else
            rearm(first, period, std::move(fn));
    }

    void
    rearm(Tick when, Tick period, PollFn fn)
    {
        eq.schedule(when, [this, period, fn] {
            if (fn())
                rearm(eq.now() + period, period, fn);
        });
    }

    /** Follow-up work: events (same-tick ones included) and polls,
     *  registered from events and from polls alike. */
    void
    act()
    {
        if (budget_ == 0)
            return;
        --budget_;
        if (rng_.chance(0.7))
            addEvent(eq.now() +
                     (rng_.chance(0.25) ? 0 : rng_.uniformInt(200)));
        if (rng_.chance(0.35))
            addPoll(eq.now() + rng_.uniformInt(8));
    }

    bool usePolls_;
    Rng rng_;
    int credits_[3] = {0, 0, 0};
    int nextId_ = 0;
    int budget_ = 120;
};

TEST(EventQueue, PollsMatchPerPeriodReferenceOverRandomMixes)
{
    std::uint64_t ref_executed = 0, poll_executed = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        PollWorld ref(false, seed), polls(true, seed);
        ref.populate(seed % 2 == 0);
        polls.populate(seed % 2 == 0);
        // Truncate mid-run, then stop for good.
        Rng lr(seed * 31);
        const Tick cut = lr.uniformInt(1000);
        const Tick end = 6000 + lr.uniformInt(100);
        for (Tick limit : {cut, end}) {
            const std::uint64_t a = ref.eq.run(limit);
            const std::uint64_t b = polls.eq.run(limit);
            if (seed % 2 == 0) {
                ref_executed += a;
                poll_executed += b;
            }
            ASSERT_EQ(polls.log, ref.log);
            ASSERT_EQ(polls.eq.now(), ref.eq.now());
            ASSERT_EQ(polls.eq.size(), ref.eq.size());
            // Work queued from outside, after polls already pending on
            // its tick (see PollDueOnAnEventsTickFiresBeforeIt).
            const Tick at = limit + 1 + lr.uniformInt(12);
            ref.addEvent(at);
            polls.addEvent(at);
        }
    }
    // With a late event bounding every idle stretch, skipping must
    // save most firings, or the comparison would mean little.
    EXPECT_LT(poll_executed * 5, ref_executed);
}

TEST(EventQueue, StepLimitStopsOnTheSameTickAsThePerPeriodReference)
{
    // The full-system drive loop: step until now() passes a limit.
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        PollWorld ref(false, seed), polls(true, seed);
        ref.populate(seed % 2 == 0);
        polls.populate(seed % 2 == 0);
        const Tick limit = Rng(seed * 17).uniformInt(7000);
        while (!ref.eq.empty() && ref.eq.now() <= limit)
            ref.eq.step();
        while (!polls.eq.empty() && polls.eq.now() <= limit)
            polls.eq.step(limit);
        ASSERT_EQ(polls.log, ref.log);
        ASSERT_EQ(polls.eq.now(), ref.eq.now());
    }
}

// --- timer ----------------------------------------------------------------

TEST(Timer, FiresOnceAtDeadline)
{
    EventQueue eq;
    Timer t(eq);
    int fired = 0;
    t.armIn(100, [&] { ++fired; });
    EXPECT_TRUE(t.armed());
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.armed());
    eq.run(); // no residual events re-fire it
    EXPECT_EQ(fired, 1);
}

TEST(Timer, CancelBeforeFireSuppresses)
{
    EventQueue eq;
    Timer t(eq);
    int fired = 0;
    t.armIn(100, [&] { ++fired; });
    eq.run(50);
    t.cancel();
    EXPECT_FALSE(t.armed());
    eq.run();
    EXPECT_EQ(fired, 0);
    // The stale entry still drained from the queue (no leak).
    EXPECT_TRUE(eq.empty());
}

TEST(Timer, ReArmReplacesPendingCallback)
{
    EventQueue eq;
    Timer t(eq);
    int first = 0, second = 0;
    t.arm(100, [&] { ++first; });
    t.arm(200, [&] { ++second; });
    eq.run();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
}

TEST(Timer, ReArmSameTickRunsOnlyNewCallback)
{
    EventQueue eq;
    Timer t(eq);
    int first = 0, second = 0;
    t.arm(100, [&] { ++first; });
    // Same deadline, new callback: the old entry must no-op even
    // though both events sit at tick 100 (generation check, not
    // queue position, decides).
    t.arm(100, [&] { ++second; });
    eq.run();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
}

TEST(Timer, FireVsCancelSameTickIsSchedulingOrder)
{
    // Same-tick FIFO: an event scheduled BEFORE the timer was armed
    // runs first at that tick, so its cancel() wins...
    {
        EventQueue eq;
        Timer t(eq);
        int fired = 0;
        eq.schedule(100, [&] { t.cancel(); });
        t.arm(100, [&] { ++fired; });
        eq.run();
        EXPECT_EQ(fired, 0);
    }
    // ...and one scheduled AFTER loses: the timer fires first. The
    // deadline machinery relies on this being deterministic.
    {
        EventQueue eq;
        Timer t(eq);
        int fired = 0;
        t.arm(100, [&] { ++fired; });
        eq.schedule(100, [&] { t.cancel(); });
        eq.run();
        EXPECT_EQ(fired, 1);
    }
}

TEST(Timer, CallbackMayReArm)
{
    // Backoff chains re-arm the timer from inside its own callback
    // (deadline -> backoff -> deadline ...).
    EventQueue eq;
    Timer t(eq);
    std::vector<Tick> fires;
    std::function<void()> chain = [&] {
        fires.push_back(eq.now());
        if (fires.size() < 3)
            t.armIn(10, chain);
    };
    t.armIn(10, chain);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{10, 20, 30}));
    EXPECT_FALSE(t.armed());
}

TEST(Timer, MoveKeepsPendingFire)
{
    EventQueue eq;
    int fired = 0;
    Timer a(eq);
    a.armIn(5, [&] { ++fired; });
    Timer b = std::move(a); // e.g. rehash of a container of Pendings
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(b.armed());
}

TEST(Timer, DestructionCancels)
{
    EventQueue eq;
    int fired = 0;
    {
        Timer t(eq);
        t.armIn(5, [&] { ++fired; });
    }
    eq.run();
    EXPECT_EQ(fired, 0);
}

// --- table ----------------------------------------------------------------

TEST(Table, AlignsColumns)
{
    TextTable t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long_name", "2.50"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("long_name"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, Fmt)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(std::uint64_t{42}), "42");
}

// --- csv ------------------------------------------------------------------

TEST(Table, CsvEscaping)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"plain", "1"});
    t.addRow({"comma,inside", "quote\"inside"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "name,value\n"
                        "plain,1\n"
                        "\"comma,inside\",\"quote\"\"inside\"\n");
}

// --- statistical helpers ----------------------------------------------------

TEST(StatTests, ChiSquareUniformOnPerfectCounts)
{
    std::vector<std::uint64_t> counts(16, 100);
    EXPECT_DOUBLE_EQ(chiSquareUniform(counts), 0.0);
}

TEST(StatTests, ChiSquareDetectsSkew)
{
    std::vector<std::uint64_t> counts(16, 100);
    counts[0] = 400;
    EXPECT_GT(chiSquareUniform(counts), chiSquareCritical999(15));
}

TEST(StatTests, ChiSquareAcceptsRngOutput)
{
    Rng rng(71);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.uniformInt(1 << 20));
    EXPECT_LT(chiSquareTopBits(samples, 20, 4),
              chiSquareCritical999(15));
}

TEST(StatTests, CriticalValuesMonotone)
{
    double prev = 0.0;
    for (unsigned dof : {1u, 3u, 7u, 15u, 40u, 100u, 300u, 1000u}) {
        double v = chiSquareCritical999(dof);
        EXPECT_GT(v, prev);
        prev = v;
    }
    EXPECT_NEAR(chiSquareCritical999(15), 37.70, 0.01);
}

TEST(StatTests, SerialCorrelationNearZeroForRng)
{
    Rng rng(73);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.uniformDouble());
    EXPECT_LT(std::abs(serialCorrelation(xs)), 0.03);
}

TEST(StatTests, SerialCorrelationDetectsTrend)
{
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i)
        xs.push_back(static_cast<double>(i % 100));
    EXPECT_GT(serialCorrelation(xs), 0.9);
}

// --- cli ------------------------------------------------------------------

TEST(Cli, ParsesForms)
{
    // A bare boolean flag must be last or followed by another flag:
    // `--flag word` is by design parsed as flag=word.
    const char *argv[] = {"prog", "--a=1", "--b", "2", "pos1",
                          "--quiet=off", "--flag"};
    CliArgs args(7, const_cast<char **>(argv));
    EXPECT_EQ(args.getInt("a", 0), 1);
    EXPECT_EQ(args.getInt("b", 0), 2);
    EXPECT_TRUE(args.getBool("flag"));
    EXPECT_FALSE(args.getBool("quiet", true));
    EXPECT_FALSE(args.getBool("missing"));
    EXPECT_EQ(args.getString("missing", "d"), "d");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, Doubles)
{
    const char *argv[] = {"prog", "--x=2.5", "--h=0x10", "--e=1e3"};
    CliArgs args(4, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(args.getDouble("x", 0.0), 2.5);
    EXPECT_EQ(args.getInt("h", 0), 16);
    EXPECT_DOUBLE_EQ(args.getDouble("e", 0.0), 1000.0);
}

TEST(Cli, NamesKeepCommandLineOrder)
{
    const char *argv[] = {"prog", "--b=1", "--a", "2", "--b=3"};
    CliArgs args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.names(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(args.getInt("b", 0), 3);
}

TEST(CliDeath, MalformedValuesNameTheFlag)
{
    const char *argv[] = {"prog",      "--jobs=abc", "--min-ms=2x",
                          "--n=",      "--x=1.5e",   "--inf=inf",
                          "--big=99999999999999999999", "--csv=ture",
                          "--flag"};
    CliArgs args(9, const_cast<char **>(argv));
    EXPECT_EXIT(args.getInt("jobs", 0), testing::ExitedWithCode(1),
                "--jobs expects an integer .got 'abc'.");
    EXPECT_EXIT(args.getDouble("min-ms", 0.0),
                testing::ExitedWithCode(1),
                "--min-ms expects a number .got '2x'.");
    EXPECT_EXIT(args.getInt("n", 0), testing::ExitedWithCode(1),
                "--n expects an integer");
    EXPECT_EXIT(args.getDouble("x", 0.0), testing::ExitedWithCode(1),
                "--x expects a number");
    EXPECT_EXIT(args.getDouble("inf", 0.0), testing::ExitedWithCode(1),
                "--inf expects a number");
    EXPECT_EXIT(args.getInt("big", 0), testing::ExitedWithCode(1),
                "--big expects an integer");
    // A bare flag reads "true", which is no number either.
    EXPECT_EXIT(args.getInt("flag", 0), testing::ExitedWithCode(1),
                "--flag expects an integer");
    EXPECT_EXIT(args.getBool("csv"), testing::ExitedWithCode(1),
                "--csv expects true or false .got 'ture'.");
}

} // anonymous namespace
} // namespace fp
