/**
 * @file
 * Experiment-spec runtime tests: parse round-trips, grid expansion,
 * spec-hash stability, parse-time validation (malformed specs die
 * with a file:line diagnostic), provenance stamping into RunResult
 * JSON, byte-identical stdout and file outputs across --jobs, every
 * committed spec under experiments/ parsing cleanly, the one
 * configuration key table behaving alike for spec overrides and
 * command-line flags, and `variant` writing only the fields of its
 * expansion, so controller flags survive it.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/access_policy.hh"
#include "sim/scenario.hh"
#include "sim/spec_parse.hh"
#include "util/cli.hh"
#include "util/logging.hh"

#ifndef FP_EXPERIMENTS_DIR
#define FP_EXPERIMENTS_DIR "experiments"
#endif

namespace fp::sim
{
namespace
{

/** CliArgs from a flag list (argv[0] implied). */
class Args
{
  public:
    explicit Args(std::vector<std::string> flags) : flags_(std::move(flags))
    {
        argv_.push_back(const_cast<char *>("test"));
        for (const auto &f : flags_)
            argv_.push_back(const_cast<char *>(f.c_str()));
    }

    CliArgs
    cli() const
    {
        return CliArgs(static_cast<int>(argv_.size()),
                       const_cast<char **>(argv_.data()));
    }

  private:
    std::vector<std::string> flags_;
    std::vector<char *> argv_;
};

constexpr char kSmallSpec[] = R"({
  "name": "unit",
  "scenario": "sweep",
  "mixes": ["Mix3"],
  "base": {"requests": 40, "leaf-level": 10, "variant": "merge",
           "queue": 8},
  "grid": {"queue": [1, 8]},
  "smoke": {"args": [], "trace": false}
})";

TEST(SpecParse, RoundTripBaseOverrides)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    EXPECT_EQ(spec.name, "unit");
    EXPECT_EQ(spec.scenario, "sweep");
    ASSERT_EQ(spec.defaultMixes.size(), 1u);
    EXPECT_EQ(spec.defaultMixes[0], "Mix3");
    ASSERT_EQ(spec.grid.size(), 1u);
    EXPECT_EQ(spec.grid[0].key, "queue");
    EXPECT_EQ(spec.grid[0].values.size(), 2u);
    EXPECT_FALSE(spec.smokeTrace);

    // Applying the base overrides reproduces the hand-built config.
    SimConfig cfg = SimConfig::paperDefault();
    applyOverrides(cfg, spec.base, &spec.source);
    SimConfig want = withMergeOnly(SimConfig::paperDefault(), 8);
    want.requestsPerCore = 40;
    want.controller.oram.leafLevel = 10;
    EXPECT_EQ(cfg.requestsPerCore, want.requestsPerCore);
    EXPECT_EQ(cfg.controller.oram.leafLevel,
              want.controller.oram.leafLevel);
    EXPECT_EQ(cfg.controller.labelQueueSize,
              want.controller.labelQueueSize);
    EXPECT_EQ(cfg.controller.policy, want.controller.policy);
    EXPECT_FALSE(cfg.insecure);
}

TEST(SpecParse, PointAndParamAccessors)
{
    auto spec = parseSpecText(R"({
      "name": "p",
      "points": [
        {"name": "a", "set": {"variant": "traditional"}},
        {"name": "b", "mix": "Mix1",
         "set": {"variant": "mac", "cache-bytes": 131072}}
      ],
      "params": {"queues": [1, 2], "alpha": 0.5, "tag": "x",
                 "names": ["u", "v"]}
    })");
    ASSERT_EQ(spec.points.size(), 2u);
    EXPECT_EQ(spec.points[1].mix, "Mix1");
    EXPECT_EQ(spec.paramUintList("queues"),
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_DOUBLE_EQ(spec.paramNum("alpha", 0.0), 0.5);
    EXPECT_EQ(spec.paramStr("tag", ""), "x");
    EXPECT_EQ(spec.paramStrList("names"),
              (std::vector<std::string>{"u", "v"}));
    EXPECT_EQ(spec.paramUint("absent", 7), 7u);
}

TEST(SpecParse, GridExpansionCounts)
{
    auto spec = parseSpecText(R"({
      "name": "grid",
      "points": [
        {"name": "a", "set": {"variant": "merge"}},
        {"name": "b", "set": {"variant": "traditional"}}
      ],
      "grid": {"queue": [1, 8, 64], "requests": [40, 80]}
    })");
    SimConfig base = SimConfig::paperDefault();
    base.controller.oram.leafLevel = 10;
    auto points =
        expandSpecPoints(spec, base, {"Mix1", "Mix3"});
    // 2 points x (3 queue x 2 requests) x 2 mixes.
    EXPECT_EQ(points.size(), 2u * 6u * 2u);

    // A pure-grid spec still expands (anonymous base point).
    auto nopoints = parseSpecText(
        R"({"name": "g", "grid": {"requests": [40, 80, 120]}})");
    EXPECT_EQ(expandSpecPoints(nopoints, base, {"Mix3"}).size(), 3u);
}

TEST(SpecParse, HashStableAndPathIndependent)
{
    const std::string text = kSmallSpec;
    EXPECT_EQ(specHash(text), specHash(text));
    auto a = parseSpecText(text, "a.json");
    auto b = parseSpecText(text, "b/c.json");
    EXPECT_EQ(a.source.hash, b.source.hash);
    EXPECT_EQ(a.source.hash, specHash(text));
    EXPECT_NE(specHash(text), specHash(text + " "));
    // FNV-1a 64 of the empty string is the offset basis.
    EXPECT_EQ(specHash(""), 14695981039346656037ULL);
}

TEST(SpecParseDeath, MalformedSpecsDieWithLocation)
{
    // Not JSON at all.
    EXPECT_DEATH(parseSpecText("{nope", "bad.json"), "bad.json");
    // Missing the required name.
    EXPECT_DEATH(parseSpecText(R"({"scenario": "sweep"})"),
                 "missing the required \"name\"");
    // Unknown top-level key.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "gird": {}})"),
                 "gird");
    // Unknown override key, reported with its line.
    EXPECT_DEATH(parseSpecText("{\"name\": \"x\",\n"
                               " \"base\": {\"reqests\": 10}}",
                               "typo.json"),
                 "typo.json:2.*reqests");
    // Out-of-range grid value (validated at parse time).
    EXPECT_DEATH(parseSpecText(
                     R"({"name": "x", "grid": {"leaf-level": [3]}})"),
                 "leaf-level");
    // Conflicting overrides: a scheduler knob on the insecure
    // baseline.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "points": [
                     {"name": "p",
                      "set": {"insecure": true, "queue": 8}}]})"),
                 "insecure");
    // cache-bytes without a cache to size.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "base":
                     {"variant": "merge", "cache-bytes": 4096}})"),
                 "cache-bytes");
    // batch-size without the batched policy.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "base":
                     {"variant": "merge", "batch-size": 4}})"),
                 "batch");
    // Unknown mix name.
    EXPECT_DEATH(parseSpecText(
                     R"({"name": "x", "mixes": ["Mix99"]})"),
                 "Mix99");
}

TEST(Scenario, ProvenanceStampedIntoJson)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    RunResult r;
    EXPECT_EQ(toJson(r).find("spec_name"), std::string::npos);
    r.specName = spec.name;
    r.specHash = spec.source.hash;
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"spec_name\":\"unit\""),
              std::string::npos);
    EXPECT_NE(json.find("\"spec_hash\""), std::string::npos);
}

TEST(Scenario, SweepStdoutByteIdenticalAcrossJobs)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    auto run = [&](const char *jobs) {
        Args args({std::string("--jobs=") + jobs});
        auto cli = args.cli();
        testing::internal::CaptureStdout();
        EXPECT_EQ(runSpec(spec, cli), 0);
        return testing::internal::GetCapturedStdout();
    };
    const std::string seq = run("1");
    const std::string par = run("4");
    EXPECT_FALSE(seq.empty());
    EXPECT_EQ(seq, par);
}

TEST(Scenario, ContextHonorsCliOverridesAndQuick)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    {
        Args args({"--requests=77", "--leaf-level=12"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.base.requestsPerCore, 77u);
        EXPECT_EQ(ctx.base.controller.oram.leafLevel, 12u);
    }
    {
        Args args({"--quick"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.base.requestsPerCore, 150u);
        EXPECT_EQ(ctx.base.controller.oram.leafLevel, 14u);
    }
    {
        // --quick wins over --requests, whatever the flag order.
        Args args({"--requests=77", "--quick"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.base.requestsPerCore, 150u);
    }
    {
        Args args({"--mixes=Mix1,Mix2"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.mixes,
                  (std::vector<std::string>{"Mix1", "Mix2"}));
    }
}

TEST(Scenario, PolicyFlagsAreForcedOntoEveryPoint)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    Args args({"--batch-size=4", "--policy=batched"});
    auto cli = args.cli();
    ScenarioContext ctx(spec, cli);
    EXPECT_EQ(ctx.policyOverride, "batched");
    EXPECT_EQ(ctx.batchSizeOverride, 4u);
    EXPECT_EQ(ctx.base.controller.policy, core::PolicyKind::batched);
    EXPECT_EQ(ctx.base.controller.batchSize, 4u);
    // A series transform sets the policy again; applyPolicy puts the
    // flags back.
    const SimConfig point =
        ctx.applyPolicy(withTraditional(ctx.base));
    EXPECT_EQ(point.controller.policy, core::PolicyKind::batched);
    EXPECT_EQ(point.controller.batchSize, 4u);
}

TEST(Scenario, ControllerFlagsSurviveVariantPoints)
{
    // Every smoke point sets `variant`; a flag must still reach each
    // point as if it were applied after the point's own keys.
    const auto spec =
        parseSpecFile(std::string(FP_EXPERIMENTS_DIR) + "/smoke.json");
    Args plain_args({});
    auto plain_cli = plain_args.cli();
    const ScenarioContext plain(spec, plain_cli);
    const auto plain_points =
        expandSpecPoints(plain.spec, plain.base, plain.mixes);
    ASSERT_EQ(plain_points.size(), 5 * plain.mixes.size());

    // One flag per controller field that no preset writes, each with
    // a non-default value.
    for (const char *flag :
         {"--aging-threshold=9", "--dummy-policy=realFirst",
          "--layout=linear", "--integrity=true",
          "--periodic-interval-ticks=123456", "--plb-entries=64",
          "--recursion-depth=2", "--recursion-fanout=16"}) {
        SCOPED_TRACE(flag);
        Args args({flag});
        auto cli = args.cli();
        const ScenarioContext ctx(spec, cli);
        const auto points = expandSpecPoints(ctx.spec, ctx.base,
                                             ctx.mixes);
        ASSERT_EQ(points.size(), plain_points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE(points[i].name);
            SimConfig want = plain_points[i].cfg;
            applyOverrides(want, flagOverrides(cli));
            EXPECT_TRUE(points[i].cfg == want);
            EXPECT_FALSE(points[i].cfg == plain_points[i].cfg);
        }
    }
}

TEST(ConfigKeys, VariantIsShorthandForItsKeys)
{
    auto str = [](const char *key, const char *value) {
        return ConfigOverride{key, JsonValue::makeString(value), {}};
    };
    const ConfigOverride one_mib{"cache-bytes",
                                 JsonValue::makeNumber(1 << 20), {}};
    const std::pair<const char *, std::vector<ConfigOverride>>
        expansions[] = {
            {"traditional", {str("policy", "traditional")}},
            {"merge", {str("policy", "forkpath"), str("cache", "none")}},
            {"mac",
             {str("policy", "forkpath"), str("cache", "mac"), one_mib}},
            {"treetop",
             {str("policy", "forkpath"), str("cache", "treetop"),
              one_mib}},
            {"insecure",
             {ConfigOverride{"insecure", JsonValue::makeBool(true),
                             {}}}},
        };

    SimConfig tuned = SimConfig::paperDefault();
    tuned.controller.agingThreshold = 9;
    tuned.controller.dummyPolicy = core::DummySelectPolicy::realFirst;
    tuned.controller.layout = dram::LayoutPolicy::linear;
    tuned.controller.enableIntegrity = true;
    tuned.controller.periodicIntervalTicks = 123456;
    tuned.controller.plbEntries = 64;
    tuned.controller.recursionDepth = 2;
    tuned.controller.recursionFanout = 16;
    tuned.controller.batchSize = 3;
    tuned.controller.cacheBudgetBytes = 4096;
    tuned.controller.labelQueueSize = 7;
    tuned.controller.cachePolicy = core::CachePolicy::treetop;

    for (const SimConfig &start : {SimConfig::paperDefault(), tuned}) {
        for (const auto &[name, keys] : expansions) {
            SCOPED_TRACE(name);
            SimConfig by_variant = start;
            applyOverrides(by_variant,
                           {str("variant", name)});
            SimConfig by_keys = start;
            applyOverrides(by_keys, keys);
            EXPECT_TRUE(by_variant == by_keys);
            // The untouched controller fields keep their values.
            EXPECT_EQ(by_variant.controller.layout,
                      start.controller.layout);
            EXPECT_EQ(by_variant.controller.recursionDepth,
                      start.controller.recursionDepth);
        }
        // The sim::with* helpers are the same field-wise updates.
        auto variant = [&](const char *name) {
            SimConfig cfg = start;
            applyOverrides(cfg, {str("variant", name)});
            return cfg;
        };
        EXPECT_TRUE(withTraditional(start) == variant("traditional"));
        EXPECT_TRUE(withMergeOnly(start) == variant("merge"));
        EXPECT_TRUE(withMergeMac(start, 1 << 20) == variant("mac"));
        EXPECT_TRUE(withMergeTreetop(start, 1 << 20) ==
                    variant("treetop"));
        EXPECT_TRUE(withInsecure(start) == variant("insecure"));
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Scenario, FileOutputsAreIdenticalAcrossJobs)
{
    // Every point writes the same trace and stats paths; with several
    // jobs they would race, so the context runs them on one job.
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    const std::string dir = testing::TempDir();
    auto run = [&](const std::string &jobs, const std::string &tag) {
        const std::string trace = dir + "fp_jobs_" + tag + ".json";
        const std::string stats = dir + "fp_jobs_" + tag + ".jsonl";
        Args args({"--jobs=" + jobs, "--trace-out=" + trace,
                   "--trace-level=full", "--stats-out=" + stats,
                   "--stats-interval=1000000", "--csv"});
        auto cli = args.cli();
        testing::internal::CaptureStdout();
        testing::internal::CaptureStderr();
        EXPECT_EQ(runSpec(spec, cli), 0);
        testing::internal::GetCapturedStdout();
        const std::string err = testing::internal::GetCapturedStderr();
        return std::make_tuple(trace, stats, err);
    };
    const auto [trace1, stats1, err1] = run("1", "seq");
    const auto [trace4, stats4, err4] = run("4", "par");
    const std::string note = "running the points on one job";
    EXPECT_EQ(err1.find(note), std::string::npos);
    const auto at = err4.find(note);
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(err4.find(note, at + 1), std::string::npos);

    const std::string trace = readFile(trace1);
    EXPECT_FALSE(trace.empty());
    EXPECT_EQ(trace, readFile(trace4));
    EXPECT_FALSE(readFile(stats1).empty());
    EXPECT_EQ(readFile(stats1), readFile(stats4));

#ifdef FP_VALIDATE_TRACE
    const std::string cmd = std::string(FP_PYTHON) + " " +
                            FP_VALIDATE_TRACE + " --trace " + trace4 +
                            " --stats " + stats4 + " > /dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
#endif
    for (const std::string &path : {trace1, stats1, trace4, stats4})
        std::remove(path.c_str());
}

TEST(Scenario, FlagsOverrideSpecParams)
{
    auto spec = parseSpecText(R"({
      "name": "p", "base": {"requests": 40},
      "params": {"trials": 200, "leaf-level": 16, "mix": "Mix3",
                 "alpha": 0.5, "on": false, "sizes": [1, 2]},
      "output": {"out": "spec.json"}
    })");
    {
        Args args({"--trials=20", "--mix=7", "--alpha=2",
                   "--on", "--out=x.json"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.spec.paramUint("trials"), 20u);
        EXPECT_EQ(ctx.spec.paramStr("mix", ""), "7");
        EXPECT_DOUBLE_EQ(ctx.spec.paramNum("alpha", 0.0), 2.0);
        EXPECT_TRUE(ctx.spec.paramNode("on").asBool());
        EXPECT_EQ(ctx.out, "x.json");
        // The caller's spec is untouched.
        EXPECT_EQ(spec.paramUint("trials"), 200u);
    }
    {
        // A flag naming a configuration key and a param sets both.
        Args args({"--leaf-level=12"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.base.controller.oram.leafLevel, 12u);
        EXPECT_EQ(ctx.spec.paramUint("leaf-level"), 12u);
        EXPECT_EQ(ctx.out, "spec.json");
    }
    // A malformed param flag is reported against the flag when the
    // scenario reads it.
    Args args({"--trials=2.5", "--sizes=3"});
    auto cli = args.cli();
    ScenarioContext ctx(spec, cli);
    EXPECT_EXIT(ctx.spec.paramUint("trials"),
                testing::ExitedWithCode(1),
                "--trials=2.5: expected a non-negative integer");
    EXPECT_EXIT(ctx.spec.paramUintList("sizes"),
                testing::ExitedWithCode(1), "--sizes=3: expected");
}

TEST(ScenarioFlagsDeath, BadFlagsDieNamingTheFlag)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    // Every case must exit 1 through fp_fatal: a panic would abort
    // (exit 134) and fail ExitedWithCode(1).
    const struct
    {
        const char *flag;
        const char *message;
    } cases[] = {
        {"--shard=4", "unknown flag --shard .*known flags: .*--shards,"},
        {"--shards=4x", "--shards=4x: expected an integer"},
        {"--shards=2000", "--shards=2000: value 2000 out of range"},
        {"--fault-loss-rate=abc", "--fault-loss-rate=abc: expected a "
                                  "number"},
        {"--net-window=2.5", "--net-window=2.5: expected an integer"},
        {"--fault-seed=-1", "--fault-seed=-1: expected an integer"},
        // 2^53 + 1 has no exact double: rejected, not rounded.
        {"--fault-seed=9007199254740993", "--fault-seed=9007199254740993: "
                                          "expected an integer"},
        {"--stats-interval=0", "--stats-interval=0: value 0 out of "
                               "range"},
        {"--fault-outage=5:1", "--fault-outage=5:1: outage window "
                               "needs 0 <= T0 < T1"},
        {"--batch-size=4", "--batch-size=4: batch-size requires the "
                           "batched policy"},
    };
    for (const auto &c : cases) {
        Args args({c.flag});
        auto cli = args.cli();
        auto build = [&] { ScenarioContext ctx(spec, cli); };
        EXPECT_EXIT(build(), testing::ExitedWithCode(1), c.message)
            << c.flag;
    }
}

/** One valid value of a configuration key, as a spec writes it (JSON)
 *  and as a flag does. */
struct KeySample
{
    const char *key;
    const char *json;
    const char *flag;
};

// Values differ from the start config below, so each one shows.
constexpr KeySample kKeySamples[] = {
    {"requests", "77", "77"},
    {"leaf-level", "12", "12"},
    {"cores", "2", "2"},
    {"max-outstanding", "3", "3"},
    {"cpu-period-ticks", "250", "250"},
    {"seed", "9", "9"},
    {"shared-address-space", "true", "true"},
    {"variant", "\"treetop\"", "treetop"},
    {"policy", "\"forkpath\"", "forkpath"},
    {"queue", "16", "16"},
    {"cache", "\"treetop\"", "treetop"},
    {"cache-bytes", "4096", "4096"},
    {"dummy-policy", "\"realFirst\"", "realFirst"},
    {"aging-threshold", "7", "7"},
    {"enable-replacing", "true", "true"},
    {"batch-size", "5", "5"},
    {"insecure", "true", "true"},
    {"layout", "\"linear\"", "linear"},
    {"recursion-depth", "2", "2"},
    {"recursion-fanout", "16", "16"},
    {"plb-entries", "4096", "4096"},
    {"periodic-interval-ticks", "1300000", "1300000"},
    {"integrity", "true", "true"},
    {"payload-bytes", "64", "64"},
    {"stash-capacity", "300", "300"},
    {"oram-seed", "11", "11"},
    {"channels", "4", "4"},
    {"page-policy", "\"closed\"", "closed"},
    {"backend", "\"net\"", "net"},
    {"net-latency-us", "2.5", "2.5"},
    {"net-gbps", "40", "40"},
    {"net-window", "8", "8"},
    {"shards", "4", "4"},
    {"shard-window", "4", "4"},
    {"fault-loss-rate", "0.02", "0.02"},
    {"fault-error-rate", "0.01", "0.01"},
    {"fault-spike-rate", "0.05", "0.05"},
    {"fault-spike-us", "200", "200"},
    {"fault-outage", "[0, 1000000]", "0:1000000"},
    {"fault-seed", "7", "7"},
    {"retry-timeout-us", "20", "20"},
    {"retry-max", "0", "0"},
    {"retry-backoff", "[50, 400]", "50:400"},
    {"retry-backoff", "5000", "5000"},
    {"trace-out", "\"t.json\"", "t.json"},
    // A flag's text is its string even when it reads as a number.
    {"trace-out", "\"1\"", "1"},
    {"trace-level", "\"full\"", "full"},
    {"trace-level", "\"full\"", "2"},
    {"stats-out", "\"s.jsonl\"", "s.jsonl"},
    {"stats-interval", "5000000", "5000000"},
    {"profile-requests", "true", "true"},
    {"profile-out", "\"p.json\"", "p.json"},
};

TEST(ConfigKeys, SpecAndFlagPathsAgreeOnEveryKey)
{
    // batch-size needs the batched policy and cache-bytes a cache;
    // the batched preset has both.
    const SimConfig start =
        withPolicy(SimConfig::paperDefault(), core::PolicyKind::batched);
    std::set<std::string> covered;
    for (const KeySample &s : kKeySamples) {
        SCOPED_TRACE(s.key);
        covered.insert(s.key);

        SpecSource src;
        src.text = s.json;
        SimConfig by_spec = start;
        applyOverrides(by_spec,
                       {ConfigOverride{s.key, JsonValue::parse(s.json),
                                       {}}},
                       &src);

        Args args({std::string("--") + s.key + "=" + s.flag});
        auto cli = args.cli();
        const auto flags = flagOverrides(cli);
        ASSERT_EQ(flags.size(), 1u);
        SimConfig by_flag = start;
        applyOverrides(by_flag, flags);

        EXPECT_TRUE(by_spec == by_flag);
        EXPECT_FALSE(by_spec == start);
    }
    const auto keys = configKeys();
    EXPECT_EQ(covered, std::set<std::string>(keys.begin(), keys.end()));
}

TEST(ConfigKeys, SpikeMagnitudeImpliesARate)
{
    SimConfig cfg = SimConfig::paperDefault();
    Args args({"--fault-spike-us", "200"});
    auto cli = args.cli();
    applyOverrides(cfg, flagOverrides(cli));
    EXPECT_DOUBLE_EQ(cfg.faults.spikeUs, 200.0);
    EXPECT_DOUBLE_EQ(cfg.faults.spikeRate, 0.01);

    SimConfig given = SimConfig::paperDefault();
    Args both({"--fault-spike-us=200", "--fault-spike-rate=0.2"});
    auto cli_both = both.cli();
    applyOverrides(given, flagOverrides(cli_both));
    EXPECT_DOUBLE_EQ(given.faults.spikeRate, 0.2);
}

TEST(ConfigKeys, FlagValuesTakeTheSpecForms)
{
    EXPECT_TRUE(flagValue("true").isBool());
    EXPECT_DOUBLE_EQ(flagValue("-2.5e1").asNumber(), -25.0);
    const JsonValue pair = flagValue("0:1e6");
    ASSERT_TRUE(pair.isArray());
    EXPECT_DOUBLE_EQ(pair.at(std::size_t{1}).asNumber(), 1e6);
    EXPECT_DOUBLE_EQ(flagValue("9007199254740991").asNumber(),
                     9007199254740991.0);
    for (const char *text : {"4x", "0x10", "inf", "nan", " 5", "1:",
                             "a:b", "", "9007199254740993"})
        EXPECT_TRUE(flagValue(text).isString()) << text;
}

TEST(Scenario, CommittedSpecsParseAndCoverScenarios)
{
    const std::string dir = FP_EXPERIMENTS_DIR;
    const char *names[] = {
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18", "fig19", "table2", "overlap",
        "ablation", "replacing", "faults", "shards", "smoke",
        "sweep-example"};
    for (const char *name : names) {
        const std::string path = dir + "/" + name + ".json";
        std::ifstream probe(path);
        ASSERT_TRUE(probe.good()) << "missing committed spec " << path;
        auto spec = parseSpecFile(path);
        EXPECT_EQ(spec.name, name);
        EXPECT_FALSE(spec.description.empty()) << path;
    }
    // The gate spec pins its output name and gated metrics.
    auto smoke = parseSpecFile(dir + "/smoke.json");
    EXPECT_EQ(smoke.defaultOut, "BENCH_smoke.json");
    EXPECT_EQ(smoke.gateMetrics.size(), 6u);
    EXPECT_EQ(smoke.points.size(), 5u);
}

} // namespace
} // namespace fp::sim
