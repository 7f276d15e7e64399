#include "sim/sim_config.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "core/access_policy.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace fp::sim
{

dram::DramParams
SimConfig::defaultDram()
{
    return dram::DramParams::ddr3_1600(2);
}

SimConfig
SimConfig::paperDefault()
{
    SimConfig cfg;
    cfg.cores = 4;
    cfg.maxOutstanding = 16;
    cfg.cpuPeriodTicks = 500;

    core::applyPolicyPreset(cfg.controller,
                            core::PolicyKind::traditional);
    cfg.controller.oram.leafLevel = 24; // 4 GB data / 64 B / 50% / Z=4
    cfg.controller.oram.z = 4;
    cfg.controller.oram.payloadBytes = 0; // timing runs carry no data
    cfg.controller.oram.stashCapacity = 200;

    cfg.dram = defaultDram();
    return cfg;
}

BackendKind
parseBackendKind(const std::string &name)
{
    if (name == "dram")
        return BackendKind::dram;
    if (name == "net")
        return BackendKind::net;
    fp_fatal("unknown backend '%s' (dram|net)", name.c_str());
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::dram:
        return "dram";
      case BackendKind::net:
        return "net";
    }
    fp_panic("unreachable backend kind");
}

std::vector<std::string>
backendKindNames()
{
    return {"dram", "net"};
}

SimConfig
withPolicy(SimConfig cfg, core::PolicyKind kind)
{
    core::applyPolicyPreset(cfg.controller, kind);
    cfg.insecure = false;
    return cfg;
}

SimConfig
withPolicyName(SimConfig cfg, const std::string &name)
{
    return withPolicy(std::move(cfg), core::parsePolicyKind(name));
}

SimConfig
withTraditional(SimConfig cfg)
{
    return withPolicy(std::move(cfg), core::PolicyKind::traditional);
}

SimConfig
withMergeOnly(SimConfig cfg, unsigned queue_size)
{
    cfg = withPolicy(std::move(cfg), core::PolicyKind::forkpath);
    cfg.controller.labelQueueSize = queue_size;
    cfg.controller.cachePolicy = core::CachePolicy::none;
    return cfg;
}

SimConfig
withMergeMac(SimConfig cfg, std::uint64_t cache_bytes,
             unsigned queue_size)
{
    cfg = withMergeOnly(std::move(cfg), queue_size);
    cfg.controller.cachePolicy = core::CachePolicy::mac;
    cfg.controller.cacheBudgetBytes = cache_bytes;
    return cfg;
}

SimConfig
withMergeTreetop(SimConfig cfg, std::uint64_t cache_bytes,
                 unsigned queue_size)
{
    cfg = withMergeOnly(std::move(cfg), queue_size);
    cfg.controller.cachePolicy = core::CachePolicy::treetop;
    cfg.controller.cacheBudgetBytes = cache_bytes;
    return cfg;
}

SimConfig
withInsecure(SimConfig cfg)
{
    cfg.insecure = true;
    return cfg;
}

// --- the configuration key table --------------------------------------------

void
specFail(const SpecSource &src, const JsonValue &node,
         const std::string &msg)
{
    fp_fatal("experiment spec %s:%zu: %s", src.path.c_str(),
             jsonLineOf(src.text, node.sourceOffset()), msg.c_str());
}

namespace
{

/** One override being applied: typed, range-checked reads of its
 *  value, and failures that name the flag or the spec line. */
struct OvCtx
{
    SimConfig &cfg;
    const ConfigOverride &ov;
    const SpecSource *spec;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        if (ov.flag)
            fp_fatal("--%s=%s: %s", ov.key.c_str(), ov.flag->c_str(),
                     what.c_str());
        fp_assert(spec, "spec override \"%s\" without its spec",
                  ov.key.c_str());
        specFail(*spec, ov.value, "\"" + ov.key + "\": " + what);
    }

    std::uint64_t
    uintIn(std::uint64_t lo, std::uint64_t hi) const
    {
        if (!ov.value.isUint64())
            fail("expected an integer");
        const std::uint64_t n = ov.value.asUint64();
        if (n < lo || n > hi)
            fail(strprintf("value %llu out of range [%llu, %llu]",
                           static_cast<unsigned long long>(n),
                           static_cast<unsigned long long>(lo),
                           static_cast<unsigned long long>(hi)));
        return n;
    }

    double
    numIn(double lo, double hi) const
    {
        if (!ov.value.isNumber())
            fail("expected a number");
        const double v = ov.value.asNumber();
        if (v < lo || v > hi)
            fail(strprintf("value %g out of range [%g, %g]", v, lo,
                           hi));
        return v;
    }

    bool
    boolean() const
    {
        if (!ov.value.isBool())
            fail("expected true or false");
        return ov.value.asBool();
    }

    /** A flag's text is its string even when it reads as a number
     *  (`--trace-out=1` names the file "1"). */
    std::string
    str() const
    {
        if (ov.flag)
            return *ov.flag;
        if (!ov.value.isString())
            fail("expected a string");
        return ov.value.asString();
    }

    /** [lo, hi] pair for window-style values ("fault-outage"). */
    std::pair<double, double>
    numPair() const
    {
        if (!ov.value.isArray() || ov.value.size() != 2 ||
            !ov.value.at(std::size_t{0}).isNumber() ||
            !ov.value.at(std::size_t{1}).isNumber())
            fail("expected two numbers ([lo, hi], or LO:HI as a "
                 "flag)");
        return {ov.value.at(std::size_t{0}).asNumber(),
                ov.value.at(std::size_t{1}).asNumber()};
    }
};

using OvHandler = void (*)(const OvCtx &);

const std::map<std::string, OvHandler> &overrideTable();

/** What each `variant` value stands for: the keys it sets, applied
 *  in order through overrideTable(). A variant writes only these
 *  fields, so keys set before it survive. */
const std::map<std::string, std::vector<ConfigOverride>> &
variantPresets()
{
    auto str = [](const char *key, const char *value) {
        return ConfigOverride{key, JsonValue::makeString(value), {}};
    };
    const ConfigOverride one_mib{
        "cache-bytes", JsonValue::makeNumber(1 << 20), {}};
    static const std::map<std::string, std::vector<ConfigOverride>>
        presets = {
            {"traditional", {str("policy", "traditional")}},
            {"merge", {str("policy", "forkpath"), str("cache", "none")}},
            {"mac",
             {str("policy", "forkpath"), str("cache", "mac"), one_mib}},
            {"treetop",
             {str("policy", "forkpath"), str("cache", "treetop"),
              one_mib}},
            {"insecure",
             {ConfigOverride{"insecure", JsonValue::makeBool(true), {}}}},
        };
    return presets;
}

// docs/ARCHITECTURE.md ("Authoring experiments") documents the keys;
// tests/test_scenario.cc sets every key through a spec and a flag.
const std::map<std::string, OvHandler> &
overrideTable()
{
    static const std::map<std::string, OvHandler> table = {
        // --- run shape ---------------------------------------------------
        {"requests",
         [](const OvCtx &c) {
             c.cfg.requestsPerCore = c.uintIn(1, 100'000'000);
         }},
        {"leaf-level",
         [](const OvCtx &c) {
             c.cfg.controller.oram.leafLevel =
                 static_cast<unsigned>(c.uintIn(4, 40));
         }},
        {"cores",
         [](const OvCtx &c) {
             c.cfg.cores = static_cast<unsigned>(c.uintIn(1, 1024));
         }},
        {"max-outstanding",
         [](const OvCtx &c) {
             c.cfg.maxOutstanding =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"cpu-period-ticks",
         [](const OvCtx &c) {
             c.cfg.cpuPeriodTicks =
                 static_cast<Tick>(c.uintIn(1, ~std::uint64_t{0}));
         }},
        {"seed",
         [](const OvCtx &c) {
             c.cfg.seed = c.uintIn(0, ~std::uint64_t{0});
         }},
        {"shared-address-space",
         [](const OvCtx &c) {
             c.cfg.sharedAddressSpace = c.boolean();
         }},

        // --- controller variant / scheduling -----------------------------
        {"variant",
         [](const OvCtx &c) {
             const std::string v = c.str();
             const auto &presets = variantPresets();
             auto it = presets.find(v);
             if (it == presets.end())
                 c.fail("unknown variant '" + v +
                        "' (traditional|merge|mac|treetop|insecure)");
             for (const ConfigOverride &ov : it->second)
                 overrideTable().at(ov.key)(OvCtx{c.cfg, ov, c.spec});
         }},
        {"policy",
         [](const OvCtx &c) {
             // parsePolicyKind is fatal on unknown names but without
             // the location; check here for a better message.
             const std::string v = c.str();
             const auto names = core::accessPolicyNames();
             if (std::find(names.begin(), names.end(), v) ==
                 names.end())
                 c.fail("unknown policy '" + v + "'");
             c.cfg = withPolicyName(std::move(c.cfg), v);
         }},
        {"queue",
         [](const OvCtx &c) {
             c.cfg.controller.labelQueueSize =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"cache",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "none")
                 c.cfg.controller.cachePolicy =
                     core::CachePolicy::none;
             else if (v == "mac")
                 c.cfg.controller.cachePolicy = core::CachePolicy::mac;
             else if (v == "treetop")
                 c.cfg.controller.cachePolicy =
                     core::CachePolicy::treetop;
             else
                 c.fail("unknown cache '" + v +
                        "' (none|mac|treetop)");
         }},
        {"cache-bytes",
         [](const OvCtx &c) {
             c.cfg.controller.cacheBudgetBytes =
                 c.uintIn(1, std::uint64_t{1} << 40);
         }},
        {"dummy-policy",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "compete")
                 c.cfg.controller.dummyPolicy =
                     core::DummySelectPolicy::compete;
             else if (v == "realFirst")
                 c.cfg.controller.dummyPolicy =
                     core::DummySelectPolicy::realFirst;
             else
                 c.fail("unknown dummy-policy '" + v +
                        "' (compete|realFirst)");
         }},
        {"aging-threshold",
         [](const OvCtx &c) {
             c.cfg.controller.agingThreshold =
                 static_cast<unsigned>(c.uintIn(1, ~std::uint32_t{0}));
         }},
        {"enable-replacing",
         [](const OvCtx &c) {
             c.cfg.controller.enableDummyReplacing = c.boolean();
         }},
        {"batch-size",
         [](const OvCtx &c) {
             c.cfg.controller.batchSize =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"insecure",
         [](const OvCtx &c) { c.cfg.insecure = c.boolean(); }},

        // --- structure ---------------------------------------------------
        {"layout",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "subtree")
                 c.cfg.controller.layout =
                     dram::LayoutPolicy::subtree;
             else if (v == "linear")
                 c.cfg.controller.layout = dram::LayoutPolicy::linear;
             else
                 c.fail("unknown layout '" + v +
                        "' (subtree|linear)");
         }},
        {"recursion-depth",
         [](const OvCtx &c) {
             c.cfg.controller.recursionDepth =
                 static_cast<unsigned>(c.uintIn(0, 8));
         }},
        {"recursion-fanout",
         [](const OvCtx &c) {
             c.cfg.controller.recursionFanout =
                 static_cast<unsigned>(c.uintIn(2, 1024));
         }},
        {"plb-entries",
         [](const OvCtx &c) {
             c.cfg.controller.plbEntries = static_cast<std::size_t>(
                 c.uintIn(0, std::uint64_t{1} << 32));
         }},
        {"periodic-interval-ticks",
         [](const OvCtx &c) {
             c.cfg.controller.periodicIntervalTicks =
                 static_cast<Tick>(c.uintIn(0, ~std::uint64_t{0}));
         }},
        {"integrity",
         [](const OvCtx &c) {
             c.cfg.controller.enableIntegrity = c.boolean();
         }},
        {"payload-bytes",
         [](const OvCtx &c) {
             c.cfg.controller.oram.payloadBytes =
                 static_cast<std::size_t>(c.uintIn(0, 1 << 20));
         }},
        {"stash-capacity",
         [](const OvCtx &c) {
             c.cfg.controller.oram.stashCapacity =
                 static_cast<std::size_t>(
                     c.uintIn(1, std::uint64_t{1} << 32));
         }},
        {"oram-seed",
         [](const OvCtx &c) {
             c.cfg.controller.oram.seed =
                 c.uintIn(0, ~std::uint64_t{0});
         }},

        // --- memory system -----------------------------------------------
        {"channels",
         [](const OvCtx &c) {
             // Replaces the whole DRAM parameter block, so list it
             // before page-policy when both appear.
             c.cfg.dram = dram::DramParams::ddr3_1600(
                 static_cast<unsigned>(c.uintIn(1, 8)));
         }},
        {"page-policy",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "open")
                 c.cfg.dram.pagePolicy = dram::PagePolicy::open;
             else if (v == "closed")
                 c.cfg.dram.pagePolicy = dram::PagePolicy::closed;
             else
                 c.fail("unknown page-policy '" + v +
                        "' (open|closed)");
         }},
        {"backend",
         [](const OvCtx &c) {
             const std::string v = c.str();
             const auto names = backendKindNames();
             if (std::find(names.begin(), names.end(), v) ==
                 names.end())
                 c.fail("unknown backend '" + v + "'");
             c.cfg.backendKind = parseBackendKind(v);
         }},
        {"net-latency-us",
         [](const OvCtx &c) {
             c.cfg.net.oneWayLatencyUs = c.numIn(0.0, 1e9);
         }},
        {"net-gbps",
         [](const OvCtx &c) {
             c.cfg.net.linkGbps = c.numIn(1e-3, 1e6);
         }},
        {"net-window",
         [](const OvCtx &c) {
             c.cfg.net.window =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"shards",
         [](const OvCtx &c) {
             c.cfg.shards = static_cast<unsigned>(c.uintIn(1, 1024));
         }},
        {"shard-window",
         [](const OvCtx &c) {
             c.cfg.shardWindow =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},

        // --- faults / retry ----------------------------------------------
        {"fault-loss-rate",
         [](const OvCtx &c) {
             c.cfg.faults.lossRate = c.numIn(0.0, 1.0);
         }},
        {"fault-error-rate",
         [](const OvCtx &c) {
             c.cfg.faults.errorRate = c.numIn(0.0, 1.0);
         }},
        {"fault-spike-rate",
         [](const OvCtx &c) {
             c.cfg.faults.spikeRate = c.numIn(0.0, 1.0);
         }},
        {"fault-spike-us",
         [](const OvCtx &c) {
             c.cfg.faults.spikeUs = c.numIn(0.0, 1e9);
         }},
        {"fault-outage",
         [](const OvCtx &c) {
             const auto [t0, t1] = c.numPair();
             if (t0 < 0.0 || t1 <= t0)
                 c.fail("outage window needs 0 <= T0 < T1");
             c.cfg.faults.outageStartUs = t0;
             c.cfg.faults.outageEndUs = t1;
         }},
        {"fault-seed",
         [](const OvCtx &c) {
             c.cfg.faults.seed = c.uintIn(0, ~std::uint64_t{0});
         }},
        {"retry-timeout-us",
         [](const OvCtx &c) {
             c.cfg.retry.timeoutUs = c.numIn(0.0, 1e9);
         }},
        {"retry-max",
         [](const OvCtx &c) {
             c.cfg.retry.maxRetries =
                 static_cast<unsigned>(c.uintIn(0, 1'000'000));
         }},
        {"retry-backoff",
         [](const OvCtx &c) {
             // BASE alone keeps the cap, raised to BASE if below it.
             double base = 0.0, cap = 0.0;
             if (c.ov.value.isNumber()) {
                 base = c.numIn(0.0, 1e9);
                 cap = std::max(c.cfg.retry.backoffCapUs, base);
             } else {
                 std::tie(base, cap) = c.numPair();
             }
             if (base < 0.0 || cap < base)
                 c.fail("backoff needs 0 <= BASE <= CAP");
             c.cfg.retry.backoffBaseUs = base;
             c.cfg.retry.backoffCapUs = cap;
         }},

        // --- observability -----------------------------------------------
        {"trace-out",
         [](const OvCtx &c) { c.cfg.obs.traceOut = c.str(); }},
        {"trace-level",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "off" || v == "0")
                 c.cfg.obs.traceLevel = obs::TraceLevel::off;
             else if (v == "access" || v == "1")
                 c.cfg.obs.traceLevel = obs::TraceLevel::access;
             else if (v == "full" || v == "2")
                 c.cfg.obs.traceLevel = obs::TraceLevel::full;
             else
                 c.fail("unknown trace-level '" + v +
                        "' (off|access|full)");
         }},
        {"stats-out",
         [](const OvCtx &c) { c.cfg.obs.statsOut = c.str(); }},
        {"stats-interval",
         [](const OvCtx &c) {
             c.cfg.obs.statsIntervalTicks =
                 static_cast<Tick>(c.uintIn(1, ~std::uint64_t{0}));
         }},
        {"profile-requests",
         [](const OvCtx &c) {
             c.cfg.obs.profileRequests = c.boolean();
         }},
        {"profile-out",
         [](const OvCtx &c) { c.cfg.obs.profileOut = c.str(); }},
    };
    return table;
}

/** The last override in @p ovs whose key is one of @p keys. */
const ConfigOverride *
lastOf(const std::vector<ConfigOverride> &ovs,
       std::initializer_list<const char *> keys)
{
    const ConfigOverride *found = nullptr;
    for (const ConfigOverride &ov : ovs) {
        for (const char *key : keys) {
            if (ov.key == key)
                found = &ov;
        }
    }
    return found;
}

/** A decimal number, in full: no hex, inf or nan, no spaces. An
 *  integer literal of 2^53 or more would round silently (values are
 *  doubles, as in a spec), so it is no number. */
bool
decimalNumber(const std::string &text, double &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789+-.eE") != std::string::npos)
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    const bool integer = text.find_first_of(".eE") == std::string::npos;
    return *end == '\0' && std::isfinite(out) &&
           !(integer && std::fabs(out) >= 9007199254740992.0);
}

} // namespace

std::vector<std::string>
configKeys()
{
    std::vector<std::string> keys;
    for (const auto &[key, fn] : overrideTable()) {
        (void)fn;
        keys.push_back(key);
    }
    return keys;
}

void
applyOverrides(SimConfig &cfg, const std::vector<ConfigOverride> &ovs,
               const SpecSource *spec)
{
    const auto &table = overrideTable();
    for (const ConfigOverride &ov : ovs) {
        const OvCtx ctx{cfg, ov, spec};
        auto it = table.find(ov.key);
        if (it == table.end()) {
            std::string known;
            for (const std::string &key : configKeys())
                known += known.empty() ? key : ", " + key;
            ctx.fail("unknown configuration key (known keys: " +
                     known + ")");
        }
        it->second(ctx);
    }

    // Cross-key conflicts: catch configurations that would only
    // misbehave (or silently do nothing) deep inside a sweep. Each
    // names the override that introduced it.
    auto fail = [&](const ConfigOverride &ov, const std::string &what) {
        OvCtx{cfg, ov, spec}.fail(what);
    };
    if (cfg.insecure) {
        if (const ConfigOverride *ov = lastOf(
                ovs, {"policy", "queue", "cache", "cache-bytes",
                      "dummy-policy", "aging-threshold",
                      "enable-replacing", "batch-size"}))
            fail(*ov, "conflicts with the insecure baseline (it has "
                      "no ORAM scheduler)");
        const ConfigOverride *ov =
            lastOf(ovs, {"shards", "insecure", "variant"});
        if (ov && cfg.shards > 1)
            fail(*ov, "shards > 1 conflicts with the insecure "
                      "baseline (sharding dispatches over ORAM "
                      "controllers)");
    }
    if (const ConfigOverride *ov = lastOf(ovs, {"batch-size"});
        ov && cfg.controller.policy != core::PolicyKind::batched) {
        fail(*ov, "batch-size requires the batched policy (set "
                  "policy to batched)");
    }
    if (const ConfigOverride *ov = lastOf(ovs, {"cache-bytes"});
        ov && cfg.controller.cachePolicy == core::CachePolicy::none) {
        fail(*ov, "cache-bytes has no effect without a cache (set "
                  "variant or cache to mac or treetop)");
    }
    // A spike magnitude without a rate means "spike some requests":
    // turn the rate on rather than silently doing nothing.
    if (lastOf(ovs, {"fault-spike-us"}) &&
        !lastOf(ovs, {"fault-spike-rate"}) &&
        cfg.faults.spikeRate == 0.0) {
        cfg.faults.spikeRate = 0.01;
    }
}

JsonValue
flagValue(const std::string &text)
{
    if (text == "true" || text == "false")
        return JsonValue::makeBool(text == "true");
    double v = 0.0, lo = 0.0, hi = 0.0;
    if (decimalNumber(text, v))
        return JsonValue::makeNumber(v);
    const auto colon = text.find(':');
    if (colon != std::string::npos &&
        decimalNumber(text.substr(0, colon), lo) &&
        decimalNumber(text.substr(colon + 1), hi)) {
        return JsonValue::makeArray(
            {JsonValue::makeNumber(lo), JsonValue::makeNumber(hi)});
    }
    return JsonValue::makeString(text);
}

std::vector<ConfigOverride>
flagOverrides(const CliArgs &args)
{
    std::vector<ConfigOverride> out;
    for (const std::string &name : args.names()) {
        if (overrideTable().count(name) == 0)
            continue;
        const std::string text = args.getString(name);
        out.push_back(ConfigOverride{name, flagValue(text), text});
    }
    return out;
}

} // namespace fp::sim
