#include "sim/scenario.hh"

#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "util/cli.hh"
#include "util/logging.hh"
#include "workload/mixes.hh"

namespace fp::sim
{

std::uint64_t
specHash(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

// --- typed params accessors -----------------------------------------------

namespace
{

const JsonValue *
findParam(const ExperimentSpec &spec, const std::string &key)
{
    if (!spec.params.isObject())
        return nullptr;
    return spec.params.find(key);
}

[[noreturn]] void
paramFail(const ExperimentSpec &spec, const std::string &key,
          const std::string &what)
{
    auto flag = spec.paramFlags.find(key);
    if (flag != spec.paramFlags.end())
        fp_fatal("--%s=%s: %s", key.c_str(), flag->second.c_str(),
                 what.c_str());
    const JsonValue *node = findParam(spec, key);
    specFail(spec.source, node ? *node : spec.params,
             "params." + key + ": " + what);
}

std::uint64_t
uintOf(const ExperimentSpec &spec, const std::string &key,
       const JsonValue &v)
{
    if (!v.isUint64())
        paramFail(spec, key, "expected a non-negative integer");
    return v.asUint64();
}

} // namespace

bool
ExperimentSpec::hasParam(const std::string &key) const
{
    return findParam(*this, key) != nullptr;
}

std::uint64_t
ExperimentSpec::paramUint(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v)
        paramFail(*this, key, "required integer parameter is missing");
    return uintOf(*this, key, *v);
}

std::uint64_t
ExperimentSpec::paramUint(const std::string &key,
                          std::uint64_t def) const
{
    const JsonValue *v = findParam(*this, key);
    return v ? uintOf(*this, key, *v) : def;
}

double
ExperimentSpec::paramNum(const std::string &key, double def) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v)
        return def;
    if (!v->isNumber())
        paramFail(*this, key, "expected a number");
    return v->asNumber();
}

std::string
ExperimentSpec::paramStr(const std::string &key,
                         const std::string &def) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v)
        return def;
    if (!v->isString())
        paramFail(*this, key, "expected a string");
    return v->asString();
}

std::vector<std::uint64_t>
ExperimentSpec::paramUintList(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v || !v->isArray() || v->size() == 0)
        paramFail(*this, key, "expected a non-empty integer array");
    std::vector<std::uint64_t> out;
    out.reserve(v->size());
    for (const JsonValue &item : v->items())
        out.push_back(uintOf(*this, key, item));
    return out;
}

std::vector<double>
ExperimentSpec::paramNumList(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v || !v->isArray() || v->size() == 0)
        paramFail(*this, key, "expected a non-empty number array");
    std::vector<double> out;
    out.reserve(v->size());
    for (const JsonValue &item : v->items()) {
        if (!item.isNumber())
            paramFail(*this, key, "expected a non-empty number array");
        out.push_back(item.asNumber());
    }
    return out;
}

std::vector<std::string>
ExperimentSpec::paramStrList(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v || !v->isArray() || v->size() == 0)
        paramFail(*this, key, "expected a non-empty string array");
    std::vector<std::string> out;
    out.reserve(v->size());
    for (const JsonValue &item : v->items()) {
        if (!item.isString())
            paramFail(*this, key, "expected a non-empty string array");
        out.push_back(item.asString());
    }
    return out;
}

const JsonValue &
ExperimentSpec::paramNode(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v)
        paramFail(*this, key, "required parameter is missing");
    return *v;
}

// --- grid / point expansion ----------------------------------------------

std::vector<SpecConfig>
expandSpecConfigs(const ExperimentSpec &spec, const SimConfig &base)
{
    // Explicit points; a spec with none gets a single anonymous point
    // so a pure-grid (or pure-mix) spec still expands.
    std::vector<SpecPoint> points = spec.points;
    if (points.empty())
        points.push_back(SpecPoint{"base", "", {}});

    // Grid combinations, axes nesting rightmost-fastest.
    std::vector<std::vector<ConfigOverride>> combos{{}};
    for (const GridAxis &axis : spec.grid) {
        std::vector<std::vector<ConfigOverride>> next;
        next.reserve(combos.size() * axis.values.size());
        for (const auto &combo : combos) {
            for (const JsonValue &v : axis.values) {
                auto extended = combo;
                extended.push_back(ConfigOverride{axis.key, v, {}});
                next.push_back(std::move(extended));
            }
        }
        combos = std::move(next);
    }

    auto comboName = [](const std::vector<ConfigOverride> &combo) {
        std::string name;
        for (const ConfigOverride &ov : combo) {
            std::string v;
            if (ov.value.isString()) {
                v = ov.value.asString();
            } else if (ov.value.isBool()) {
                v = ov.value.asBool() ? "on" : "off";
            } else if (ov.value.isNumber()) {
                std::ostringstream os;
                os << ov.value.asNumber();
                v = os.str();
            }
            name += (name.empty() ? "" : ",") + ov.key + "=" + v;
        }
        return name;
    };

    std::vector<SpecConfig> out;
    out.reserve(points.size() * combos.size());
    for (const SpecPoint &point : points) {
        for (const auto &combo : combos) {
            SimConfig cfg = base;
            applyOverrides(cfg, point.overrides, &spec.source);
            applyOverrides(cfg, combo, &spec.source);

            std::string name = point.name;
            if (!combo.empty())
                name += (name.empty() ? "" : "/") + comboName(combo);
            out.push_back(
                SpecConfig{std::move(name), point.mix, std::move(cfg)});
        }
    }
    return out;
}

std::vector<SweepPoint>
expandSpecPoints(const ExperimentSpec &spec, const SimConfig &base,
                 const std::vector<std::string> &mixes)
{
    std::vector<SweepPoint> out;
    for (const SpecConfig &sc : expandSpecConfigs(spec, base)) {
        if (!sc.mix.empty()) {
            out.push_back(pointFromMix(sc.name, sc.cfg, sc.mix));
            continue;
        }
        for (const std::string &mix : mixes) {
            const std::string full =
                mixes.size() > 1 ? mix + "/" + sc.name : sc.name;
            out.push_back(pointFromMix(full, sc.cfg, mix));
        }
    }
    return out;
}

// --- ScenarioContext -------------------------------------------------------

namespace
{

/** Reject every flag that is neither a configuration key, a key of
 *  @p spec's params, nor a driver flag, listing the known flags. */
void
rejectUnknownFlags(const ExperimentSpec &spec, const CliArgs &args)
{
    std::set<std::string> known = {
        "csv",           "jobs",          "list-backends",
        "list-experiments", "list-policies", "list-scenarios",
        "mixes",         "out",           "quick"};
    for (const std::string &key : configKeys())
        known.insert(key);
    if (spec.params.isObject()) {
        for (const auto &[key, value] : spec.params.members()) {
            (void)value;
            known.insert(key);
        }
    }
    for (const std::string &name : args.names()) {
        if (known.count(name) > 0)
            continue;
        std::string list;
        for (const std::string &n : known)
            list += (list.empty() ? "--" : ", --") + n;
        fp_fatal("unknown flag --%s for spec '%s' (known flags: %s)",
                 name.c_str(), spec.name.c_str(), list.c_str());
    }
}

/** @p spec after rejectUnknownFlags, with every flag that names one
 *  of its params in place of that param. A string param takes the
 *  flag text as is; any other takes flagValue(), which the typed
 *  accessors check when the scenario reads it. */
ExperimentSpec
withParamFlags(ExperimentSpec spec, const CliArgs &args)
{
    rejectUnknownFlags(spec, args);
    for (const std::string &name : args.names()) {
        const JsonValue *param = spec.params.find(name);
        if (!param)
            continue;
        const std::string text = args.getString(name);
        spec.params.replace(name, param->isString()
                                      ? JsonValue::makeString(text)
                                      : flagValue(text));
        spec.paramFlags[name] = text;
    }
    return spec;
}

} // namespace

ScenarioContext::ScenarioContext(const ExperimentSpec &spec_,
                                 const CliArgs &args)
    : spec(withParamFlags(spec_, args))
{
    base = SimConfig::paperDefault();
    applyOverrides(base, spec.base, &spec.source);
    const std::vector<ConfigOverride> flags = flagOverrides(args);
    applyOverrides(base, flags);
    if (args.getBool("quick")) {
        base.requestsPerCore = 150;
        base.controller.oram.leafLevel = 14;
    }

    csv = args.getBool("csv");
    sweepOpt = sweepOptionsFromArgs(args);
    // Every point's System opens these paths with "wb", so points on
    // several jobs would race on one file.
    const ObsConfig &obs = base.obs;
    if ((obs.traceEnabled() || obs.statsEnabled() ||
         !obs.profileOut.empty()) &&
        (sweepOpt.jobs ? sweepOpt.jobs : SweepRunner::hardwareJobs()) >
            1) {
        fp_warn("every point writes the same trace-out, stats-out or "
                "profile-out file: running the points on one job");
        sweepOpt.jobs = 1;
    }
    out = args.getString("out", spec.defaultOut);

    for (const ConfigOverride &ov : flags) {
        if (ov.key == "policy")
            policyOverride = *ov.flag;
        else if (ov.key == "batch-size")
            batchSizeOverride =
                static_cast<unsigned>(ov.value.asUint64());
    }
    base = applyPolicy(std::move(base));

    const std::string mix_flag = args.getString("mixes", "");
    if (!mix_flag.empty()) {
        std::stringstream ss(mix_flag);
        std::string item;
        while (std::getline(ss, item, ','))
            mixes.push_back(item);
    } else if (!spec.defaultMixes.empty()) {
        mixes = spec.defaultMixes;
    } else {
        mixes = workload::mixNames();
    }
}

SimConfig
ScenarioContext::applyPolicy(SimConfig cfg) const
{
    if (!policyOverride.empty())
        cfg = withPolicyName(std::move(cfg), policyOverride);
    if (batchSizeOverride > 0)
        cfg.controller.batchSize = batchSizeOverride;
    return cfg;
}

SimConfig
ScenarioContext::pointConfig(const SpecPoint &point) const
{
    SimConfig cfg = base;
    applyOverrides(cfg, point.overrides, &spec.source);
    return cfg;
}

void
ScenarioContext::stamp(RunResult &r) const
{
    r.specName = spec.name;
    r.specHash = spec.source.hash;
}

std::vector<RunResult>
ScenarioContext::run(std::vector<SweepPoint> points) const
{
    auto outcomes = runRaw(std::move(points));
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (const SweepOutcome &out : outcomes) {
        if (!out.ok)
            fp_fatal("sweep point '%s' failed: %s", out.name.c_str(),
                     out.error.c_str());
        results.push_back(out.result);
    }
    return results;
}

std::vector<SweepOutcome>
ScenarioContext::runRaw(std::vector<SweepPoint> points) const
{
    // --policy/--batch-size override every point's per-series choice:
    // a `variant` key or a sim::with* series transform sets the policy
    // again after the base was built, so the flags are re-applied per
    // point.
    if (!policyOverride.empty() || batchSizeOverride > 0) {
        for (SweepPoint &p : points) {
            if (p.cfg.insecure)
                continue; // the insecure baseline has no scheduler
            p.cfg = applyPolicy(std::move(p.cfg));
        }
    }
    SweepRunner runner(sweepOpt);
    auto outcomes = runner.run(std::move(points));
    for (SweepOutcome &out : outcomes) {
        if (out.ok)
            stamp(out.result);
    }
    return outcomes;
}

void
ScenarioContext::runTasks(std::vector<SweepTask> tasks) const
{
    SweepRunner runner(sweepOpt);
    auto outcomes = runner.runTasks(std::move(tasks));
    for (const TaskOutcome &out : outcomes) {
        if (!out.ok)
            fp_fatal("task '%s' failed: %s", out.name.c_str(),
                     out.error.c_str());
    }
}

void
ScenarioContext::emit(const TextTable &table) const
{
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

void
ScenarioContext::banner(const std::string &figure,
                        const std::string &paper_says) const
{
    if (csv)
        return; // keep CSV output machine-clean
    std::cout << "==================================================="
                 "=====\n"
              << figure << "\n"
              << "paper reports: " << paper_says << "\n"
              << "==================================================="
                 "=====\n\n";
}

// --- scenario registry -----------------------------------------------------

namespace
{

std::map<std::string, ScenarioFn> &
scenarioRegistry()
{
    static std::map<std::string, ScenarioFn> registry;
    return registry;
}

/**
 * The generic data-only scenario: expand points x grid x mixes, run,
 * and emit the headline metrics. A brand-new experiment that needs no
 * custom normalisation is one committed JSON file with
 * "scenario": "sweep".
 */
void
sweepScenario(ScenarioContext &ctx)
{
    ctx.banner("Experiment: " + ctx.spec.name,
               ctx.spec.description.empty() ? "(generic sweep)"
                                            : ctx.spec.description);
    auto points = expandSpecPoints(ctx.spec, ctx.base, ctx.mixes);
    std::vector<std::string> names;
    names.reserve(points.size());
    for (const SweepPoint &p : points)
        names.push_back(p.name);
    auto results = ctx.run(std::move(points));

    TextTable t(ctx.spec.name);
    t.setHeader({"point", "exec_ms", "avg_latency_ns", "path_len",
                 "buckets/access", "real", "dummy"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        t.addRow({names[i],
                  TextTable::fmt(static_cast<double>(
                                     r.executionTicks) /
                                 1e9),
                  TextTable::fmt(r.avgLlcLatencyNs),
                  TextTable::fmt(r.avgReadPathLen),
                  TextTable::fmt(r.avgDramBucketsRead),
                  TextTable::fmt(r.realAccesses),
                  TextTable::fmt(r.dummyAccesses)});
    }
    ctx.emit(t);
}

} // namespace

void
registerScenario(const std::string &name, ScenarioFn fn)
{
    scenarioRegistry()[name] = std::move(fn);
}

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    names.reserve(scenarioRegistry().size() + 1);
    names.push_back("sweep");
    for (const auto &[name, fn] : scenarioRegistry()) {
        (void)fn;
        if (name != "sweep")
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

bool
haveScenario(const std::string &name)
{
    return name == "sweep" ||
           scenarioRegistry().count(name) != 0;
}

int
runSpec(const ExperimentSpec &spec, const CliArgs &args)
{
    const auto &registry = scenarioRegistry();
    auto it = registry.find(spec.scenario);
    ScenarioFn fn;
    if (it != registry.end()) {
        fn = it->second;
    } else if (spec.scenario == "sweep") {
        fn = sweepScenario;
    } else {
        std::string known;
        for (const std::string &name : scenarioNames())
            known += known.empty() ? name : ", " + name;
        specFail(spec.source, spec.params,
                 "unknown scenario \"" + spec.scenario +
                     "\" (registered: " + known + ")");
    }
    ScenarioContext ctx(spec, args);
    fn(ctx);
    return 0;
}

} // namespace fp::sim
