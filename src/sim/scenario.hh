/**
 * @file
 * The declarative experiment layer: a sim::ExperimentSpec describes a
 * named experiment — base SimConfig overrides, a parameter grid
 * (cross-product axes plus explicit point lists), scenario parameters,
 * output files and baseline-gate metrics — parsed from a JSON spec
 * file committed under experiments/ (see spec_parse.hh). A Scenario
 * is the registered rendering/wiring code a spec selects by name; the
 * `fp_bench` driver loads a spec, builds a ScenarioContext from it
 * plus the command line, and dispatches.
 *
 * Responsibilities are split so new experiments are data, not code:
 *
 *  - the spec owns every sweep grid, preset list and default (what the
 *    19 legacy bench binaries used to hard-code in flag-parsing);
 *  - the scenario owns the figure-specific derivation and table
 *    layout (normalisation against a baseline row, geomeans, analytic
 *    companion columns);
 *  - the generic "sweep" scenario (registered here) needs no code at
 *    all: it expands `grid` x `points` x mixes and emits the headline
 *    metrics, so a brand-new experiment is one committed JSON file.
 *
 * Every RunResult produced through a ScenarioContext is stamped with
 * the spec name and the FNV-1a hash of the spec file bytes, and the
 * stamp travels into the exported JSON (spec_name / spec_hash fields)
 * so plotted artifacts are traceable to the exact spec revision.
 */

#ifndef FP_SIM_SCENARIO_HH
#define FP_SIM_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace fp::sim
{

/** FNV-1a 64-bit hash of @p text (the spec provenance hash). */
std::uint64_t specHash(const std::string &text);

/**
 * One named experiment point: a config-override set, optionally
 * pinned to a workload mix. Scenarios iterate these for their
 * preset/variant lists; the generic sweep scenario runs them as-is.
 */
struct SpecPoint
{
    std::string name;
    std::string mix; //!< Empty: the scenario decides (usually ctx.mixes).
    std::vector<ConfigOverride> overrides;
};

/** One cross-product axis of the generic sweep grid. */
struct GridAxis
{
    std::string key;
    std::vector<JsonValue> values;
};

/**
 * A parsed experiment spec. Everything the legacy bench binaries
 * hard-coded lives here; see spec_parse.hh for the JSON schema and
 * docs/ARCHITECTURE.md ("Authoring experiments") for the authoring
 * guide.
 */
struct ExperimentSpec
{
    std::string name;        //!< Experiment name (provenance stamp).
    std::string scenario;    //!< Registered scenario to dispatch to.
    std::string description; //!< One-line summary (--list output).

    /** Default mix list; empty means every Table 2 mix. The --mixes
     *  flag overrides it at run time. */
    std::vector<std::string> defaultMixes;

    /** Base SimConfig overrides, applied to paperDefault() in order
     *  before any command-line flag. */
    std::vector<ConfigOverride> base;

    /** Cross-product axes (generic sweep scenario). */
    std::vector<GridAxis> grid;

    /** Explicit point list (generic sweep + scenario preset lists). */
    std::vector<SpecPoint> points;

    /** Scenario-specific parameters (free-form JSON object). */
    JsonValue params;
    /** The params a command-line flag replaced: key -> flag text
     *  (their diagnostics name the flag, not a spec line). */
    std::map<std::string, std::string> paramFlags;

    /** Default --out path for scenarios that write a JSON document. */
    std::string defaultOut;

    /** Metrics the bench-baseline gate pins for this spec (documents
     *  tools/bench_baseline.py coverage; empty for ungated specs). */
    std::vector<std::string> gateMetrics;

    /** Extra flags the CI smoke lane appends when exercising this
     *  spec (tools/run_experiments.py). */
    std::vector<std::string> smokeArgs;
    /** Whether a smoke run emits a validatable Chrome trace (false
     *  for analytic scenarios that never build a System). */
    bool smokeTrace = true;

    SpecSource source;

    // --- typed params accessors -------------------------------------------
    // All fatal with the spec file/line on a missing required key or
    // a type mismatch, so scenarios never see half-valid parameters.

    bool hasParam(const std::string &key) const;
    std::uint64_t paramUint(const std::string &key) const;
    std::uint64_t paramUint(const std::string &key,
                            std::uint64_t def) const;
    double paramNum(const std::string &key, double def) const;
    std::string paramStr(const std::string &key,
                         const std::string &def) const;
    std::vector<std::uint64_t>
    paramUintList(const std::string &key) const;
    std::vector<double> paramNumList(const std::string &key) const;
    std::vector<std::string>
    paramStrList(const std::string &key) const;
    /** Required free-form param node. */
    const JsonValue &paramNode(const std::string &key) const;
};

/** One configuration a spec produces, before the mix fan-out. */
struct SpecConfig
{
    std::string name;
    std::string mix; //!< The point's mix pin; empty when unpinned.
    SimConfig cfg;
};

/**
 * The one point expander: the spec's explicit points (one anonymous
 * "base" point when it has none) crossed with its grid. Each config
 * is @p base, then the point's overrides, then the grid
 * combination's; grid axes nest rightmost-fastest and a combination
 * is named "<point>/<key>=<value>,...". Parse-time validation and
 * expandSpecPoints both call this.
 */
std::vector<SpecConfig> expandSpecConfigs(const ExperimentSpec &spec,
                                          const SimConfig &base);

/**
 * expandSpecConfigs, one SweepPoint per (config, mix) pair: a pinned
 * point runs its own mix, any other every mix of @p mixes. Point
 * names are "<mix>/<name>" when more than one mix is in play,
 * matching the legacy bench naming.
 */
std::vector<SweepPoint>
expandSpecPoints(const ExperimentSpec &spec, const SimConfig &base,
                 const std::vector<std::string> &mixes);

/**
 * Everything a scenario needs at run time: the spec (with its params
 * overridden by flags), the resolved base config and mix list, and
 * sweep helpers (policy forcing, fatal failed points, csv-aware
 * emission) plus provenance stamping. Scenarios read only these, not
 * the command line.
 *
 * A command-line flag must name a configuration key (configKeys()),
 * a key of the spec's `params` object, or a driver flag (quick, csv,
 * jobs, mixes, out, list-*); anything else is fatal with the list of
 * known flags. A flag may name a key and a param at once; it then
 * sets both.
 */
class ScenarioContext
{
  public:
    /**
     * The base config stacks, lowest first: paperDefault(), the
     * spec's `base`, the configuration-key flags (one more override
     * set, conflict-checked like a spec's), then --quick (150
     * requests, L=14). --policy/--batch-size are also forced again
     * onto every non-insecure point (applyPolicy). When the base
     * config writes a trace-out, stats-out or profile-out file, the
     * points run on one job (one stderr note says so), since every
     * point opens the same path.
     */
    ScenarioContext(const ExperimentSpec &spec, const CliArgs &args);

    const ExperimentSpec spec;

    /** paperDefault + spec base overrides + command-line flags. */
    SimConfig base;
    /** --mixes, else the spec's default list, else every mix. */
    std::vector<std::string> mixes;
    bool csv = false;
    SweepOptions sweepOpt;
    /** --out, else the spec's output.out (empty when neither). */
    std::string out;

    /** --policy / --batch-size, forced onto every non-insecure point
     *  after its series transform (empty/0 = no override). */
    std::string policyOverride;
    unsigned batchSizeOverride = 0;

    unsigned leafLevel() const
    {
        return base.controller.oram.leafLevel;
    }
    std::uint64_t requests() const { return base.requestsPerCore; }

    /** Force the policy/batch-size overrides onto a point config;
     *  the identity when neither flag was given. */
    SimConfig applyPolicy(SimConfig cfg) const;

    /** base + a spec point's overrides (conflict-checked at parse). */
    SimConfig pointConfig(const SpecPoint &point) const;

    /**
     * Run every point through a SweepRunner configured by --jobs,
     * forcing the policy override (insecure points excepted), fatal
     * on any failed point, stamping provenance; results come back in
     * point order.
     */
    std::vector<RunResult> run(std::vector<SweepPoint> points) const;

    /** Like run() but failed points come back as error outcomes
     *  (the faults scenario: degradation is the behaviour under
     *  test). */
    std::vector<SweepOutcome>
    runRaw(std::vector<SweepPoint> points) const;

    /** Run generic tasks on the same pool; fatal on failure. */
    void runTasks(std::vector<SweepTask> tasks) const;

    /** Stamp spec provenance onto a result (run()/runRaw() already
     *  do; exposed for scenarios that build results directly). */
    void stamp(RunResult &r) const;

    /** Print a table (CSV in --csv mode) followed by a blank line. */
    void emit(const TextTable &table) const;

    /** Figure header + the paper's takeaway (silent in --csv mode). */
    void banner(const std::string &figure,
                const std::string &paper_says) const;
};

using ScenarioFn = std::function<void(ScenarioContext &)>;

/** Register a scenario under @p name (last registration wins). */
void registerScenario(const std::string &name, ScenarioFn fn);

/** Every registered scenario name, sorted. */
std::vector<std::string> scenarioNames();

/** Is @p name a registered scenario? */
bool haveScenario(const std::string &name);

/**
 * Dispatch @p spec to its scenario with @p args; fatal when the
 * scenario is unknown. Returns the process exit status (0).
 */
int runSpec(const ExperimentSpec &spec, const CliArgs &args);

} // namespace fp::sim

#endif // FP_SIM_SCENARIO_HH
