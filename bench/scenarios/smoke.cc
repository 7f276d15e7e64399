/**
 * @file
 * Smoke renderer: the CI smoke benchmark — pinned configuration
 * points small enough to finish in seconds, run with per-request
 * profiling on, and dumped as machine-readable JSON for the
 * bench-baseline regression gate (tools/bench_baseline.py compares
 * the output against tools/baselines/BENCH_smoke.baseline.json).
 *
 * The points are frozen in experiments/smoke.json — traditional Path
 * ORAM, Fork Path merging at two queue depths, merging + MAC, and a
 * sharded merging point (4 shards on the network store), all on Mix3
 * at requests=150 / leaf-level=14 — so the baseline file stays
 * meaningful across commits. Runs are deterministic at any --jobs
 * (SweepRunner contract), so the JSON is byte-stable on one machine
 * and value-stable everywhere. Spec runs additionally stamp
 * spec_name / spec_hash into each result record; the gate ignores
 * those provenance fields.
 */

#include <fstream>
#include <iostream>

#include "scenarios/scenarios.hh"
#include "util/logging.hh"

namespace fp::bench
{

namespace
{

/** Per-stage p50 of one profiled stage, for the progress table. */
double
stageP50(const sim::RunResult &r, const std::string &stage)
{
    for (const auto &s : r.profileStages) {
        if (s.stage == stage)
            return s.p50Ns;
    }
    return 0.0;
}

} // namespace

void
registerSmokeScenario()
{
    sim::registerScenario("smoke", [](sim::ScenarioContext &ctx) {
        const std::string out_path =
            ctx.out.empty() ? "BENCH_smoke.json" : ctx.out;

        ctx.banner("CI smoke sweep (bench-baseline gate)",
                   "n/a — regression gate, not a paper figure");

        const std::string mix = ctx.spec.paramStr("mix", "Mix3");
        std::vector<sim::SweepPoint> points;
        std::vector<std::string> names;
        for (const auto &c : ctx.spec.points) {
            auto cfg = ctx.pointConfig(c);
            // Profiling always on: the baseline tracks effectiveness
            // counters and stage percentiles alongside the headline
            // metrics.
            cfg.obs.profileRequests = true;
            names.push_back(c.name);
            points.push_back(sim::pointFromMix(
                c.name, std::move(cfg),
                c.mix.empty() ? mix : c.mix));
        }

        auto results = ctx.run(std::move(points));

        TextTable table("smoke points (" + mix + ", requests=" +
                        std::to_string(ctx.requests()) + ", leaf=" +
                        std::to_string(ctx.leafLevel()) + ")");
        table.setHeader({"point", "exec_ticks", "llc_ns", "path_len",
                         "buckets_saved", "total_p50_ns"});
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            table.addRow(
                {names[i],
                 TextTable::fmt(std::uint64_t{r.executionTicks}),
                 TextTable::fmt(r.avgLlcLatencyNs, 1),
                 TextTable::fmt(r.avgReadPathLen, 2),
                 TextTable::fmt(
                     r.profileEffectiveness.bucketsSaved()),
                 TextTable::fmt(stageP50(r, "total"), 1)});
        }
        ctx.emit(table);

        // JsonWriter has no raw-embed, so the document is spliced by
        // hand from toJson() fragments (each already a complete JSON
        // object).
        std::string doc = "{\"schema\":\"forkpath-bench-smoke-v1\","
                          "\"points\":[";
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i)
                doc += ',';
            doc += "{\"name\":\"" + JsonWriter::escape(names[i]) +
                   "\",\"result\":" + sim::toJson(results[i]) + "}";
        }
        doc += "]}";

        std::ofstream out(out_path);
        if (!out)
            fp_fatal("cannot open --out file '%s'",
                     out_path.c_str());
        out << doc << '\n';
        if (!ctx.csv)
            std::cout << "wrote " << out_path << "\n";
    });
}

} // namespace fp::bench
