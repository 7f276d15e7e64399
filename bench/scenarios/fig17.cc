/**
 * @file
 * Figure 17 renderer: sensitivity to (a) thread count and (b) ORAM
 * capacity, reporting Fork Path ORAM latency normalized to
 * traditional (geomean over generated mixes). The thread counts, size
 * ladder and sample count live in experiments/fig17.json.
 */

#include "scenarios/scenarios.hh"
#include "workload/mixes.hh"

namespace fp::bench
{

namespace
{

/** Append a fork/traditional point pair for one generated mix. */
void
addPair(std::vector<sim::SweepPoint> &points, const std::string &name,
        const sim::SimConfig &cfg,
        const std::vector<workload::WorkloadProfile> &mix)
{
    points.push_back(sim::pointFromProfiles(
        name + "/fork", sim::withMergeMac(cfg, 1 << 20, 64), mix));
    points.push_back(sim::pointFromProfiles(
        name + "/traditional", sim::withTraditional(cfg), mix));
}

/** Geomean of fork/traditional latency over consecutive pairs. */
double
pairGeomean(const std::vector<sim::RunResult> &results,
            std::size_t first_pair, std::size_t npairs)
{
    std::vector<double> ratios;
    for (std::size_t s = 0; s < npairs; ++s) {
        const auto &fork = results[2 * (first_pair + s)];
        const auto &trad = results[2 * (first_pair + s) + 1];
        ratios.push_back(fork.avgLlcLatencyNs /
                         trad.avgLlcLatencyNs);
    }
    return sim::geomean(ratios);
}

} // namespace

void
registerFig17Scenario()
{
    sim::registerScenario("fig17", [](sim::ScenarioContext &ctx) {
        const auto mixes_per_point =
            static_cast<unsigned>(ctx.spec.paramUint("samples", 3));

        ctx.banner(
            "Figure 17: thread count and ORAM size sensitivity",
            "(a) advantage grows with threads; (b) degrades "
            "moderately with ORAM size");

        const auto &base = ctx.base;
        const std::vector<unsigned> thread_counts =
            asUnsigned(ctx.spec.paramUintList("threads"));
        const auto size_names = ctx.spec.paramStrList("size-names");
        const auto size_leaves =
            asUnsigned(ctx.spec.paramUintList("size-leaves"));
        if (size_names.size() != size_leaves.size())
            sim::specFail(ctx.spec.source, ctx.spec.params,
                          "params.size-names and params.size-leaves "
                          "must be the same length");

        // Both sub-figures in one sweep: (a)'s pairs first, then
        // (b)'s.
        std::vector<sim::SweepPoint> points;
        for (unsigned cores : thread_counts) {
            for (unsigned s = 0; s < mixes_per_point; ++s) {
                auto mix = workload::makeMixForCores(cores, 40 + s);
                auto cfg = base;
                cfg.cores = cores;
                addPair(points,
                        "threads=" + std::to_string(cores) + "/s" +
                            std::to_string(s),
                        cfg, mix);
            }
        }
        for (std::size_t i = 0; i < size_names.size(); ++i) {
            for (unsigned s = 0; s < mixes_per_point; ++s) {
                auto mix = workload::makeMixForCores(4, 80 + s);
                auto cfg = base;
                cfg.cores = 4;
                cfg.controller.oram.leafLevel = size_leaves[i];
                addPair(points,
                        size_names[i] + "/s" + std::to_string(s),
                        cfg, mix);
            }
        }
        auto results = ctx.run(std::move(points));

        TextTable a("Fig 17(a): latency/traditional vs threads "
                    "(merge+1M MAC)");
        a.setHeader({"threads", "latency_norm"});
        for (std::size_t c = 0; c < thread_counts.size(); ++c) {
            a.addRow({std::to_string(thread_counts[c]),
                      TextTable::fmt(pairGeomean(results,
                                                 c * mixes_per_point,
                                                 mixes_per_point),
                                     3)});
        }
        ctx.emit(a);

        TextTable b("Fig 17(b): latency/traditional vs ORAM size "
                    "(4 threads, merge+1M MAC)");
        b.setHeader({"oram_size", "leaf_level", "latency_norm"});
        const std::size_t b_first =
            thread_counts.size() * mixes_per_point;
        for (std::size_t i = 0; i < size_names.size(); ++i) {
            b.addRow({size_names[i], std::to_string(size_leaves[i]),
                      TextTable::fmt(
                          pairGeomean(results,
                                      b_first + i * mixes_per_point,
                                      mixes_per_point),
                          3)});
        }
        ctx.emit(b);
    });
}

} // namespace fp::bench
