/**
 * @file
 * Ablation renderer: the design-choice study DESIGN.md calls out,
 * beyond the paper's own figures — technique stack, dummy selection
 * policy, aging threshold, DRAM layout, recursion, page policy,
 * timing protection, integrity, and the scheduling-policy registry.
 * Knob values (queue size, MAC bytes, aging ladder, ...) live in
 * experiments/ablation.json.
 */

#include "core/access_policy.hh"
#include "scenarios/scenarios.hh"

namespace fp::bench
{

namespace
{

void
addRow(TextTable &table, const std::string &name,
       const sim::RunResult &r, double trad_latency)
{
    table.addRow(
        {name, TextTable::fmt(r.avgLlcLatencyNs, 0),
         TextTable::fmt(r.avgLlcLatencyNs / trad_latency, 3),
         TextTable::fmt(r.avgReadPathLen, 2),
         TextTable::fmt(static_cast<double>(r.dummyAccesses) /
                            static_cast<double>(r.realAccesses),
                        3),
         TextTable::fmt(r.totalEnergyNj() / 1e6, 1)});
}

} // namespace

void
registerAblationScenario()
{
    sim::registerScenario("ablation", [](sim::ScenarioContext &ctx) {
        const std::string mix = ctx.spec.paramStr("mix", "Mix3");
        const auto queue = static_cast<unsigned>(
            ctx.spec.paramUint("queue", 64));
        const auto mac_bytes =
            ctx.spec.paramUint("mac-bytes", 1 << 20);
        const std::vector<unsigned> aging = asUnsigned(
            ctx.spec.paramUintList("aging-thresholds"));
        const auto periodic_ticks =
            ctx.spec.paramUint("periodic-interval-ticks", 1'300'000);
        const auto recursion_depth = static_cast<unsigned>(
            ctx.spec.paramUint("recursion-depth", 2));
        const auto plb_entries = static_cast<unsigned>(
            ctx.spec.paramUint("plb-entries", 4096));

        ctx.banner(
            "Ablation: Fork Path technique stack and design knobs",
            "(beyond the paper's figures; see DESIGN.md section 4)");

        const auto &base = ctx.base;

        // Phase 1: declare every configuration (in emission order)
        // as a named sweep point; phase 2 runs them all (in parallel
        // under --jobs) and the tables consume the ordered results.
        std::vector<sim::SweepPoint> points;
        std::vector<std::string> names;
        auto add = [&](const std::string &name, sim::SimConfig cfg) {
            names.push_back(name);
            points.push_back(
                sim::pointFromMix(name, std::move(cfg), mix));
        };

        add("traditional", sim::withTraditional(base));
        add("+merging (q=1)", sim::withMergeOnly(base, 1));
        add("+scheduling (q=" + std::to_string(queue) + ")",
            sim::withMergeOnly(base, queue));
        {
            auto no_replace = sim::withMergeOnly(base, queue);
            no_replace.controller.enableDummyReplacing = false;
            add("q=" + std::to_string(queue) + ", no replacing",
                no_replace);
        }
        add("+MAC 1MB", sim::withMergeMac(
                            base, static_cast<unsigned>(mac_bytes),
                            queue));

        {
            auto compete = sim::withMergeOnly(base, queue);
            compete.controller.dummyPolicy =
                core::DummySelectPolicy::compete;
            add("compete (paper)", compete);
            auto real_first = sim::withMergeOnly(base, queue);
            real_first.controller.dummyPolicy =
                core::DummySelectPolicy::realFirst;
            add("realFirst (leaky)", real_first);
        }

        for (unsigned t : aging) {
            auto cfg = sim::withMergeOnly(base, queue);
            cfg.controller.agingThreshold = t;
            add(t >= (1u << 20) ? "T=inf" : "T=" + std::to_string(t),
                cfg);
        }

        add("subtree rows", sim::withMergeOnly(base, queue));
        {
            auto linear = sim::withMergeOnly(base, queue);
            linear.controller.layout = dram::LayoutPolicy::linear;
            add("linear (heap order)", linear);
        }

        add("flat on-chip posmap", sim::withMergeOnly(base, queue));
        {
            auto rec = sim::withMergeOnly(base, queue);
            rec.controller.recursionDepth = recursion_depth;
            add("2-level recursion", rec);
            auto plb = rec;
            plb.controller.plbEntries = plb_entries;
            add("2-level + 4K-entry PLB", plb);
        }

        add("open page (FR-FCFS)", sim::withMergeOnly(base, queue));
        {
            auto closed = sim::withMergeOnly(base, queue);
            closed.dram.pagePolicy = dram::PagePolicy::closed;
            add("closed page (auto-PRE)", closed);
        }

        add("demand-driven (paper eval)",
            sim::withMergeOnly(base, queue));
        {
            auto periodic = sim::withMergeOnly(base, queue);
            // One access slot per ~1.3 us: roughly the merged
            // service rate, so the stream adds little queueing when
            // busy but never stops when idle (Section 2.2's sealed
            // channel).
            periodic.controller.periodicIntervalTicks =
                periodic_ticks;
            add("periodic 1.3us slots", periodic);
        }

        add("integrity off", sim::withMergeOnly(base, queue));
        {
            auto on = sim::withMergeOnly(base, queue);
            on.controller.enableIntegrity = true;
            add("integrity on (hash-only cost)", on);
        }

        // Every registered scheduling policy under its canonical
        // preset, selected by name through the same registry path as
        // --policy.
        const auto policy_names = core::accessPolicyNames();
        for (const auto &name : policy_names)
            add("policy: " + name, sim::withPolicyName(base, name));

        auto results = ctx.run(std::move(points));
        const auto &trad = results[0];
        std::size_t next = 1;
        auto row = [&](TextTable &table) {
            addRow(table, names[next], results[next],
                   trad.avgLlcLatencyNs);
            ++next;
        };
        const std::string q_tag =
            "(q=" + std::to_string(queue) + ", " + mix + ")";

        TextTable stack("technique stack (" + mix + ")");
        stack.setHeader({"config", "latency_ns", "norm", "path_len",
                         "dummy/real", "energy_mJ"});
        stack.addRow(
            {"traditional", TextTable::fmt(trad.avgLlcLatencyNs, 0),
             "1.000", TextTable::fmt(trad.avgReadPathLen, 2),
             "0.000", TextTable::fmt(trad.totalEnergyNj() / 1e6, 1)});
        for (int i = 0; i < 4; ++i)
            row(stack);
        ctx.emit(stack);

        TextTable policy("dummy selection policy " + q_tag);
        policy.setHeader({"config", "latency_ns", "norm", "path_len",
                          "dummy/real", "energy_mJ"});
        for (int i = 0; i < 2; ++i)
            row(policy);
        ctx.emit(policy);

        TextTable aging_t("aging threshold " + q_tag);
        aging_t.setHeader({"config", "latency_ns", "norm",
                           "path_len", "dummy/real", "energy_mJ"});
        for (std::size_t i = 0; i < aging.size(); ++i)
            row(aging_t);
        ctx.emit(aging_t);

        TextTable layout("DRAM layout " + q_tag);
        layout.setHeader({"config", "latency_ns", "norm", "path_len",
                          "dummy/real", "energy_mJ"});
        for (int i = 0; i < 2; ++i)
            row(layout);
        ctx.emit(layout);

        TextTable recursion("hierarchical position map " + q_tag);
        recursion.setHeader({"config", "latency_ns", "norm",
                             "path_len", "dummy/real", "energy_mJ"});
        for (int i = 0; i < 3; ++i)
            row(recursion);
        ctx.emit(recursion);

        TextTable paging("DRAM page policy " + q_tag);
        paging.setHeader({"config", "latency_ns", "norm", "path_len",
                          "dummy/real", "energy_mJ"});
        for (int i = 0; i < 2; ++i)
            row(paging);
        ctx.emit(paging);

        TextTable timing("timing-channel protection " + q_tag);
        timing.setHeader({"config", "latency_ns", "norm", "path_len",
                          "dummy/real", "energy_mJ"});
        for (int i = 0; i < 2; ++i)
            row(timing);
        ctx.emit(timing);

        TextTable integrity("Merkle integrity " + q_tag);
        integrity.setHeader({"config", "latency_ns", "norm",
                             "path_len", "dummy/real", "energy_mJ"});
        for (int i = 0; i < 2; ++i)
            row(integrity);
        ctx.emit(integrity);

        TextTable polreg("scheduling policy registry (" + mix + ")");
        polreg.setHeader({"config", "latency_ns", "norm", "path_len",
                          "dummy/real", "energy_mJ"});
        for (std::size_t i = 0; i < policy_names.size(); ++i)
            row(polreg);
        ctx.emit(polreg);
    });
}

} // namespace fp::bench
