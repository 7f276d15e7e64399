/**
 * @file
 * Configuration of the staged ORAM access pipeline (the
 * core::OramController and its admission / scheduling / read /
 * writeback stages). Split out of oram_controller.hh so the stage
 * headers can share it without circular includes.
 */

#ifndef FP_CORE_CONTROLLER_PARAMS_HH
#define FP_CORE_CONTROLLER_PARAMS_HH

#include <cstdint>

#include "core/access_policy.hh"
#include "dram/address_mapping.hh"
#include "oram/oram_params.hh"
#include "util/types.hh"

namespace fp::core
{

enum class CachePolicy
{
    none,
    treetop,
    mac,
};

struct ControllerParams
{
    oram::OramParams oram;

    // --- scheduling policy ---------------------------------------------
    /**
     * The path-scheduling policy (see core/access_policy.hh).
     * `forkpath` is the paper's design and the default; `traditional`
     * is the baseline Path ORAM machine; `batched` drains the address
     * queue in fixed-size batches.
     */
    PolicyKind policy = PolicyKind::forkpath;
    unsigned labelQueueSize = 64;
    /**
     * Selection rounds a real request may lose to better-overlapping
     * entries before it is force-promoted (the Cnt threshold of
     * Figure 9). Small values bound the dummy-competition penalty of
     * low-intensity workloads; large values let the overlap
     * heuristic act freely under backlog.
     */
    unsigned agingThreshold = 4;
    DummySelectPolicy dummyPolicy = DummySelectPolicy::compete;
    /** Dummy replacing (forkpath only; the ablation's off-switch). */
    bool enableDummyReplacing = true;
    /** Admission batch of the `batched` policy (ignored otherwise). */
    unsigned batchSize = 8;

    // --- caching -------------------------------------------------------
    CachePolicy cachePolicy = CachePolicy::none;
    std::uint64_t cacheBudgetBytes = std::uint64_t{1} << 20;
    unsigned macBucketsPerSet = 2;
    /** Bottom MAC level; -1 derives m1 from the queue size. */
    int macM1 = -1;

    // --- structure -------------------------------------------------------
    /** Position-map recursion levels modelled as access chains. */
    unsigned recursionDepth = 0;
    /** Translations per posmap block (PLB geometry). */
    unsigned recursionFanout = 8;
    /** PLB capacity in translations (0 = no PLB). */
    std::size_t plbEntries = 0;
    std::size_t addressQueueSize = 128;

    /**
     * Background eviction (Ren et al.): while the stash is at or
     * above its soft capacity, keep running dummy accesses instead
     * of parking, draining blocks back into the tree.
     */
    bool backgroundEviction = true;

    /**
     * Maintain and check a Merkle hash tree over the ORAM tree
     * (paper Section 2.2's combinable integrity protection). A
     * failed verification is a detected active attack and panics.
     */
    bool enableIntegrity = false;

    // --- timing ----------------------------------------------------------
    /** Outstanding bucket writes during a refill (paces commitment). */
    unsigned writeWindow = 4;
    /** Gap between read and write phases (Figure 1(c) idle). */
    Tick idleGapTicks = 10'000; // 10 ns

    /**
     * Periodic (nonstop-stream) operation, paper Section 2.2: when
     * non-zero, an ORAM access starts every this many ticks whether
     * or not real requests exist, fully sealing the timing channel.
     * 0 = demand-driven operation (what the paper's evaluation
     * uses). In periodic mode the event queue never drains; drive
     * the simulation with a bounded run.
     */
    Tick periodicIntervalTicks = 0;
    /** DRAM footprint of one block (meta folded in). */
    std::uint64_t blockPhysBytes = 64;
    dram::LayoutPolicy layout = dram::LayoutPolicy::subtree;

    std::uint64_t bucketBytes() const
    {
        return blockPhysBytes * oram.z;
    }

    /** True when the selected policy performs path merging. */
    bool merging() const { return policy != PolicyKind::traditional; }

    /**
     * Reject configurations the pipeline cannot run (zero-sized
     * queues, a refill window that never issues, ...) with fp_fatal
     * instead of silently misbehaving. Called by every
     * OramController constructor, which covers sim::System,
     * SyncOram and core::ShardedOram alike.
     */
    void validate() const;

    /** The paper's traditional (baseline) Path ORAM configuration. */
    static ControllerParams traditional();

    /** The paper's default Fork Path configuration (queue 64). */
    static ControllerParams forkPath();

    bool operator==(const ControllerParams &) const = default;
};

} // namespace fp::core

#endif // FP_CORE_CONTROLLER_PARAMS_HH
