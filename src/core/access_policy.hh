/**
 * @file
 * The scheduling-policy seam of the staged ORAM access pipeline.
 *
 * The Fork Path optimization (paper Section 3) is one point in a
 * family of path-scheduling strategies over the same Path ORAM
 * substrate; an AccessPolicy captures exactly the decisions that
 * family varies:
 *
 *  - whether path merging is in effect (fork-shaped read phases that
 *    start at the retained overlap with the previous refill);
 *  - whether a committed dummy / pending access may be replaced by a
 *    late-arriving real request (paper Cases 1-3);
 *  - when the admission stage may drain the address queue into the
 *    scheduler (the batched policy holds arrivals until a full batch
 *    is available while the backend is busy);
 *  - how the next access is selected from the label queue.
 *
 * Three policies are registered:
 *
 *   traditional  baseline Path ORAM: no merging, no replacing, plain
 *                FIFO-ish label-queue selection.
 *   forkpath     the paper's design (the default): label queue with
 *                dummy padding + overlap scheduling, path merging,
 *                dummy replacing (gated by
 *                ControllerParams::enableDummyReplacing so the
 *                ablation can switch it off independently).
 *   batched      merging without replacing, draining the address
 *                queue in fixed-size batches
 *                (ControllerParams::batchSize) — a deliberately
 *                simple third point proving the seam is real.
 *
 * Policies are constructed per controller instance (per shard under
 * core::ShardedOram) by makeAccessPolicy(); the registry functions
 * (parsePolicyKind / policyKindName / accessPolicyNames /
 * applyPolicyPreset) are the single construction path the CLI
 * (--policy=NAME) and the benches select by name.
 */

#ifndef FP_CORE_ACCESS_POLICY_HH
#define FP_CORE_ACCESS_POLICY_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/label_queue.hh"

namespace fp::core
{

struct ControllerParams;

/** The registered scheduling policies (see file comment). */
enum class PolicyKind
{
    traditional,
    forkpath,
    batched,
};

/**
 * One path-scheduling strategy, consulted by the admission stage
 * (admitFrontend) and the path scheduler (everything else). Policies
 * are stateless apart from configuration so a controller can be
 * replicated per shard without sharing.
 */
class AccessPolicy
{
  public:
    virtual ~AccessPolicy() = default;

    virtual PolicyKind kind() const = 0;
    virtual const char *name() const = 0;

    /** Fork-shaped path merging (read phases start at the retained
     *  overlap; the write phase stops at the scheduled overlap). */
    virtual bool merging() const = 0;

    /** Dummy replacing / pending swap (paper Section 3.3 Cases 1-3). */
    virtual bool replacing() const = 0;

    /**
     * May the admission stage drain the address queue right now?
     * Consulted once per pump with the number of issuable entries and
     * whether an ORAM access is currently in flight. Returning false
     * leaves the entries queued; a later pump (at the latest the one
     * that runs when the pipeline drains) flushes them.
     */
    virtual bool
    admitFrontend(std::size_t issuable, bool pipeline_busy) const
    {
        (void)issuable;
        (void)pipeline_busy;
        return true;
    }

    /**
     * Select the next access to run, w.r.t. the in-flight path
     * @p from (the previous label for a cold pick, the current
     * label at write issue). Merging policies restore the queue to
     * its padded capacity first so the revealed overlap statistics
     * stay intensity-independent.
     */
    virtual std::optional<LabelEntry>
    selectNext(LabelQueue &queue, LeafLabel from) = 0;
};

/** Parse a registry name ("traditional", "forkpath", "batched");
 *  unknown names are fatal with the list of valid ones. */
PolicyKind parsePolicyKind(const std::string &name);

/** The registry name of @p kind. */
const char *policyKindName(PolicyKind kind);

/** Every registered policy name, in registry order. */
std::vector<std::string> accessPolicyNames();

/**
 * Apply @p kind's canonical scheduling-family preset to @p params:
 * sets policy, enableDummyReplacing, labelQueueSize and cachePolicy,
 * leaving the ORAM geometry and every structural/timing knob alone.
 * This is the one construction path behind
 * ControllerParams::traditional()/forkPath(), the sim::with*
 * helpers and the `policy` and `variant` configuration keys.
 */
void applyPolicyPreset(ControllerParams &params, PolicyKind kind);

/** Build the policy object @p params selects (params.policy). */
std::unique_ptr<AccessPolicy>
makeAccessPolicy(const ControllerParams &params);

} // namespace fp::core

#endif // FP_CORE_ACCESS_POLICY_HH
