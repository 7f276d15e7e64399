/**
 * @file
 * Scheduling stage of the access pipeline: owns the label queue, the
 * pool of admitted-but-unscheduled accesses and the AccessPolicy, and
 * makes every path decision —
 *
 *  - which access runs next when the backend goes idle (selectFresh);
 *  - which access is scheduled as `pending` at write issue, defining
 *    the refill stop level (scheduleWriteback);
 *  - whether a late-arriving real request may replace/steal the
 *    pending slot while the refill's crossing bucket is unissued
 *    (tryReplaceOrSwap — paper Section 3.3 Cases 1-3).
 *
 * The policy object decides padding and selection; the scheduler owns
 * the mechanics and the scheduling stats (overlap histogram, dummy
 * replacements, pending swaps).
 */

#ifndef FP_CORE_PATH_SCHEDULER_HH
#define FP_CORE_PATH_SCHEDULER_HH

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/access_policy.hh"
#include "core/pipeline.hh"
#include "core/writeback_engine.hh"
#include "util/stats.hh"

namespace fp::core
{

class PathScheduler
{
  public:
    PathScheduler(PipelineContext &ctx, WritebackEngine &wb);

    const AccessPolicy &policy() const { return *policy_; }

    LabelQueue &labelQueue() { return labelQueue_; }
    const LabelQueue &labelQueue() const { return labelQueue_; }

    /** Room for another real entry without overflow. */
    bool hasSpaceForReal() const
    {
        return labelQueue_.hasSpaceForReal();
    }

    /** Park an admitted access in the pool + label queue. */
    void enqueue(const ActiveAccess &access);

    /** Pick a fresh access for an idle backend (policy selection);
     *  nullopt when the policy has nothing to run. */
    std::optional<ActiveAccess> selectFresh();

    /**
     * At write issue: schedule the next access as `pending` and
     * return the refill stop level of @p cur (0 for non-merging
     * policies, which leave `pending` empty).
     */
    unsigned scheduleWriteback(const ActiveAccess &cur);

    /**
     * Dummy replacing / pending swap against the in-flight refill of
     * @p current (Cases 1-3). True when @p incoming was absorbed into
     * the pending slot; false leaves it for the label queue.
     */
    bool tryReplaceOrSwap(const ActiveAccess &incoming,
                          const std::optional<ActiveAccess> &current);

    std::optional<ActiveAccess> &pending() { return pending_; }

    /** Hand the scheduled access over as the next current. */
    std::optional<ActiveAccess> takePending()
    {
        std::optional<ActiveAccess> p = std::move(pending_);
        pending_.reset();
        return p;
    }

    /** Record the finished access's revealed shape: its label is the
     *  next fork reference, its stop level the retained prefix. */
    void noteAccessDone(LeafLabel label, unsigned stop_level)
    {
        prevLabel_ = label;
        retainedLevels_ = stop_level;
    }

    /** Fork point: first level the next read phase must fetch. */
    unsigned retainedLevels() const { return retainedLevels_; }

    /** Real work parked in this stage (queue or pending slot). */
    bool realWork() const
    {
        return labelQueue_.realCount() > 0 ||
               (pending_ && !pending_->dummy);
    }

    const fp::Counter &dummyReplacementsStat() const
    {
        return dummyReplacements_;
    }
    std::uint64_t dummyReplacements() const
    {
        return dummyReplacements_.value();
    }
    const fp::Counter &pendingSwapsStat() const
    {
        return pendingSwaps_;
    }
    std::uint64_t pendingSwaps() const
    {
        return pendingSwaps_.value();
    }
    const fp::Histogram &overlapHist() const { return overlapHist_; }

    fp::StatGroup &stats() { return stats_; }

  private:
    ActiveAccess toActive(const LabelEntry &entry);

    PipelineContext &ctx_;
    WritebackEngine &wb_;

    LabelQueue labelQueue_;
    std::unique_ptr<AccessPolicy> policy_;

    /** Real accesses parked in the label queue, keyed by token. */
    std::unordered_map<std::uint64_t, ActiveAccess> accessPool_;
    std::uint64_t nextToken_ = 1;

    std::optional<ActiveAccess> pending_;
    unsigned retainedLevels_ = 0;
    LeafLabel prevLabel_ = 0;

    fp::Counter scheduled_;
    fp::Counter dummyReplacements_;
    fp::Counter pendingSwaps_;
    fp::Histogram overlapHist_;
    fp::StatGroup stats_;
};

} // namespace fp::core

#endif // FP_CORE_PATH_SCHEDULER_HH
