/**
 * @file
 * A parametric CPU core model that replays a synthetic LLC-miss
 * stream against a memory sink.
 *
 * The model abstracts the paper's gem5 out-of-order Alpha cores down
 * to the two properties the ORAM evaluation depends on: how much
 * compute time separates LLC misses (the workload profile's miss
 * interval, drawn geometrically) and how many misses can be
 * outstanding at once (memory-level parallelism; 1 models an
 * in-order core, 8 the paper's 8-way out-of-order core).
 *
 * A core is done when it has issued its request budget and all
 * responses have returned; the finish tick of the slowest core is
 * the workload's execution time (Figure 14's slowdown metric).
 */

#ifndef FP_WORKLOAD_CORE_MODEL_HH
#define FP_WORKLOAD_CORE_MODEL_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "util/event_queue.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "workload/synthetic.hh"

namespace fp::workload
{

/**
 * Memory-side interface the core issues misses into; implemented by
 * the ORAM controller adapter and the insecure-DRAM adapter in
 * sim/system.
 */
class MemorySink
{
  public:
    using ResponseFn = std::function<void(Tick)>;

    virtual ~MemorySink() = default;

    /** True if a request would be accepted right now. */
    virtual bool canAccept() const = 0;

    /**
     * True if canAccept() changes only inside events on the core's
     * queue (or inside access()), never with the passage of time
     * alone. A core refused by such a sink waits on an EventQueue
     * poll, whose idle firings the kernel skips; other sinks are
     * re-polled by an ordinary event every retry period.
     */
    virtual bool capacityChangesOnlyInEvents() const { return false; }

    /**
     * Issue one miss. @p on_response fires at data return.
     * @return false if the sink is full (retry later).
     */
    virtual bool access(const MemRequest &req,
                        ResponseFn on_response) = 0;
};

struct CoreParams
{
    unsigned coreId = 0;
    /** CPU clock period in ticks (2 GHz -> 500). */
    Tick cpuPeriodTicks = 500;
    /** Maximum outstanding LLC misses (1 = in-order, 8 = OoO). */
    unsigned maxOutstanding = 8;
    /** Misses to issue before the core finishes. */
    std::uint64_t totalRequests = 10000;
    /**
     * Period, in CPU cycles, on which a core refused by its sink asks
     * again. Requests issue only on this grid, so it shapes results.
     * Against a sink whose capacity changes only in events the
     * re-asking is an EventQueue poll whose idle firings cost no host
     * time; the issue ticks are the same either way.
     */
    unsigned retryCycles = 50;
};

class CoreModel
{
  public:
    CoreModel(const CoreParams &params, const WorkloadProfile &profile,
              BlockAddr region_base, std::uint64_t seed,
              EventQueue &eq, MemorySink &sink);

    /** Begin issuing at the current simulation time. */
    void start();

    bool done() const
    {
        return issued_ == params_.totalRequests && outstanding_ == 0;
    }

    /** Tick at which the core completed its budget (valid if done). */
    Tick finishTick() const { return finishTick_; }

    std::uint64_t issued() const { return issued_; }
    const fp::Histogram &missLatency() const { return missLatency_; }
    const WorkloadProfile &profile() const
    {
        return stream_.profile();
    }

  private:
    void tryIssue();
    void scheduleTry(Tick when);
    /** Ask the sink again one retry period after @p now. */
    void scheduleRetry(Tick now);
    /** True when all a try would do is find the sink full again. */
    bool blockedOnSink() const;
    void onResponse(Tick issue_tick);

    CoreParams params_;
    AddressStream stream_;
    EventQueue &eq_;
    MemorySink &sink_;
    Rng rng_;

    std::uint64_t issued_ = 0;
    unsigned outstanding_ = 0;
    Tick nextIssueAt_ = 0;
    bool tryScheduled_ = false;
    Tick finishTick_ = 0;

    fp::Histogram missLatency_;
};

} // namespace fp::workload

#endif // FP_WORKLOAD_CORE_MODEL_HH
