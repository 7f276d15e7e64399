/**
 * @file
 * The full-system harness: cores -> (ORAM controller | insecure
 * memory) -> DRAM, all on one event queue. One System object is one
 * experiment run; it produces a RunResult for the figure harnesses.
 */

#ifndef FP_SIM_SYSTEM_HH
#define FP_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/oram_controller.hh"
#include "core/sharded_oram.hh"
#include "obs/interval_stats.hh"
#include "obs/request_profiler.hh"
#include "obs/tracer.hh"
#include "sim/memory_stack.hh"
#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "util/event_queue.hh"
#include "util/stats.hh"
#include "workload/core_model.hh"

namespace fp::sim
{

class System
{
  public:
    /**
     * @param cfg      System configuration.
     * @param profiles One workload profile per core (size must equal
     *                 cfg.cores).
     */
    System(const SimConfig &cfg,
           std::vector<workload::WorkloadProfile> profiles);
    ~System();

    /**
     * Run until every core finishes its request budget, or until the
     * event queue passes @p limit ticks. A truncated run returns a
     * RunResult with hitTickLimit set (and executionTicks at the
     * truncation point) rather than aborting, so sweeps can record
     * the partial outcome and move on.
     */
    RunResult run(Tick limit = maxTick);

    /** One memory store: its decorator stack plus the observability
     *  its layers and its controller report to. An unsharded run has
     *  one store; a sharded run has one per shard. */
    struct Store
    {
        /** Shard s's view of the root tracer (same file, tracks at
         *  tid offset 32 * s, "s<N>." names); null unless sharded. */
        std::unique_ptr<obs::Tracer> tracerView;
        /** The root tracer when unsharded, else tracerView; null
         *  unless cfg.obs.traceOut was set. */
        obs::Tracer *tracer = nullptr;
        /** Null unless per-request profiling is on (and not
         *  insecure: the profiler follows ORAM pipeline milestones).
         *  A sharded run rolls these up into the RunResult. */
        std::unique_ptr<obs::RequestProfiler> profiler;
        MemoryStack stack;
    };

    EventQueue &eventQueue() { return eq_; }
    /** Store @p s, for s < numStores() (== max(cfg.shards, 1)). */
    Store &store(unsigned s) { return stores_[s]; }
    unsigned numStores() const
    {
        return static_cast<unsigned>(stores_.size());
    }
    /** Null in insecure mode (or when sharded — see sharded()). */
    core::OramController *controller() { return ctrl_.get(); }
    /** The shard dispatcher; null unless cfg.shards > 1. */
    core::ShardedOram *sharded() { return sharded_.get(); }
    /** Null unless cfg.obs.traceOut was set. */
    obs::Tracer *tracer() { return tracer_.get(); }
    /** This system's statistics registry (instance-scoped so several
     *  Systems can coexist, e.g. on sweep worker threads). */
    const StatRegistry &statRegistry() const { return registry_; }
    const std::vector<std::unique_ptr<workload::CoreModel>> &
    cores() const
    {
        return cores_;
    }

  private:
    template <typename FrontEnd> class OramSink;
    class InsecureSink;

    bool allDone() const;
    bool resilienceConfigured() const;

    SimConfig cfg_;
    /** Must precede every stat-owning component: StatGroups capture
     *  the thread's current registry at construction and deregister
     *  from it on destruction, so the registry must be built first
     *  and torn down last. */
    StatRegistry registry_;
    EventQueue eq_;
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<obs::IntervalStats> intervalStats_;
    /** Declared before the controllers that issue against them, so
     *  the controllers are destroyed first. */
    std::vector<Store> stores_;
    /** Exactly one of ctrl_ (one store) and sharded_ (several) is
     *  set, unless insecure (neither). */
    std::unique_ptr<core::OramController> ctrl_;
    std::unique_ptr<core::ShardedOram> sharded_;
    /** One controller per store (empty when insecure), for the
     *  aggregation in run(). */
    std::vector<core::OramController *> ctrls_;
    std::unique_ptr<workload::MemorySink> sink_;
    std::vector<std::unique_ptr<workload::CoreModel>> cores_;
};

} // namespace fp::sim

#endif // FP_SIM_SYSTEM_HH
