/**
 * @file
 * FaultInjector: a deterministic, seeded fault model layered over any
 * mem::MemoryBackend as a stacking decorator. It models the four ways
 * a real remote store misbehaves:
 *
 *  - request loss: the request vanishes before reaching the store;
 *    its completion never fires (the layer above must time out);
 *  - transient errors: the store answers, but with a failure — the
 *    request's onError callback fires after an error turnaround
 *    instead of onComplete;
 *  - latency spikes: the store answers correctly but late — delivery
 *    of the completion is delayed by a configured spike plus seeded
 *    jitter;
 *  - outage windows: for simulated time in [outageStart, outageEnd)
 *    the store is unreachable and every newly issued request is
 *    dropped (completions already in flight still arrive).
 *
 * Determinism: every decision comes from one private xoshiro stream,
 * and exactly four draws are consumed per request (loss, error,
 * spike, jitter) whether or not each fault class is enabled — so the
 * fault decision sequence is a pure function of (seed, request
 * index), independent of which classes are switched on and of
 * simulated time. All delayed deliveries run on the shared
 * EventQueue, keeping runs a pure function of config + seed.
 *
 * The injector never invents completions and never reorders the
 * requests it forwards; it only drops, delays or fails them. Pair it
 * with mem::ResilientBackend above to recover the exactly-once
 * onComplete contract of the backend seam.
 */

#ifndef FP_MEM_FAULT_INJECTOR_HH
#define FP_MEM_FAULT_INJECTOR_HH

#include <cstdint>

#include "mem/backend.hh"
#include "util/event_queue.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace fp::mem
{

struct FaultParams
{
    /** Probability a request is lost before reaching the store. */
    double lossRate = 0.0;
    /** Probability the store answers with a transient error. */
    double errorRate = 0.0;
    /** Probability a completed request's delivery is spiked. */
    double spikeRate = 0.0;
    /** Latency spike magnitude, microseconds. */
    double spikeUs = 500.0;
    /** Extra uniform jitter on top of a spike, microseconds. */
    double spikeJitterUs = 100.0;
    /** Turnaround of a transient error answer, microseconds. */
    double errorLatencyUs = 10.0;
    /** Outage window [start, end) in simulated microseconds; the
     *  window is active when end > start. */
    double outageStartUs = 0.0;
    double outageEndUs = 0.0;
    /** Seed of the injector's private decision stream. */
    std::uint64_t seed = 0x0badc0deULL;

    bool hasOutage() const { return outageEndUs > outageStartUs; }

    /** Any fault class live: the System builds the injector (and the
     *  resilient layer above it) only when this holds, so fault-free
     *  runs carry zero extra machinery. */
    bool
    enabled() const
    {
        return lossRate > 0.0 || errorRate > 0.0 || spikeRate > 0.0 ||
               hasOutage();
    }

    Tick spikeTicks() const { return usToTicksRound(spikeUs); }
    Tick
    spikeJitterTicks() const
    {
        return usToTicksRound(spikeJitterUs);
    }
    Tick
    errorLatencyTicks() const
    {
        return usToTicksRound(errorLatencyUs);
    }
    Tick outageStartTick() const { return usToTicksRound(outageStartUs); }
    Tick outageEndTick() const { return usToTicksRound(outageEndUs); }

    /** Microseconds to ticks (1 us = 1e6 ps), round to nearest. */
    static Tick usToTicksRound(double us);

    bool operator==(const FaultParams &) const = default;
};

class FaultInjector final : public MemoryBackend
{
  public:
    FaultInjector(const FaultParams &params, EventQueue &eq,
                  MemoryBackend &inner);

    void access(BackendRequest req) override;

    /** Idle when the wrapped store is idle and no delayed delivery
     *  (spike or error answer) is still owed by this layer. Lost
     *  requests are nobody's: the resilient layer above owns their
     *  liveness through its deadline timers. */
    bool idle() const override
    {
        return pendingDeliveries_ == 0 && inner_.idle();
    }
    std::size_t queueDepth() const override
    {
        return inner_.queueDepth() + pendingDeliveries_;
    }
    BackendStats statsSnapshot() const override
    {
        return inner_.statsSnapshot();
    }
    void setTracer(obs::Tracer *tracer) override;
    /** The injector adds no service time of its own to successful
     *  deliveries beyond what it injects; the wrapped store samples
     *  its own intervals, so just forward. */
    void setProfiler(obs::RequestProfiler *prof) override
    {
        inner_.setProfiler(prof);
    }
    void resetStats() override;

    std::uint64_t burstBytes() const override
    {
        return inner_.burstBytes();
    }
    std::uint64_t rowBytes() const override
    {
        return inner_.rowBytes();
    }
    const char *kind() const override { return inner_.kind(); }

    const FaultParams &params() const { return params_; }
    bool inOutage(Tick now) const;

    // --- injected-fault accessors (RunResult / tests) ------------------
    std::uint64_t lossInjected() const { return lossInjected_.value(); }
    std::uint64_t errorInjected() const
    {
        return errorInjected_.value();
    }
    std::uint64_t spikeInjected() const
    {
        return spikeInjected_.value();
    }
    std::uint64_t outageDropped() const
    {
        return outageDropped_.value();
    }
    std::uint64_t forwarded() const { return forwarded_.value(); }

    fp::StatGroup &stats() { return stats_; }

  private:
    FaultParams params_;
    EventQueue &eq_;
    MemoryBackend &inner_;
    obs::Tracer *trc_ = nullptr;
    Rng rng_;

    /** Spike/error answers scheduled but not yet delivered. */
    std::size_t pendingDeliveries_ = 0;

    fp::Counter lossInjected_;
    fp::Counter errorInjected_;
    fp::Counter spikeInjected_;
    fp::Counter outageDropped_;
    fp::Counter forwarded_;
    fp::Average spikeDelayUs_;
    fp::StatGroup stats_;
};

} // namespace fp::mem

#endif // FP_MEM_FAULT_INJECTOR_HH
