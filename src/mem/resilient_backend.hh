/**
 * @file
 * ResilientBackend: restores the exactly-once onComplete contract of
 * the memory-backend seam on top of a store that may lose, delay or
 * fail requests (mem::FaultInjector, or any future lossy model).
 *
 * Per request it:
 *  - arms a deadline fp::Timer on the shared EventQueue; a request
 *    whose completion has not arrived by the deadline is presumed
 *    lost and re-issued;
 *  - retries transient errors and timeouts with exponential backoff
 *    (base doubling per attempt, capped, plus seeded multiplicative
 *    jitter so retry storms decorrelate deterministically);
 *  - deduplicates completions racing a retry: the first completion
 *    to arrive wins — even from a superseded attempt — and every
 *    later one is counted and dropped, so the caller sees
 *    onComplete exactly once;
 *  - after 1 + maxRetries attempts escalates: the caller's onError
 *    fires if set, otherwise fp_panic — which, inside the System's
 *    recoverable-failure scope, surfaces as a SimFailure captured in
 *    the RunResult rather than a crash.
 *
 * Obliviousness under retry: the layer re-issues byte-identical
 * requests (same addr/isWrite/bytes) and never invents, reorders or
 * coalesces traffic, so the multiset of addresses the store observes
 * is the caller's sequence with some elements repeated — exactly the
 * information an adversary already has under Path ORAM's argument
 * (docs/ROBUSTNESS.md develops this).
 *
 * Determinism: backoff jitter comes from one private seeded stream
 * with one draw per scheduled retry; everything else is driven by the
 * shared EventQueue, so runs stay pure functions of config + seed.
 */

#ifndef FP_MEM_RESILIENT_BACKEND_HH
#define FP_MEM_RESILIENT_BACKEND_HH

#include <cstdint>
#include <unordered_map>

#include "mem/backend.hh"
#include "util/event_queue.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace fp::mem
{

struct RetryParams
{
    /** Per-attempt completion deadline, microseconds. Zero disables
     *  the whole layer (the System then builds no ResilientBackend);
     *  it must comfortably exceed the store's worst-case latency or
     *  slow successes will be double-issued. */
    double timeoutUs = 0.0;
    /** Re-issues after the first attempt; 0 means fail fast. */
    unsigned maxRetries = 5;
    /** Backoff before retry k (1-based): min(cap, base·2^(k-1)),
     *  scaled by (1 + jitter·u) with u uniform in [0,1). */
    double backoffBaseUs = 100.0;
    double backoffCapUs = 2000.0;
    double backoffJitter = 0.1;
    /** Seed of the private jitter stream. */
    std::uint64_t seed = 0x5e111e47ULL;

    bool enabled() const { return timeoutUs > 0.0; }

    Tick timeoutTicks() const { return usToTicksRound(timeoutUs); }

    /** Microseconds to ticks (1 us = 1e6 ps), round to nearest. */
    static Tick usToTicksRound(double us);

    bool operator==(const RetryParams &) const = default;
};

class ResilientBackend final : public MemoryBackend
{
  public:
    ResilientBackend(const RetryParams &params, EventQueue &eq,
                     MemoryBackend &inner);

    void access(BackendRequest req) override;

    bool idle() const override { return live_.empty() && inner_.idle(); }
    std::size_t queueDepth() const override { return live_.size(); }
    BackendStats statsSnapshot() const override
    {
        return inner_.statsSnapshot();
    }
    void setTracer(obs::Tracer *tracer) override;
    /** Retries re-enter the wrapped store, which samples each
     *  attempt's service interval itself; just forward. */
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

    const RetryParams &params() const { return params_; }

    // --- retry accessors (RunResult / tests) ---------------------------
    std::uint64_t requests() const { return requests_.value(); }
    std::uint64_t retries() const { return retries_.value(); }
    std::uint64_t timeouts() const { return timeouts_.value(); }
    std::uint64_t errors() const { return errors_.value(); }
    std::uint64_t dedupDropped() const { return dedupDropped_.value(); }
    std::uint64_t lateWins() const { return lateWins_.value(); }
    std::uint64_t exhausted() const { return exhausted_.value(); }
    /** Largest attempt count any single request needed. */
    std::uint64_t
    maxAttempts() const
    {
        return static_cast<std::uint64_t>(attemptsPerReq_.max());
    }

    fp::StatGroup &stats() { return stats_; }

  private:
    /** One user request, alive from access() until its single
     *  completion (or escalation) is delivered. */
    struct Pending
    {
        Addr addr = 0;
        bool isWrite = false;
        std::uint64_t bytes = 0;
        std::function<void(Tick)> onComplete;
        std::function<void(Tick)> onError;
        unsigned attempts = 0; //!< issues so far (1 = first try)
        Timer timer;           //!< deadline, then backoff, then deadline…

        explicit Pending(EventQueue &eq) : timer(eq) {}
    };

    void issueAttempt(std::uint64_t id);
    void onAttemptComplete(std::uint64_t id, unsigned attempt, Tick t);
    void onAttemptError(std::uint64_t id, unsigned attempt, Tick t);
    void onDeadline(std::uint64_t id);
    void retryOrEscalate(std::uint64_t id);
    Tick backoffTicks(unsigned retry_index);

    RetryParams params_;
    EventQueue &eq_;
    MemoryBackend &inner_;
    obs::Tracer *trc_ = nullptr;
    Rng rng_;

    std::unordered_map<std::uint64_t, Pending> live_;
    std::uint64_t nextId_ = 0;

    fp::Counter requests_;
    fp::Counter retries_;
    fp::Counter timeouts_;
    fp::Counter errors_;
    fp::Counter dedupDropped_;
    fp::Counter lateWins_;
    fp::Counter exhausted_;
    fp::Average attemptsPerReq_;
    fp::Average backoffUs_;
    fp::StatGroup stats_;
};

} // namespace fp::mem

#endif // FP_MEM_RESILIENT_BACKEND_HH
