/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Two kinds of work share one global order by (tick, sequence):
 * one-shot events, kept in a binary heap, and periodic polls, kept in
 * a short list beside it (a handful at most, one per blocked core).
 * Items at the same tick run in the order they were scheduled, which
 * makes the simulation fully deterministic for a given seed.
 *
 * A poll behaves exactly like an event that re-schedules itself one
 * period later for as long as its callback returns true, except that
 * the kernel may skip the firings that would do nothing: once every
 * poll has been seen to only re-arm since the last other event ran,
 * the polls due before the next event jump straight to the grid
 * ticks they would reach, in the order they would reach them.
 *
 * The kernel is intentionally minimal: components capture what they
 * need in the callback. Cancellation is handled by generation counters
 * inside components rather than by removing queue entries (removal
 * from a binary heap is more expensive than letting a stale event fire
 * into a no-op).
 */

#ifndef FP_UTIL_EVENT_QUEUE_HH
#define FP_UTIL_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/types.hh"

namespace fp
{

/** The event callback type. */
using EventFn = std::function<void()>;

/** The poll callback type: returns true to re-arm one period later. */
using PollFn = std::function<bool()>;

class EventQueue
{
  public:
    /**
     * Schedule @p fn to run at absolute time @p when.
     * @p when must not be in the past.
     */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delta ticks from now. */
    void scheduleIn(Tick delta, EventFn fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /**
     * Fire @p fn at @p when, then every @p period ticks for as long
     * as it returns true.
     *
     * @p fn must return true only when re-arming is all it did, and
     * its answer may change only when some other queued work runs (an
     * event, or a poll that returns false). The kernel relies on this
     * to skip firings that would only re-arm.
     */
    void schedulePoll(Tick when, Tick period, PollFn fn);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Stable pointer to the clock (for the debug-trace prefix). */
    const Tick *nowPtr() const { return &now_; }

    /** True when no events or polls remain. */
    bool empty() const { return heap_.empty() && polls_.empty(); }

    /** Pending events plus pending polls. */
    std::size_t size() const { return heap_.size() + polls_.size(); }

    /**
     * Execute events until the queue drains or @p limit is reached
     * (events at exactly @p limit still run).
     * @return the number of events and poll firings executed; skipped
     * idle firings do not count.
     */
    std::uint64_t run(Tick limit = maxTick);

    /**
     * Execute events while @p pred() holds and the queue is non-empty.
     * @p pred is checked between executed items, not between skipped
     * idle poll firings, so it must not turn false with time alone.
     * @return the number of events and poll firings executed.
     */
    std::uint64_t runWhile(const std::function<bool()> &pred);

    /**
     * Execute exactly one event or poll firing if available. Idle
     * polls are skipped only towards an event at or before @p limit,
     * so a caller that stops once now() passes @p limit stops on the
     * same tick as without skipping.
     * @return true if run.
     */
    bool step(Tick limit = maxTick);

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    struct Poll
    {
        Tick when;
        std::uint64_t seq;
        Tick period;
        PollFn fn;
        /** Equal to epoch_ while the poll is known to only re-arm. */
        std::uint64_t cleanEpoch;
    };

    /** A poll skipIdlePolls() moves: its last skipped firing, its
     *  pending tick and sequence number, and its place in polls_. */
    struct Moved
    {
        Tick lastFire;
        Tick when;
        std::uint64_t seq;
        std::size_t index;
    };

    /** Heap order: true when @p a runs after @p b. */
    struct Later
    {
        template <class A, class B>
        bool
        operator()(const A &a, const B &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Index of the first poll to fire; polls_.size() when none. */
    std::size_t nextPoll() const;
    /** Tick of the next item to run (queue must be non-empty). */
    Tick nextTick() const;
    /** Run the next item (queue must be non-empty); see step(). */
    void dispatch(Tick limit);
    void runEvent();
    void firePoll(std::size_t i);
    /** Move every poll due before heap_.front() past it. */
    void skipIdlePolls();

    /** Binary min-heap over std::push_heap/pop_heap with Later. */
    std::vector<Entry> heap_;
    std::vector<Poll> polls_;
    /** Working list of skipIdlePolls(), kept to avoid reallocating. */
    std::vector<Moved> moved_;
    /** Bumped whenever work that may change a poll's answer runs. */
    std::uint64_t epoch_ = 1;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/**
 * A cancellable, re-armable one-shot timer over the EventQueue,
 * implementing the generation-counter cancellation idiom the kernel
 * comment above prescribes: cancel()/re-arm() bump a generation, and
 * the already-queued event fires into a no-op when its generation is
 * stale. Queue entries are never removed.
 *
 * Semantics (pinned by tests/test_util.cc):
 *  - arm() on an armed timer replaces the pending callback (implicit
 *    cancel + re-arm), including re-arming for the same tick;
 *  - cancel() before the fire tick suppresses the callback entirely;
 *  - cancel() *at* the fire tick, from an event scheduled before the
 *    timer was armed, also suppresses it (same-tick FIFO: whichever
 *    of fire/cancel was scheduled first wins, deterministically);
 *  - the timer disarms itself just before the callback runs, so the
 *    callback may re-arm the same timer (backoff chains).
 *
 * State lives behind a shared_ptr so a Timer may be moved (e.g. held
 * in a container of pending requests) while queued closures keep a
 * safe handle; destroying the Timer cancels it.
 */
class Timer
{
  public:
    explicit Timer(EventQueue &eq)
        : st_(std::make_shared<State>(State{&eq, 0, false}))
    {
    }

    Timer(Timer &&) = default;
    Timer &operator=(Timer &&) = default;
    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    ~Timer()
    {
        if (st_)
            cancel();
    }

    /** Arm (or re-arm) to fire @p fn at absolute tick @p when. */
    void
    arm(Tick when, EventFn fn)
    {
        auto st = st_;
        const std::uint64_t gen = ++st->gen;
        st->armed = true;
        st->eq->schedule(when, [st, gen, fn = std::move(fn)] {
            if (st->gen != gen)
                return; // cancelled or re-armed since
            st->armed = false;
            fn();
        });
    }

    /** Arm (or re-arm) to fire @p fn @p delta ticks from now. */
    void
    armIn(Tick delta, EventFn fn)
    {
        arm(st_->eq->now() + delta, std::move(fn));
    }

    /** Suppress the pending callback, if any. Idempotent. */
    void
    cancel()
    {
        ++st_->gen;
        st_->armed = false;
    }

    bool armed() const { return st_->armed; }

  private:
    struct State
    {
        EventQueue *eq;
        std::uint64_t gen;
        bool armed;
    };

    std::shared_ptr<State> st_;
};

} // namespace fp

#endif // FP_UTIL_EVENT_QUEUE_HH
