#include "util/event_queue.hh"

#include <algorithm>
#include <tuple>

#include "util/logging.hh"

namespace fp
{

void
EventQueue::schedule(Tick when, EventFn fn)
{
    fp_assert(when >= now_,
              "scheduling event in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    heap_.push_back(Entry{when, nextSeq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::schedulePoll(Tick when, Tick period, PollFn fn)
{
    fp_assert(when >= now_,
              "scheduling poll in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    fp_assert(period > 0, "poll period must be positive");
    polls_.push_back(Poll{when, nextSeq_++, period, std::move(fn), 0});
}

std::size_t
EventQueue::nextPoll() const
{
    std::size_t best = polls_.size();
    for (std::size_t i = 0; i < polls_.size(); ++i)
        if (best == polls_.size() || Later{}(polls_[best], polls_[i]))
            best = i;
    return best;
}

Tick
EventQueue::nextTick() const
{
    const std::size_t p = nextPoll();
    if (p == polls_.size())
        return heap_.front().when;
    if (heap_.empty())
        return polls_[p].when;
    return std::min(polls_[p].when, heap_.front().when);
}

void
EventQueue::dispatch(Tick limit)
{
    const std::size_t p = nextPoll();
    if (p == polls_.size() ||
        (!heap_.empty() && Later{}(polls_[p], heap_.front()))) {
        runEvent();
        return;
    }
    // Skip only when nothing a firing could observe has changed since
    // each poll last re-armed, and only towards an event the caller
    // will run anyway: past its limit the polls fire one by one.
    const bool idle = std::all_of(
        polls_.begin(), polls_.end(),
        [this](const Poll &q) { return q.cleanEpoch == epoch_; });
    if (idle && !heap_.empty() && heap_.front().when <= limit) {
        skipIdlePolls();
        runEvent();
        return;
    }
    firePoll(p);
}

void
EventQueue::runEvent()
{
    // Move out before running: the callback may schedule new events.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.when;
    e.fn();
    ++epoch_;
}

void
EventQueue::firePoll(std::size_t i)
{
    // Take the poll out first: the callback may register new polls.
    Poll p = std::move(polls_[i]);
    if (i + 1 != polls_.size())
        polls_[i] = std::move(polls_.back());
    polls_.pop_back();
    now_ = p.when;
    if (p.fn()) {
        p.when += p.period;
        p.seq = nextSeq_++;
        p.cleanEpoch = epoch_;
        polls_.push_back(std::move(p));
    } else {
        ++epoch_;
    }
}

void
EventQueue::skipIdlePolls()
{
    const Entry &ev = heap_.front();
    moved_.clear();
    for (std::size_t i = 0; i < polls_.size(); ++i) {
        const Poll &q = polls_[i];
        if (Later{}(q, ev))
            continue;
        // First grid tick at or after the event, one period on at
        // least (a poll due at the event's tick fires before it).
        const Tick periods = std::max<Tick>(
            1, (ev.when - q.when + q.period - 1) / q.period);
        const Tick last_fire = q.when + (periods - 1) * q.period;
        moved_.push_back(Moved{last_fire, q.when, q.seq, i});
    }
    // Hand out fresh sequence numbers in the order the skipped firings
    // would have: each poll takes its new one when it last fires, one
    // period before its new tick, so an earlier last firing comes
    // first. Polls sharing that last firing share their period; the
    // one pending on a later tick re-arms fewer times before it and
    // stays ahead (tick descending), and polls pending on one tick
    // keep their order (seq ascending).
    std::sort(moved_.begin(), moved_.end(),
              [](const Moved &a, const Moved &b) {
                  return std::tie(a.lastFire, b.when, a.seq) <
                         std::tie(b.lastFire, a.when, b.seq);
              });
    for (const Moved &m : moved_) {
        Poll &q = polls_[m.index];
        q.when = m.lastFire + q.period;
        q.seq = nextSeq_++;
    }
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t executed = 0;
    while (!empty() && nextTick() <= limit) {
        dispatch(limit);
        ++executed;
    }
    if (now_ < limit && limit != maxTick)
        now_ = limit;
    return executed;
}

std::uint64_t
EventQueue::runWhile(const std::function<bool()> &pred)
{
    std::uint64_t executed = 0;
    while (!empty() && pred()) {
        dispatch(maxTick);
        ++executed;
    }
    return executed;
}

bool
EventQueue::step(Tick limit)
{
    if (empty())
        return false;
    dispatch(limit);
    return true;
}

} // namespace fp
