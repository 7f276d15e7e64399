/**
 * @file
 * NetBackend: a network/cloud storage model behind the
 * mem::MemoryBackend seam, for evaluating the Fork Path machinery
 * when the untrusted store is remote (object storage, a storage
 * server across a datacenter link) instead of local DDR3.
 *
 * The model captures the three quantities that dominate remote-store
 * ORAM cost:
 *
 *  - propagation: every request pays a fixed round trip of
 *    2 x oneWayLatencyUs (command out, data/ack back);
 *  - serialization: request payloads share one full-duplex-agnostic
 *    link of linkGbps; a transfer occupies the link for
 *    bytes * 8 / linkGbps and transfers are serialized in issue
 *    order (burst serialization — a path read of k buckets costs
 *    k back-to-back bucket times, not one);
 *  - windowing: at most `window` requests are outstanding at the
 *    remote store; excess requests wait in an unbounded local queue.
 *
 * Completion time of a request admitted at tick t:
 *
 *     done = max(t, linkFree) + serialization(bytes) + 2 * oneWay
 *
 * which reproduces the familiar latency/bandwidth crossover: small
 * windows are latency-bound, large transfers bandwidth-bound. No
 * row-buffer or bank state exists, so (unlike DRAM) cost is
 * insensitive to the address layout — only to the number and size of
 * requests, which is exactly the axis Fork Path optimizes.
 *
 * Everything runs on the shared event queue, so a run's outcome is a
 * pure function of config + seed, same as the DRAM model.
 */

#ifndef FP_MEM_NET_BACKEND_HH
#define FP_MEM_NET_BACKEND_HH

#include <cstdint>
#include <deque>

#include "mem/backend.hh"
#include "util/event_queue.hh"
#include "util/stats.hh"

namespace fp::mem
{

struct NetBackendParams
{
    /** One-way propagation delay to the store, in microseconds. */
    double oneWayLatencyUs = 50.0;
    /** Link bandwidth in gigabits per second. */
    double linkGbps = 10.0;
    /** Outstanding-request window at the remote store. */
    unsigned window = 16;
    /** Transfer granule (bursts) reported to callers. */
    std::uint64_t burstBytes = 64;
    /** Locality granule reported to layout policies. Remote stores
     *  have no rows; this only shapes subtree packing, which is
     *  timing-neutral here, so any power of two works. */
    std::uint64_t rowBytes = 8192;

    /** One-way propagation in ticks (us -> ps), round to nearest:
     *  truncation would bias every non-representable latency low by
     *  up to a full tick. */
    Tick oneWayTicks() const;

    /** Link occupancy of a transfer: bits / (Gb/s), in ticks,
     *  round to nearest. */
    Tick serializationTicks(std::uint64_t bytes) const;

    bool operator==(const NetBackendParams &) const = default;
};

class NetBackend final : public MemoryBackend
{
  public:
    NetBackend(const NetBackendParams &params, EventQueue &eq);

    void access(BackendRequest req) override;
    bool idle() const override
    {
        return inFlight_ == 0 && waiting_.empty();
    }
    std::size_t queueDepth() const override
    {
        return inFlight_ + waiting_.size();
    }
    BackendStats statsSnapshot() const override;
    void setTracer(obs::Tracer *tracer) override { trc_ = tracer; }
    void setProfiler(obs::RequestProfiler *prof) override
    {
        prof_ = prof;
    }
    void resetStats() override;

    std::uint64_t burstBytes() const override
    {
        return params_.burstBytes;
    }
    std::uint64_t rowBytes() const override
    {
        return params_.rowBytes;
    }
    const char *kind() const override { return "net"; }

    const NetBackendParams &params() const { return params_; }
    /** Requests parked behind the outstanding window right now. */
    std::size_t windowStalls() const { return waiting_.size(); }

    fp::StatGroup &stats() { return stats_; }

  private:
    struct Waiting
    {
        BackendRequest req;
        Tick arrival = 0;
    };

    /** Admit waiting requests while window slots are free. */
    void pump();
    void issue(BackendRequest req, Tick arrival);

    NetBackendParams params_;
    EventQueue &eq_;
    obs::Tracer *trc_ = nullptr;
    obs::RequestProfiler *prof_ = nullptr;

    std::deque<Waiting> waiting_;
    unsigned inFlight_ = 0;
    /** Tick at which the link finishes its last accepted transfer. */
    Tick linkFreeAt_ = 0;

    fp::Counter reads_;
    fp::Counter writes_;
    fp::Counter bytesRead_;
    fp::Counter bytesWritten_;
    fp::Counter windowStallEvents_;
    fp::Average latencyNs_;
    fp::Average linkWaitNs_;
    fp::StatGroup stats_;
};

} // namespace fp::mem

#endif // FP_MEM_NET_BACKEND_HH
