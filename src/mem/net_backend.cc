#include "mem/net_backend.hh"

#include <cmath>
#include <utility>

#include "obs/request_profiler.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"

namespace fp::mem
{

Tick
NetBackendParams::oneWayTicks() const
{
    return static_cast<Tick>(std::llround(oneWayLatencyUs * 1e6));
}

Tick
NetBackendParams::serializationTicks(std::uint64_t bytes) const
{
    return static_cast<Tick>(std::llround(
        static_cast<double>(bytes) * 8.0 * 1e3 / linkGbps));
}

NetBackend::NetBackend(const NetBackendParams &params, EventQueue &eq)
    : params_(params), eq_(eq), stats_("net_backend")
{
    fp_assert(params_.linkGbps > 0.0,
              "NetBackend: link bandwidth must be positive");
    fp_assert(params_.oneWayLatencyUs >= 0.0,
              "NetBackend: one-way latency must be non-negative");
    fp_assert(params_.window >= 1,
              "NetBackend: outstanding window must be at least 1");
    fp_assert(params_.burstBytes > 0 && params_.rowBytes > 0,
              "NetBackend: zero transfer/locality granule");

    stats_.regCounter("read_requests", reads_,
                      "read requests completed");
    stats_.regCounter("write_requests", writes_,
                      "write requests completed");
    stats_.regCounter("bytes_read", bytesRead_,
                      "payload bytes fetched from the store");
    stats_.regCounter("bytes_written", bytesWritten_,
                      "payload bytes pushed to the store");
    stats_.regCounter("window_stalls", windowStallEvents_,
                      "requests that waited for a window slot");
    stats_.regAverage("latency_ns", latencyNs_,
                      "request completion latency, queueing included");
    stats_.regAverage("link_wait_ns", linkWaitNs_,
                      "serialization delay behind earlier transfers");
    stats_.regGauge(
        "queue_depth", [this] { return double(queueDepth()); },
        "requests admitted and not yet completed");
}

void
NetBackend::access(BackendRequest req)
{
    if (inFlight_ >= params_.window) {
        windowStallEvents_.inc();
        waiting_.push_back({std::move(req), eq_.now()});
        return;
    }
    issue(std::move(req), eq_.now());
}

void
NetBackend::pump()
{
    while (inFlight_ < params_.window && !waiting_.empty()) {
        Waiting w = std::move(waiting_.front());
        waiting_.pop_front();
        issue(std::move(w.req), w.arrival);
    }
}

void
NetBackend::issue(BackendRequest req, Tick arrival)
{
    ++inFlight_;
    const Tick now = eq_.now();
    const Tick start = std::max(now, linkFreeAt_);
    const Tick ser = params_.serializationTicks(req.bytes);
    linkFreeAt_ = start + ser;
    const Tick done = linkFreeAt_ + 2 * params_.oneWayTicks();

    linkWaitNs_.sample(ticksToNs(start - now));

    eq_.schedule(done, [this, arrival,
                        req = std::move(req)]() mutable {
        const Tick t = eq_.now();
        if (req.isWrite) {
            writes_.inc();
            bytesWritten_.inc(req.bytes);
        } else {
            reads_.inc();
            bytesRead_.inc(req.bytes);
        }
        latencyNs_.sample(ticksToNs(t - arrival));
        if (prof_)
            prof_->sampleBackendService(req.isWrite, arrival, t);
        if (trc_ && trc_->on(obs::TraceLevel::full)) {
            trc_->complete(obs::Track::dram0,
                           req.isWrite ? "net_write" : "net_read",
                           arrival, t,
                           {obs::TraceArg::num("addr", req.addr),
                            obs::TraceArg::num("bytes", req.bytes)});
        }
        fp_assert(inFlight_ > 0, "NetBackend completion underflow");
        --inFlight_;
        if (req.onComplete)
            req.onComplete(t);
        pump();
    });
}

BackendStats
NetBackend::statsSnapshot() const
{
    BackendStats s;
    s.readBursts = (bytesRead_.value() + params_.burstBytes - 1) /
                   params_.burstBytes;
    s.writeBursts =
        (bytesWritten_.value() + params_.burstBytes - 1) /
        params_.burstBytes;
    s.bytesRead = bytesRead_.value();
    s.bytesWritten = bytesWritten_.value();
    s.avgLatencyNs = latencyNs_.mean();
    return s;
}

void
NetBackend::resetStats()
{
    reads_.reset();
    writes_.reset();
    bytesRead_.reset();
    bytesWritten_.reset();
    windowStallEvents_.reset();
    latencyNs_.reset();
    linkWaitNs_.reset();
}

} // namespace fp::mem
