#include "core/sharded_oram.hh"

#include <string>

#include "util/logging.hh"
#include "util/random.hh"

namespace fp::core
{

ShardedOram::ShardedOram(
    const ShardedOramParams &params,
    const ControllerParams &ctrl_params, EventQueue &eq,
    const std::vector<mem::MemoryBackend *> &backends)
    : params_(params), stats_("sharded_oram")
{
    fp_assert(params_.shards >= 1, "ShardedOram: zero shards");
    fp_assert(params_.shardWindow >= 1, "ShardedOram: zero window");
    fp_assert(backends.size() == params_.shards,
              "ShardedOram: %zu backends for %u shards",
              backends.size(), params_.shards);

    // Derived seeds must be pairwise distinct: every per-shard RNG
    // stream (leaf remapping, label queue, cipher key) hangs off the
    // shard's oram seed, and two shards sharing one would produce
    // correlated leaf sequences. splitmix64's bijectivity guarantees
    // this; the check keeps the guarantee honest if the derivation
    // ever changes.
    for (unsigned a = 0; a < params_.shards; ++a)
        for (unsigned b = a + 1; b < params_.shards; ++b)
            fp_assert(shardSeed(ctrl_params.oram.seed, a) !=
                          shardSeed(ctrl_params.oram.seed, b),
                      "ShardedOram: shards %u and %u derived the "
                      "same seed",
                      a, b);

    shards_.resize(params_.shards);
    for (unsigned s = 0; s < params_.shards; ++s) {
        fp_assert(backends[s] != nullptr,
                  "ShardedOram: null backend for shard %u", s);
        ControllerParams p = ctrl_params;
        p.oram.seed = shardSeed(ctrl_params.oram.seed, s);
        // Every StatGroup the shard's component stack constructs
        // (controller, label queue, stash, caches, ...) gets an
        // "s<N>." name prefix, keeping interval-stats JSON keys
        // unique across shards in the shared registry.
        StatNameScope scope(strprintf("s%u.", s));
        shards_[s].ctrl = std::make_unique<OramController>(
            p, eq, *backends[s]);
        shards_[s].ctrl->setRequestIdStream(s + 1, params_.shards);
    }

    // Register only after shards_ has its final size: StatGroup holds
    // raw pointers into the vector's elements.
    for (unsigned s = 0; s < params_.shards; ++s)
        stats_.regCounter("dispatched_s" + std::to_string(s),
                          shards_[s].dispatched,
                          "requests routed to shard " +
                              std::to_string(s));
    stats_.regCounter("window_rejects", windowRejects_,
                      "requests bounced off a full shard window");
    stats_.regCounter("busy_rejects", busyRejects_,
                      "requests bounced off a busy shard controller");
    stats_.regGauge(
        "inflight",
        [this] { return static_cast<double>(inFlight()); },
        "LLC requests in flight across all shards");
}

unsigned
ShardedOram::shardOf(BlockAddr addr, unsigned shards)
{
    // A multiplicative hash rather than addr % shards: blocks of one
    // core's working set are contiguous, and a plain modulus would
    // stripe them in lockstep instead of spreading them.
    return static_cast<unsigned>(splitmix64(addr) % shards);
}

std::uint64_t
ShardedOram::shardSeed(std::uint64_t base_seed, unsigned shard)
{
    return splitmix64(base_seed +
                      (std::uint64_t{shard} + 1) *
                          0x9e3779b97f4a7c15ULL);
}

bool
ShardedOram::canAccept() const
{
    for (const Shard &sh : shards_)
        if (sh.inflight < params_.shardWindow && sh.ctrl->canAccept())
            return true;
    return false;
}

std::uint64_t
ShardedOram::request(oram::Op op, BlockAddr addr,
                     std::vector<std::uint8_t> payload, DataCallback cb)
{
    unsigned s = shardOf(addr, params_.shards);
    Shard &sh = shards_[s];
    if (sh.inflight >= params_.shardWindow) {
        windowRejects_.inc();
        return 0;
    }

    // Count the request in flight *before* submitting: forwarding and
    // shortcut paths complete synchronously inside request(), and the
    // completion callback must see the slot it is releasing.
    ++sh.inflight;
    std::uint64_t id = sh.ctrl->request(
        op, addr, std::move(payload),
        [this, s, cb = std::move(cb)](
            Tick t, const std::vector<std::uint8_t> &data) {
            fp_assert(shards_[s].inflight > 0,
                      "ShardedOram: completion without inflight");
            --shards_[s].inflight;
            if (cb)
                cb(t, data);
        });
    if (id == 0) {
        --sh.inflight;
        busyRejects_.inc();
        return 0;
    }
    sh.dispatched.inc();
    return id;
}

std::size_t
ShardedOram::inFlight() const
{
    std::size_t n = 0;
    for (const Shard &sh : shards_)
        n += sh.inflight;
    return n;
}

std::uint64_t
ShardedOram::reqStreamFingerprint() const
{
    std::uint64_t fp = 14695981039346656037ULL;
    for (const Shard &sh : shards_) {
        fp ^= sh.ctrl->reqStreamFingerprint();
        fp *= 1099511628211ULL;
    }
    return fp;
}

} // namespace fp::core
