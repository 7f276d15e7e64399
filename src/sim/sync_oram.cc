#include "sim/sync_oram.hh"

#include <cstdio>

#include "sim/sim_config.hh"
#include "util/logging.hh"

namespace fp::sim
{

SyncOram::SyncOram(core::ControllerParams controller)
    : SyncOram(std::move(controller), SimConfig::defaultDram())
{
}

SyncOram::SyncOram(core::ControllerParams controller,
                   dram::DramParams dram)
    : stack_(BackendKind::dram, dram, {}, {}, {}, eq_)
{
    buildController(controller);
}

SyncOram::SyncOram(core::ControllerParams controller,
                   mem::NetBackendParams net)
    : SyncOram(std::move(controller), net, {}, {})
{
}

SyncOram::SyncOram(core::ControllerParams controller,
                   mem::NetBackendParams net, mem::FaultParams faults,
                   mem::RetryParams retry)
    : stack_(BackendKind::net, {}, net, faults, retry, eq_)
{
    buildController(controller);
}

void
SyncOram::buildController(const core::ControllerParams &controller)
{
    fp_assert(controller.oram.payloadBytes > 0,
              "SyncOram needs a non-zero payload size");
    ctrl_ = std::make_unique<core::OramController>(controller, eq_,
                                                   stack_.top());
}

SyncOram::~SyncOram() = default;

std::vector<std::uint8_t>
SyncOram::read(BlockAddr addr)
{
    std::vector<std::uint8_t> out;
    bool done = false;
    std::uint64_t id =
        ctrl_->request(oram::Op::read, addr, {},
                       [&](Tick, const auto &data) {
                           out = data;
                           done = true;
                       });
    fp_assert(id != 0, "SyncOram: request rejected");
    // runWhile (not run): in periodic mode the controller's access
    // stream never ends, so only advance until the answer arrives.
    eq_.runWhile([&done] { return !done; });
    fp_assert(done, "SyncOram: read did not complete");
    return out;
}

void
SyncOram::write(BlockAddr addr, std::vector<std::uint8_t> data)
{
    fp_assert(data.size() == ctrl_->params().oram.payloadBytes,
              "SyncOram: write of %zu bytes into %zu-byte blocks",
              data.size(), ctrl_->params().oram.payloadBytes);
    bool done = false;
    std::uint64_t id =
        ctrl_->request(oram::Op::write, addr, std::move(data),
                       [&](Tick, const auto &) { done = true; });
    fp_assert(id != 0, "SyncOram: request rejected");
    eq_.runWhile([&done] { return !done; });
    fp_assert(done, "SyncOram: write did not complete");
}

std::size_t
SyncOram::bulkLoad(
    const std::vector<std::pair<BlockAddr,
                                std::vector<std::uint8_t>>> &blocks)
{
    auto &ctrl = *ctrl_;
    fp_assert(ctrl.totalAccesses() == 0 && ctrl.inFlight() == 0,
              "bulkLoad must run before the first access");

    const auto &geo = ctrl.geometry();
    // Keep planted blocks out of the on-chip cache band so the
    // pre-warmed MAC (and pinned treetop) stay coherent with memory.
    unsigned floor_level = 0;
    if (ctrl.mac())
        floor_level = ctrl.mac()->m2() + 1;
    if (ctrl.treetop())
        floor_level =
            std::max(floor_level, ctrl.treetop()->numCachedLevels());
    fp_assert(floor_level <= geo.leafLevel(),
              "bulkLoad: cache band covers the whole tree");

    std::size_t slow_path = 0;
    for (const auto &[addr, payload] : blocks) {
        fp_assert(payload.size() == ctrl.params().oram.payloadBytes,
                  "bulkLoad: bad payload size for addr %llu",
                  static_cast<unsigned long long>(addr));
        LeafLabel label = ctrl.positionMap().lookupOrAssign(addr);

        bool placed = false;
        for (unsigned level = geo.leafLevel() + 1;
             level-- > floor_level;) {
            BucketIndex idx = geo.bucketAt(label, level);
            mem::Bucket bucket = ctrl.store().readBucket(idx);
            if (bucket.full())
                continue;
            bucket.add(mem::Block(addr, label, payload));
            ctrl.store().writeBucket(idx, bucket);
            if (ctrl.merkle())
                ctrl.merkle()->updateBucket(idx, bucket);
            placed = true;
            break;
        }
        if (!placed) {
            // Path congested near the leaves: regular timed write.
            ++slow_path;
            write(addr, payload);
        }
    }
    return slow_path;
}

std::size_t
SyncOram::blockSize() const
{
    return ctrl_->params().oram.payloadBytes;
}

void
SyncOram::printStats() const
{
    const auto &c = *ctrl_;
    std::printf("---- SyncOram statistics ----\n");
    std::printf("simulated time:        %.3f us\n",
                fp::ticksToNs(eq_.now()) / 1e3);
    std::printf("real ORAM accesses:    %llu\n",
                static_cast<unsigned long long>(c.realAccesses()));
    std::printf("dummy ORAM accesses:   %llu\n",
                static_cast<unsigned long long>(c.dummyAccessesRun()));
    std::printf("stash shortcuts:       %llu\n",
                static_cast<unsigned long long>(c.stashShortcuts()));
    std::printf("dummy replacements:    %llu\n",
                static_cast<unsigned long long>(
                    c.dummyReplacements()));
    std::printf("avg fetched path len:  %.2f buckets (full: %u)\n",
                c.avgReadPathLength(), c.geometry().numLevels());
    std::printf("avg DRAM buckets/acc:  %.2f\n",
                c.avgDramBucketsRead());
    std::printf("avg request latency:   %.1f ns\n",
                c.oramLatency().mean());
    if (auto *dram = stack_.dram()) {
        std::printf(
            "dram row hits/misses:  %llu / %llu\n",
            static_cast<unsigned long long>(dram->rowHits()),
            static_cast<unsigned long long>(dram->rowMisses()));
    } else {
        const mem::BackendStats bs = stack_.base().statsSnapshot();
        std::printf("%s bursts (r/w):     %llu / %llu\n",
                    stack_.base().kind(),
                    static_cast<unsigned long long>(bs.readBursts),
                    static_cast<unsigned long long>(bs.writeBursts));
    }
}

} // namespace fp::sim
