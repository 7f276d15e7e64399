#include "sim/memory_stack.hh"

#include <algorithm>

#include "dram/dram_backend.hh"

namespace fp::sim
{

MemoryStack::MemoryStack(BackendKind kind, const dram::DramParams &dram,
                         const mem::NetBackendParams &net,
                         const mem::FaultParams &faults,
                         mem::RetryParams retry, EventQueue &eq)
{
    if (kind == BackendKind::dram) {
        dram_ = std::make_unique<dram::DramSystem>(dram, eq);
        base_ = std::make_unique<dram::DramBackend>(*dram_);
    } else {
        base_ = std::make_unique<mem::NetBackend>(net, eq);
    }
    top_ = base_.get();

    if (faults.enabled()) {
        injector_ = std::make_unique<mem::FaultInjector>(faults, eq,
                                                         *top_);
        top_ = injector_.get();
        if (!retry.enabled()) {
            // Well past the store's round trip, so slow successes
            // are not double-issued.
            retry.timeoutUs =
                kind == BackendKind::net
                    ? std::max(10.0 * 2.0 * net.oneWayLatencyUs, 1000.0)
                    : 100.0;
        }
    }
    if (retry.enabled()) {
        resilient_ =
            std::make_unique<mem::ResilientBackend>(retry, eq, *top_);
        top_ = resilient_.get();
    }
}

} // namespace fp::sim
