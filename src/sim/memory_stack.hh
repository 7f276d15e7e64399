/**
 * @file
 * MemoryStack: the one place a memory store is built. A store is a
 * base model (the DDR3 timing model or the network/cloud model),
 * optionally wrapped in a fault injector, optionally wrapped in a
 * retry layer:
 *
 *     controller -> [ResilientBackend] -> [FaultInjector] -> base
 *
 * System (once per shard) and SyncOram both build their stores here,
 * so the decorator order and the automatic retry deadline have a
 * single definition.
 */

#ifndef FP_SIM_MEMORY_STACK_HH
#define FP_SIM_MEMORY_STACK_HH

#include <memory>

#include "dram/dram_system.hh"
#include "mem/backend.hh"
#include "mem/fault_injector.hh"
#include "mem/net_backend.hh"
#include "mem/resilient_backend.hh"
#include "sim/sim_config.hh"
#include "util/event_queue.hh"

namespace fp::sim
{

class MemoryStack
{
  public:
    /**
     * @param kind   Which base model to build; only the matching one
     *               of @p dram / @p net is read.
     * @param faults Builds a FaultInjector over the base when enabled.
     * @param retry  Builds a ResilientBackend on top when enabled.
     *               Injecting faults without a retry deadline would
     *               wedge on the first lost request, so with faults
     *               on and timeoutUs == 0 a deadline comfortably
     *               above the store's worst case is picked.
     */
    MemoryStack(BackendKind kind, const dram::DramParams &dram,
                const mem::NetBackendParams &net,
                const mem::FaultParams &faults, mem::RetryParams retry,
                EventQueue &eq);

    /** The layer the controller issues against. */
    mem::MemoryBackend &top() const { return *top_; }
    /** The base store, below any decorators. */
    mem::MemoryBackend &base() const { return *base_; }
    /** The DRAM timing model; null on the net backend. */
    dram::DramSystem *dram() const { return dram_.get(); }
    /** Null unless the fault parameters were enabled. */
    mem::FaultInjector *injector() const { return injector_.get(); }
    /** Null unless a retry layer was built (explicit deadline, or
     *  the automatic one that comes with faults). */
    mem::ResilientBackend *resilient() const { return resilient_.get(); }

  private:
    // Declared inside-out, so destruction unwinds outside-in.
    std::unique_ptr<dram::DramSystem> dram_;
    std::unique_ptr<mem::MemoryBackend> base_;
    std::unique_ptr<mem::FaultInjector> injector_;
    std::unique_ptr<mem::ResilientBackend> resilient_;
    mem::MemoryBackend *top_ = nullptr;
};

} // namespace fp::sim

#endif // FP_SIM_MEMORY_STACK_HH
