/**
 * @file
 * SyncOram: the batteries-included synchronous front door to the
 * library. It owns an event queue, a DDR3 model and a Fork Path ORAM
 * controller, and exposes a plain blocking read/write interface in
 * block units — what an application embedding the ORAM (rather than
 * running experiments) wants.
 *
 * Every call advances the internal simulation until the request
 * retires, so timing statistics (simulated nanoseconds, DRAM traffic,
 * dummy overhead) remain meaningful and can be printed afterwards.
 */

#ifndef FP_SIM_SYNC_ORAM_HH
#define FP_SIM_SYNC_ORAM_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/oram_controller.hh"
#include "sim/memory_stack.hh"
#include "util/event_queue.hh"

namespace fp::sim
{

class SyncOram
{
  public:
    /**
     * Store backed by the default DRAM part
     * (SimConfig::defaultDram(), the paper's DDR3-1600 x2).
     *
     * @param controller Configuration for the ORAM controller; the
     *        payload size must be non-zero to carry data.
     */
    explicit SyncOram(core::ControllerParams controller);

    /** Store backed by a specific DRAM configuration. */
    SyncOram(core::ControllerParams controller,
             dram::DramParams dram);

    /** Store backed by the network/cloud model (mem::NetBackend). */
    SyncOram(core::ControllerParams controller,
             mem::NetBackendParams net);

    /**
     * Store backed by the network/cloud model wrapped in the
     * fault-injection + retry stack (mem::FaultInjector under
     * mem::ResilientBackend) — the embedding analogue of the
     * System's --fault-* / --retry-* flags. A retry.timeoutUs of 0
     * picks a deadline suited to the net model's round trip.
     */
    SyncOram(core::ControllerParams controller,
             mem::NetBackendParams net, mem::FaultParams faults,
             mem::RetryParams retry);
    ~SyncOram();

    /** Blocking read of one block. Unwritten blocks read as zeros. */
    std::vector<std::uint8_t> read(BlockAddr addr);

    /** Blocking write of one block (sized to payloadBytes). */
    void write(BlockAddr addr, std::vector<std::uint8_t> data);

    /**
     * Initialise the ORAM with a data set in one pass, without
     * paying a full path access per block: each block gets a uniform
     * leaf label and is planted directly in the deepest free bucket
     * of its path (below any on-chip cache band, so cache state stays
     * coherent). Blocks that find no deep slot fall back to a normal
     * write. Must be called before the first access.
     *
     * @return the number of blocks that needed the slow path.
     */
    std::size_t bulkLoad(
        const std::vector<
            std::pair<BlockAddr, std::vector<std::uint8_t>>> &blocks);

    /** Payload size each block carries. */
    std::size_t blockSize() const;

    /** Simulated time elapsed so far. */
    Tick now() const { return eq_.now(); }

    core::OramController &controller() { return *ctrl_; }
    /** The base store (below any fault/retry decorators). */
    mem::MemoryBackend &backend() { return stack_.base(); }
    /** Null unless the fault-injecting constructor was used. */
    mem::FaultInjector *faultInjector() { return stack_.injector(); }
    mem::ResilientBackend *resilientBackend()
    {
        return stack_.resilient();
    }
    /** The DRAM timing model; null for non-DRAM backends. */
    dram::DramSystem *dram() { return stack_.dram(); }

    /** Print a human-readable stats summary to stdout. */
    void printStats() const;

  private:
    /** Build the controller over the finished store. */
    void buildController(const core::ControllerParams &controller);

    EventQueue eq_;
    MemoryStack stack_;
    std::unique_ptr<core::OramController> ctrl_;
};

} // namespace fp::sim

#endif // FP_SIM_SYNC_ORAM_HH
