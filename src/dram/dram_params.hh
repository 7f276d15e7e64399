/**
 * @file
 * DDR3 timing, organization and energy parameters, DRAMSim2-style.
 *
 * All timing fields are in DRAM clock cycles; tCkTicks converts to the
 * global picosecond time base. The defaults model DDR3-1600 (800 MHz
 * clock, 11-11-11), the part the paper's DRAMSim2 configuration uses,
 * with 8 banks, 8 KB rows and a 64-bit channel (64 B per BL8 burst).
 *
 * Energy constants approximate a Micron DDR3 x8 power calculator at
 * the rank level; see DESIGN.md for why only their relative magnitude
 * matters for the reproduced figures.
 */

#ifndef FP_DRAM_DRAM_PARAMS_HH
#define FP_DRAM_DRAM_PARAMS_HH

#include <cstdint>

#include "util/types.hh"

namespace fp::dram
{

struct DramTiming
{
    Tick tCkTicks = 1250;   //!< 800 MHz DDR3-1600 clock.

    unsigned cl = 11;       //!< CAS latency (read).
    unsigned cwl = 8;       //!< CAS write latency.
    unsigned tRCD = 11;     //!< ACT to CAS.
    unsigned tRP = 11;      //!< PRE to ACT.
    unsigned tRAS = 28;     //!< ACT to PRE (minimum row open time).
    unsigned tBURST = 4;    //!< BL8 data transfer (4 clocks, 8 beats).
    unsigned tCCD = 4;      //!< CAS to CAS.
    unsigned tRRD = 6;      //!< ACT to ACT, different banks.
    unsigned tFAW = 32;     //!< Four-activate window.
    unsigned tWTR = 6;      //!< Write-to-read turnaround.
    unsigned tRTRS = 2;     //!< Bus turnaround (read-to-write gap).
    unsigned tRTP = 6;      //!< Read to PRE.
    unsigned tWR = 12;      //!< Write recovery before PRE.
    unsigned tREFI = 6240;  //!< Refresh interval (7.8 us).
    unsigned tRFC = 208;    //!< Refresh cycle time (260 ns).

    Tick cycles(unsigned n) const { return tCkTicks * n; }

    /**
     * Data-bus idle time forced between a read burst and a following
     * write burst. The earliest write CAS after a read CAS is
     * CL + tBURST + tRTRS - CWL cycles later (JEDEC read-to-write
     * spacing), so its data — CWL after the CAS — trails the end of
     * the read burst (CL + tBURST after the read CAS) by exactly
     * tRTRS. Distinct from tWTR, which constrains the *opposite*
     * switch (write data to read CAS) and is longer because the write
     * must reach the array before the bank can be read.
     */
    Tick readToWriteGap() const { return cycles(tRTRS); }

    bool operator==(const DramTiming &) const = default;
};

/** Row-buffer management policy. */
enum class PagePolicy
{
    open,   //!< Keep rows open; FR-FCFS exploits hits.
    closed, //!< Auto-precharge after every access.
};

/** Byte-address decomposition scheme. */
enum class AddressMapPolicy
{
    /** Rows interleave across channels, then banks (default: keeps
     *  one ORAM subtree inside one row of one channel). */
    rowInterleaved,
    /** Cache-line interleave across channels first (classic
     *  insecure-system mapping; scatters subtrees). */
    lineInterleaved,
};

struct DramOrganization
{
    unsigned channels = 2;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;
    std::uint64_t rowBytes = 8192;
    std::uint64_t burstBytes = 64;  //!< One BL8 burst on a x64 bus.
    AddressMapPolicy mapPolicy = AddressMapPolicy::rowInterleaved;

    unsigned banksTotal() const { return ranksPerChannel * banksPerRank; }

    /** Peak bandwidth in bytes/second across all channels. */
    double peakBandwidth(const DramTiming &t) const;

    bool operator==(const DramOrganization &) const = default;
};

struct DramEnergyParams
{
    double actPreNj = 2.1;        //!< One ACT+PRE pair.
    double readBurstNj = 4.8;     //!< One 64 B read burst.
    double writeBurstNj = 5.2;    //!< One 64 B write burst.
    double refreshNj = 28.0;      //!< One all-bank refresh.
    double backgroundMwPerRank = 120.0; //!< Standby + periph power.

    bool operator==(const DramEnergyParams &) const = default;
};

struct DramParams
{
    DramTiming timing;
    DramOrganization org;
    DramEnergyParams energy;

    /** Scheduler window: how deep FR-FCFS looks for a row hit. */
    unsigned schedulerWindow = 16;

    /** Row-buffer policy. */
    PagePolicy pagePolicy = PagePolicy::open;

    /** The paper's configuration: DDR3-1600, 2 channels. */
    static DramParams ddr3_1600(unsigned channels = 2);

    bool operator==(const DramParams &) const = default;
};

} // namespace fp::dram

#endif // FP_DRAM_DRAM_PARAMS_HH
