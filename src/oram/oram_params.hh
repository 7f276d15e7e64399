/**
 * @file
 * Shared configuration for the Path ORAM engines. Defaults follow the
 * paper's Table 1: 64 B blocks, Z = 4, 4 GB data ORAM at 50 % DRAM
 * utilization (leaf level 24, path length 25), stash of ~200 blocks.
 */

#ifndef FP_ORAM_ORAM_PARAMS_HH
#define FP_ORAM_ORAM_PARAMS_HH

#include <cstdint>

#include "mem/tree_geometry.hh"
#include "util/types.hh"

namespace fp::oram
{

struct OramParams
{
    /** Leaf level L; the paper's default tree has L = 24. */
    unsigned leafLevel = 24;

    /** Block slots per bucket. */
    unsigned z = 4;

    /** Logical payload bytes carried per block (0 = timing only). */
    std::size_t payloadBytes = 0;

    /**
     * Soft stash capacity in blocks; exceeding it is recorded as an
     * overflow event (the paper sizes C >= 200 so this is negligible).
     */
    std::size_t stashCapacity = 200;

    /** Encrypt buckets in the tree store (functional runs). */
    bool encrypt = false;

    /** Seed for leaf remapping and the cipher key. */
    std::uint64_t seed = 1;

    /**
     * Return from the stash without a path access when the block is
     * already stashed (the paper's Step 1).
     */
    bool stashShortcut = true;

    mem::TreeGeometry geometry() const
    {
        return mem::TreeGeometry(leafLevel);
    }

    /** Table 1 defaults for a given data capacity in bytes. */
    static OramParams
    forCapacity(std::uint64_t data_bytes, std::uint64_t block_bytes = 64,
                double utilization = 0.5, unsigned z = 4)
    {
        OramParams p;
        p.z = z;
        p.leafLevel =
            mem::TreeGeometry::forCapacity(data_bytes, block_bytes,
                                           utilization, z)
                .leafLevel();
        return p;
    }

    bool operator==(const OramParams &) const = default;
};

} // namespace fp::oram

#endif // FP_ORAM_ORAM_PARAMS_HH
