#include "oram/path_oram.hh"

#include "util/logging.hh"

namespace fp::oram
{

PathOram::PathOram(const OramParams &params)
    : params_(params), geo_(params.geometry()),
      posMap_(geo_, params.seed ^ 0xa11ce),
      stash_(geo_, params.stashCapacity),
      store_(geo_, params.z, params.payloadBytes, params.encrypt,
             params.seed ^ 0xc1f3),
      stats_("path_oram")
{
    stats_.regCounter("accesses", accesses_, "logical accesses");
    stats_.regCounter("stash_hits", stashHits_,
                      "accesses satisfied by the stash");
    stats_.regCounter("dummy_accesses", dummyAccesses_,
                      "dummy path accesses");
}

std::vector<std::uint8_t>
PathOram::access(Op op, BlockAddr addr,
                 const std::vector<std::uint8_t> *data)
{
    fp_assert(addr != invalidBlockAddr, "access: invalid address");
    accesses_.inc();

    // Step 1: stash lookup.
    if (params_.stashShortcut) {
        if (mem::Block *blk = stash_.find(addr)) {
            stashHits_.inc();
            std::vector<std::uint8_t> old = blk->payload;
            if (op == Op::write && data)
                blk->payload = *data;
            stash_.recordOccupancy();
            return old;
        }
    }

    // Step 2: label lookup and remap. First-touch addresses get a
    // fresh label and a zeroed block (the working set starts zeroed).
    bool first_touch = !posMap_.contains(addr);
    LeafLabel old_label = posMap_.lookupOrAssign(addr);
    LeafLabel new_label = posMap_.remap(addr);

    // Step 3: read the whole path into the stash.
    AccessTrace tr;
    tr.label = old_label;
    tr.bucketsRead = readPath(old_label);

    // Step 4: update/insert the block in the stash with new label.
    mem::Block *blk = stash_.find(addr);
    if (!blk) {
        fp_assert(first_touch,
                  "invariant violated: mapped block neither in stash "
                  "nor on its path (addr=%llu)",
                  static_cast<unsigned long long>(addr));
        stash_.insert(mem::Block(
            addr, new_label,
            std::vector<std::uint8_t>(params_.payloadBytes, 0)));
        blk = stash_.find(addr);
    } else {
        blk->leaf = new_label;
    }

    std::vector<std::uint8_t> old_payload = blk->payload;
    if (op == Op::write && data)
        blk->payload = *data;

    // Step 5: refill the path.
    tr.bucketsWritten = writePath(old_label);

    stash_.recordOccupancy();
    if (traceEnabled_)
        trace_.push_back(std::move(tr));
    return old_payload;
}

void
PathOram::dummyAccess()
{
    dummyAccesses_.inc();
    LeafLabel label = posMap_.randomLabel();
    AccessTrace tr;
    tr.label = label;
    tr.dummy = true;
    tr.bucketsRead = readPath(label);
    tr.bucketsWritten = writePath(label);
    stash_.recordOccupancy();
    if (traceEnabled_)
        trace_.push_back(std::move(tr));
}

std::vector<BucketIndex>
PathOram::readPath(LeafLabel label)
{
    std::vector<BucketIndex> indices = geo_.pathIndices(label);
    for (BucketIndex idx : indices) {
        mem::Bucket bucket = store_.readBucket(idx);
        for (mem::Block &blk : bucket.takeAll())
            stash_.insertOrIgnore(std::move(blk));
        // The memory copy is now out of date; it will be overwritten
        // by the refill below, so nothing else to do here.
    }
    return indices;
}

std::vector<BucketIndex>
PathOram::writePath(LeafLabel label)
{
    std::vector<BucketIndex> written;
    written.reserve(geo_.numLevels());
    // Deepest bucket first: blocks that can go deep should go deep,
    // or they would occupy scarce space near the root.
    for (int level = static_cast<int>(geo_.leafLevel()); level >= 0;
         --level) {
        auto lvl = static_cast<unsigned>(level);
        BucketIndex idx = geo_.bucketAt(label, lvl);
        mem::Bucket bucket(params_.z);
        for (mem::Block &blk :
             stash_.evictForBucket(label, lvl, params_.z)) {
            bucket.add(std::move(blk));
        }
        store_.writeBucket(idx, bucket);
        written.push_back(idx);
    }
    return written;
}

} // namespace fp::oram
