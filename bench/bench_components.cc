/**
 * @file
 * Microbenchmarks of the building blocks: tree geometry, stash
 * eviction selection, label-queue scheduling, MAC insert/extract,
 * SPECK encryption, the functional Path ORAM access and the DRAM and
 * network backend models. These quantify simulator throughput
 * (host-side cost), not simulated time.
 *
 * Self-contained timing harness (no external benchmark library):
 * each micro is a SweepRunner task that sets up its component, then
 * grows the iteration count until the timed batch exceeds --min-ms
 * of wall clock and reports ns/op. Table structure and row order are
 * stable; the timing columns are host-dependent by nature. --jobs>1
 * times micros concurrently — faster, but expect more noise than the
 * default sequential run.
 */

#include <chrono>
#include <iostream>
#include <vector>

#include "core/label_queue.hh"
#include "core/merging_cache.hh"
#include "core/plb.hh"
#include "crypto/counter_mode.hh"
#include "dram/dram_system.hh"
#include "mem/net_backend.hh"
#include "mem/tree_geometry.hh"
#include "oram/integrity.hh"
#include "oram/path_oram.hh"
#include "oram/stash.hh"
#include "sim/metrics.hh"
#include "sim/sweep.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table.hh"

using namespace fp;

namespace
{

/** Keep a computed value alive past the optimizer. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

struct MicroResult
{
    double nsPerOp = 0.0;
    std::uint64_t iters = 0;
};

/**
 * Time run_n(n) with n growing until one batch takes at least
 * @p min_ms of wall clock; ns/op comes from that final batch alone,
 * so earlier (cold) batches only serve as warm-up.
 */
MicroResult
measure(double min_ms, const std::function<void(std::uint64_t)> &run_n)
{
    run_n(1); // warm-up: first-touch allocations, code paths
    const double min_ns = min_ms * 1e6;
    std::uint64_t n = 1;
    for (;;) {
        auto t0 = std::chrono::steady_clock::now();
        run_n(n);
        std::chrono::duration<double, std::nano> dt =
            std::chrono::steady_clock::now() - t0;
        if (dt.count() >= min_ns || n >= (std::uint64_t{1} << 40))
            return {dt.count() / static_cast<double>(n), n};
        // Aim 40% past the threshold to converge in ~one retry.
        double grow = min_ns / std::max(dt.count(), 1.0) * 1.4;
        n = std::max(n + 1, static_cast<std::uint64_t>(
                                static_cast<double>(n) * grow));
    }
}

struct Micro
{
    std::string name;
    std::function<MicroResult(double min_ms)> run;
};

std::vector<Micro>
buildMicros()
{
    std::vector<Micro> micros;

    micros.push_back({"geometry_overlap", [](double min_ms) {
        mem::TreeGeometry geo(24);
        Rng rng(1);
        LeafLabel a = rng.uniformInt(geo.numLeaves());
        LeafLabel b = rng.uniformInt(geo.numLeaves());
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                keep(geo.overlap(a, b));
                a = (a + 0x9e37) & (geo.numLeaves() - 1);
                b = (b + 0x79b9) & (geo.numLeaves() - 1);
            }
        });
    }});

    for (std::uint64_t occupancy : {50u, 200u, 1000u}) {
        micros.push_back({"stash_evict/" + std::to_string(occupancy),
                          [occupancy](double min_ms) {
            mem::TreeGeometry geo(24);
            oram::Stash stash(geo, 4096);
            Rng rng(2);
            for (std::uint64_t i = 0; i < occupancy; ++i) {
                stash.insert(
                    mem::Block(i, rng.uniformInt(geo.numLeaves())));
            }
            LeafLabel path = rng.uniformInt(geo.numLeaves());
            return measure(min_ms, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    auto evicted = stash.evictForBucket(path, 2, 4);
                    for (auto &blk : evicted)
                        stash.insert(std::move(blk)); // restore
                    keep(evicted);
                }
            });
        }});
    }

    for (std::size_t q : {8u, 64u, 128u}) {
        micros.push_back({"label_queue_select/" + std::to_string(q),
                          [q](double min_ms) {
            mem::TreeGeometry geo(24);
            core::LabelQueue queue(
                geo, q, 4, core::DummySelectPolicy::compete, 3);
            Rng rng(4);
            return measure(min_ms, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    queue.ensureFull();
                    keep(queue.selectNext(
                        rng.uniformInt(geo.numLeaves())));
                }
            });
        }});
    }

    micros.push_back({"mac_insert_extract", [](double min_ms) {
        mem::TreeGeometry geo(24);
        core::MergingCacheParams params;
        params.m1 = 9;
        params.budgetBytes = 1 << 20;
        core::MergingAwareCache mac(geo, params);
        Rng rng(5);
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                unsigned level = 9 + rng.uniformInt(3);
                std::uint64_t offset =
                    rng.uniformInt(std::uint64_t{1} << level);
                BucketIndex idx =
                    ((std::uint64_t{1} << level) - 1) + offset;
                mac.insert(idx, mem::Bucket(4));
                keep(mac.extract(idx));
            }
        });
    }});

    micros.push_back({"speck_encrypt_64B", [](double min_ms) {
        crypto::CounterModeCipher cipher(7);
        std::vector<std::uint8_t> block(64, 0x5A);
        std::uint64_t nonce = 0;
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                keep(cipher.encrypt(block, ++nonce));
        });
    }});

    for (unsigned leaf : {12u, 18u, 24u}) {
        micros.push_back({"path_oram_access/" + std::to_string(leaf),
                          [leaf](double min_ms) {
            oram::OramParams params;
            params.leafLevel = leaf;
            params.payloadBytes = 0;
            oram::PathOram oram(params);
            Rng rng(6);
            return measure(min_ms, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    oram.read(rng.uniformInt(4096));
            });
        }});
    }

    micros.push_back({"dram_transaction", [](double min_ms) {
        EventQueue eq;
        dram::DramSystem dram(sim::SimConfig::defaultDram(), eq);
        Rng rng(7);
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                dram::DramRequest req;
                req.addr = rng.uniformInt(1ULL << 30) & ~63ULL;
                req.isWrite = rng.chance(0.5);
                req.bursts = 4;
                bool done = false;
                req.onComplete = [&done](Tick) { done = true; };
                dram.access(std::move(req));
                eq.run();
                keep(done);
            }
        });
    }});

    micros.push_back({"net_transaction", [](double min_ms) {
        EventQueue eq;
        mem::NetBackend net(mem::NetBackendParams{}, eq);
        Rng rng(7);
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                mem::BackendRequest req;
                req.addr = rng.uniformInt(1ULL << 30) & ~63ULL;
                req.isWrite = rng.chance(0.5);
                req.bytes = 256;
                bool done = false;
                req.onComplete = [&done](Tick) { done = true; };
                net.access(std::move(req));
                eq.run();
                keep(done);
            }
        });
    }});

    micros.push_back({"merkle_update_slice", [](double min_ms) {
        mem::TreeGeometry geo(24);
        oram::MerkleTree tree(geo, 9);
        Rng rng(8);
        std::vector<mem::Bucket> slice(geo.numLevels() - 7,
                                       mem::Bucket(4));
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                tree.updateSlice(rng.uniformInt(geo.numLeaves()), 7,
                                 slice);
            }
        });
    }});

    micros.push_back({"plb_lookup", [](double min_ms) {
        core::PosmapLookasideBuffer plb(3, 8, 4096);
        Rng rng(9);
        for (std::uint64_t a = 0; a < 4096; ++a) {
            plb.fill(a, 0);
            plb.fill(a, 1);
        }
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                keep(plb.lookupChainStart(rng.uniformInt(8192)));
            }
        });
    }});

    micros.push_back({"event_queue_churn_1k", [](double min_ms) {
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                EventQueue eq;
                int fired = 0;
                for (int e = 0; e < 1000; ++e) {
                    eq.schedule(static_cast<Tick>((e * 37) % 997),
                                [&fired] { ++fired; });
                }
                eq.run();
                keep(fired);
            }
        });
    }});

    micros.push_back({"json_run_result", [](double min_ms) {
        sim::RunResult r;
        r.avgLlcLatencyNs = 1234.5;
        r.realAccesses = 99999;
        return measure(min_ms, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                keep(sim::toJson(r));
        });
    }});

    return micros;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const double min_ms = args.getDouble("min-ms", 20.0);
    const bool csv = args.getBool("csv");
    if (!csv) {
        std::cout << std::string(56, '=') << "\n"
                  << "Component microbenchmarks (host-side cost)\n"
                  << "paper reports: n/a — these measure simulator "
                     "throughput, not a paper figure\n"
                  << std::string(56, '=') << "\n\n";
    }

    auto micros = buildMicros();
    std::vector<MicroResult> results(micros.size());
    std::vector<sim::SweepTask> tasks;
    tasks.reserve(micros.size());
    for (std::size_t i = 0; i < micros.size(); ++i) {
        tasks.push_back({micros[i].name, [&, i] {
            results[i] = micros[i].run(min_ms);
        }});
    }

    sim::SweepRunner runner(sim::sweepOptionsFromArgs(args));
    for (const auto &out : runner.runTasks(std::move(tasks))) {
        if (!out.ok)
            fp_fatal("micro '%s' failed: %s", out.name.c_str(),
                     out.error.c_str());
    }

    TextTable table("component cost per operation");
    table.setHeader({"component", "ns_per_op", "mops_per_s",
                     "timed_iters"});
    for (std::size_t i = 0; i < micros.size(); ++i) {
        const MicroResult &r = results[i];
        table.addRow({micros[i].name, TextTable::fmt(r.nsPerOp, 1),
                      TextTable::fmt(1e3 / r.nsPerOp, 2),
                      TextTable::fmt(r.iters)});
    }
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
    return 0;
}
