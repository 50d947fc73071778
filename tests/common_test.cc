/**
 * @file
 * Unit tests for common/: logging helpers, math utilities, units,
 * the result-table builder, and the planner thread-pool substrate
 * (ThreadPool / StripedMemo).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/sharded_memo.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace spindle {
namespace {

TEST(StrCat, ConcatenatesMixedTypes)
{
    EXPECT_EQ(strCat("a", 1, "-", 2.5), "a1-2.5");
    EXPECT_EQ(strCat(), "");
}

TEST(Logging, FatalExitsWithCode1)
{
    EXPECT_EXIT(fatal("boom"), ::testing::ExitedWithCode(1), "boom");
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    fatalIf(false, "must not fire");
    EXPECT_EXIT(fatalIf(true, "fires"), ::testing::ExitedWithCode(1),
                "fires");
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(panic("invariant"), "invariant");
}

TEST(Logging, RecoverableScopeTurnsFatalIntoException)
{
    EXPECT_FALSE(RecoverableScope::active());
    {
        RecoverableScope scope;
        EXPECT_TRUE(RecoverableScope::active());
        EXPECT_THROW(fatal("bad request"), RecoverableError);
        try {
            fatalIf(true, "tenant config rejected");
            FAIL() << "fatalIf must throw inside a RecoverableScope";
        } catch (const RecoverableError &err) {
            EXPECT_STREQ(err.what(), "tenant config rejected");
        }
        // Nesting: the inner scope's exit must not disable the outer.
        {
            RecoverableScope inner;
            EXPECT_TRUE(RecoverableScope::active());
        }
        EXPECT_TRUE(RecoverableScope::active());
    }
    EXPECT_FALSE(RecoverableScope::active());
    // Back to the historical contract once the scope is gone.
    EXPECT_EXIT(fatal("boom"), ::testing::ExitedWithCode(1), "boom");
}

TEST(Logging, RecoverableScopeIsThreadLocal)
{
    RecoverableScope scope;
    bool other_thread_active = true;
    std::thread probe(
        [&] { other_thread_active = RecoverableScope::active(); });
    probe.join();
    EXPECT_FALSE(other_thread_active)
        << "a scope on one thread must not leak to others";
}

TEST(Logging, PanicStaysFatalInsideRecoverableScope)
{
    EXPECT_DEATH(
        {
            RecoverableScope scope;
            panic("invariant broke");
        },
        "invariant broke");
}

/** A message piece that counts how often it is streamed. */
struct CountingPiece
{
    int *streamed;
};

std::ostream &
operator<<(std::ostream &os, const CountingPiece &piece)
{
    ++*piece.streamed;
    return os << "piece";
}

TEST(Logging, PassingChecksNeverFormatTheirMessage)
{
    int streamed = 0;
    const CountingPiece piece{&streamed};
    for (int i = 0; i < 3; ++i) {
        panicIf(false, "occupy: bad device ", i, " ", piece);
        fatalIf(false, "addEdge: bad src ", piece, " at ", 2.5);
    }
    EXPECT_EQ(streamed, 0);
}

TEST(Logging, FiringFatalIfFormatsThePiecesLikeStrCat)
{
    int streamed = 0;
    const CountingPiece piece{&streamed};
    const std::string expected =
        strCat("withoutDevices: dead device id ", 4100u,
               " out of range [0, ", 4096u, ") ", piece, " ", 0.25);
    RecoverableScope scope;
    try {
        fatalIf(true, "withoutDevices: dead device id ", 4100u,
                " out of range [0, ", 4096u, ") ", piece, " ", 0.25);
        FAIL() << "fatalIf must throw inside a RecoverableScope";
    } catch (const RecoverableError &err) {
        EXPECT_EQ(err.what(), expected);
    }
    // Once for the reference strCat, once for the firing check.
    EXPECT_EQ(streamed, 2);
    // The single prebuilt-string form still compiles and reports
    // the string verbatim.
    EXPECT_THROW(fatalIf(true, std::string("prebuilt")), RecoverableError);
}

TEST(Logging, FiringPanicIfFormatsThePiecesLikeStrCat)
{
    EXPECT_DEATH(panicIf(true, "occupy: bad device ", 4097, " of ", 4096,
                         " at t=", 1.5),
                 "panic: occupy: bad device 4097 of 4096 at t=1\\.5");
}

TEST(NearlyEqual, AbsoluteAndRelative)
{
    EXPECT_TRUE(nearlyEqual(1.0, 1.0));
    EXPECT_TRUE(nearlyEqual(1.0, 1.0 + 1e-13));
    EXPECT_TRUE(nearlyEqual(1e12, 1e12 * (1 + 1e-10)));
    EXPECT_FALSE(nearlyEqual(1.0, 1.001));
    EXPECT_TRUE(nearlyEqual(0.0, 0.0));
}

TEST(LinearFit, RecoversExactLine)
{
    auto [a, b] = linearFit({1, 2, 3, 4}, {3, 5, 7, 9});
    EXPECT_NEAR(a, 1.0, 1e-9);
    EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST(LinearFit, FlatWhenAbscissaeIdentical)
{
    auto [a, b] = linearFit({2, 2, 2}, {1, 2, 3});
    EXPECT_NEAR(a, 2.0, 1e-9);
    EXPECT_NEAR(b, 0.0, 1e-9);
}

TEST(LinearFit, LeastSquaresOnNoisyData)
{
    // y = 1 + 2x with symmetric +-0.1 noise keeps the fit centered.
    auto [a, b] = linearFit({1, 2, 3, 4}, {3.1, 4.9, 7.1, 8.9});
    EXPECT_NEAR(b, 2.0, 0.05);
    EXPECT_NEAR(a, 1.0, 0.15);
}

TEST(PowerOfTwo, Predicates)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(PowerOfTwo, FloorAndCeil)
{
    EXPECT_EQ(floorPowerOfTwo(1), 1u);
    EXPECT_EQ(floorPowerOfTwo(9), 8u);
    EXPECT_EQ(floorPowerOfTwo(64), 64u);
    EXPECT_EQ(ceilPowerOfTwo(9), 16u);
    EXPECT_EQ(ceilPowerOfTwo(64), 64u);
}

TEST(RoundNearest, HalfAwayFromZero)
{
    EXPECT_EQ(roundNearest(1.4), 1);
    EXPECT_EQ(roundNearest(1.5), 2);
    EXPECT_EQ(roundNearest(2.5), 3);
    EXPECT_EQ(roundNearest(0.0), 0);
}

TEST(WaveSliceOps, NearestRatioClampedToValidRange)
{
    EXPECT_EQ(waveSliceOps(4.0, 1.0, 10), 4);
    EXPECT_EQ(waveSliceOps(4.6, 1.0, 10), 5);
    // Rounds to zero before the clamp: a wave still covers one op.
    EXPECT_EQ(waveSliceOps(0.2, 1.0, 10), 1);
    // Ratio past the remaining operators clamps down.
    EXPECT_EQ(waveSliceOps(100.0, 1.0, 10), 10);
}

TEST(WaveSliceOps, DenormalPerOpTimeIsDefined)
{
    // A denormal curve time drives span / per_op to infinity, where
    // llround() is undefined; the epsilon criterion must map the
    // regime to "everything remaining fits" instead.
    EXPECT_EQ(waveSliceOps(1.0, 1e-320, 7), 7);
    EXPECT_EQ(waveSliceOps(1.0, 0.0, 7), 7);
    // Denormal ratios that stay representable keep exact slicing.
    EXPECT_EQ(waveSliceOps(2e-320, 1e-320, 3), 2);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(toMs(0.5), 500.0);
    EXPECT_DOUBLE_EQ(toTflops(312e12), 312.0);
    EXPECT_DOUBLE_EQ(GiB, 1024.0 * 1024.0 * 1024.0);
}

TEST(Table, AlignedAndCsvOutput)
{
    Table t({"sys", "ms"});
    t.addRow({"Spindle", "12.5"});
    t.addRow({"DeepSpeed", "20.0"});
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "sys,ms\nSpindle,12.5\nDeepSpeed,20.0\n");

    std::ostringstream aligned;
    t.printAligned(aligned);
    EXPECT_NE(aligned.str().find("Spindle"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_EXIT(t.addRow({"only-one"}), ::testing::ExitedWithCode(1),
                "row width");
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(ThreadPoolTest, ResolveThreadCount)
{
    EXPECT_GE(resolveThreadCount(0), 1u); // auto: at least one lane
    EXPECT_EQ(resolveThreadCount(1), 1u);
    EXPECT_EQ(resolveThreadCount(7), 7u);
    // Absurd requests warn and clamp instead of spawning a fork bomb.
    EXPECT_EQ(resolveThreadCount(1u << 20), kMaxPlannerThreads);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce)
{
    for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallelFor(0, hits.size(), 7,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolTest, RunReportsDeterministicChunkGrid)
{
    // Chunk boundaries depend only on (begin, end, grain) — the
    // contract deterministic reductions build on.
    ThreadPool pool(4);
    std::vector<std::pair<std::size_t, std::size_t>> chunks(4);
    pool.run(10, 45, 10,
             [&](std::size_t c, std::size_t lo, std::size_t hi) {
                 chunks[c] = {lo, hi};
             });
    EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{10, 20}));
    EXPECT_EQ(chunks[1], (std::pair<std::size_t, std::size_t>{20, 30}));
    EXPECT_EQ(chunks[2], (std::pair<std::size_t, std::size_t>{30, 40}));
    EXPECT_EQ(chunks[3], (std::pair<std::size_t, std::size_t>{40, 45}));
}

TEST(ThreadPoolTest, ParallelReduceMergesInChunkOrder)
{
    // Sum of 1..N via per-chunk partial sums: exact in integers, and
    // the per-chunk partials make merge-order bugs visible.
    ThreadPool pool(4);
    const std::size_t kCount = 10000;
    auto total = pool.parallelReduce<std::uint64_t>(
        1, kCount + 1, 13,
        [](std::uint64_t &acc, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                acc += i;
        },
        [](std::uint64_t &out, const std::uint64_t &part) {
            out += part;
        });
    EXPECT_EQ(total, kCount * (kCount + 1) / 2);
}

TEST(ThreadPoolTest, BackToBackRegionsReuseWorkers)
{
    // Many consecutive small regions (the placement-sweep pattern):
    // each must run to completion before the next is issued.
    ThreadPool pool(4);
    std::vector<int> data(256, 0);
    for (int round = 0; round < 200; ++round) {
        pool.parallelFor(0, data.size(), 16,
                         [&](std::size_t i) { data[i] += 1; });
    }
    for (int v : data)
        EXPECT_EQ(v, 200);
}

TEST(ThreadPoolTest, PostedTasksRunFifoToCompletion)
{
    // post() is the PlanService admission substrate: detached tasks
    // must all run, and a single worker must drain them in FIFO
    // order.
    ThreadPool pool(2); // exactly one worker thread
    std::mutex mu;
    std::vector<int> order;
    std::condition_variable cv;
    for (int i = 0; i < 16; ++i)
        pool.post([&, i] {
            std::lock_guard<std::mutex> lk(mu);
            order.push_back(i);
            cv.notify_all();
        });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return order.size() == 16; });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPoolTest, PostedTasksCoexistWithChunkedRegions)
{
    // A chunked region dispatched while detached tasks drain: both
    // must complete; neither may starve the other.
    ThreadPool pool(4);
    std::atomic<int> tasks_run{0};
    for (int i = 0; i < 32; ++i)
        pool.post([&] { tasks_run.fetch_add(1); });
    std::vector<std::atomic<int>> hits(512);
    pool.parallelFor(0, hits.size(), 8,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    while (tasks_run.load() != 32)
        std::this_thread::yield();
    EXPECT_EQ(tasks_run.load(), 32);
}

TEST(ThreadPoolDeathTest, PostOnWorkerlessPoolPanics)
{
    // threads == 1 has nobody to run a detached task; silently
    // running it inline would turn an async API into a blocking one.
    EXPECT_DEATH(
        {
            ThreadPool pool(1);
            pool.post([] {});
        },
        "no worker threads");
}

TEST(StripedMemoTest, ValueTransparentAndConcurrent)
{
    StripedMemo<std::uint64_t, double> memo(1 << 10);
    std::atomic<int> computes{0};
    auto compute_for = [&](std::uint64_t k) {
        return [&computes, k] {
            computes.fetch_add(1);
            return static_cast<double>(k) * 1.5;
        };
    };
    EXPECT_DOUBLE_EQ(memo.getOrCompute(4, compute_for(4)), 6.0);
    EXPECT_DOUBLE_EQ(memo.getOrCompute(4, compute_for(4)), 6.0);
    EXPECT_EQ(computes.load(), 1); // second lookup hit the cache

    // Hammer one memo from several lanes; every answer must be the
    // pure function's (this is also the TSan coverage for the
    // striped locking).
    ThreadPool pool(8);
    std::atomic<int> mismatches{0};
    pool.parallelFor(0, 4096, 1, [&](std::size_t i) {
        const std::uint64_t key = i % 97;
        const double got = memo.getOrCompute(key, compute_for(key));
        if (got != static_cast<double>(key) * 1.5)
            mismatches.fetch_add(1);
    });
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace spindle
