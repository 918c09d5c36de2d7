/**
 * @file
 * Tests of the benchmark's own measurement code: order statistics
 * against Python's statistics module, failure counting in the op
 * ledger, and span self-time subtraction.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"

using namespace perfbench;

namespace {

void
expectQuartiles(std::vector<double> values, double q1, double q2, double q3)
{
    const Quartiles q = quartiles(values);
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q2, q2);
    EXPECT_DOUBLE_EQ(q.q3, q3);
}

} // namespace

// Expected values are statistics.quantiles(values, n=4) outputs.
TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    expectQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
    expectQuartiles({3.0, 1.0}, 0.5, 2.0, 3.5);
    expectQuartiles({5, 1, 4}, 1.0, 4.0, 5.0);
    expectQuartiles({2.5, 9.0, 1.0, 7.0}, 1.375, 4.75, 8.5);
    expectQuartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30.0,
                    60.0, 90.0);
    expectQuartiles({4.2}, 4.2, 4.2, 4.2);
    EXPECT_THROW(quartiles({}), std::invalid_argument);
}

TEST(Stats, MedianOfOddAndEvenSizes)
{
    EXPECT_DOUBLE_EQ(median({5, 1, 4}), 4.0);
    EXPECT_DOUBLE_EQ(median({2.5, 9.0, 1.0, 7.0}), 4.75);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentile)
{
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    EXPECT_DOUBLE_EQ(nearestRank(ten, 0.9), 9.0);
    EXPECT_DOUBLE_EQ(nearestRank(ten, 0.95), 10.0);
    EXPECT_DOUBLE_EQ(nearestRank(ten, 0.1), 1.0);
    EXPECT_DOUBLE_EQ(nearestRank({4.0, 2.0, 3.0, 1.0}, 0.9), 4.0);
    EXPECT_DOUBLE_EQ(nearestRank({7.5}, 0.9), 7.5);
    EXPECT_THROW(nearestRank({}, 0.9), std::invalid_argument);
    EXPECT_THROW(nearestRank({1.0}, 0.0), std::invalid_argument);
}

TEST(Ledger, ByteFlipInARepeatIsCountedAsFailed)
{
    std::vector<float> output = {1.0f, 2.0f, 3.0f};
    auto digest = [&] {
        return Digest().add(std::as_bytes(std::span(output))).value();
    };
    OpLedger ledger;
    EXPECT_TRUE(ledger.record("GCN/CR", digest(), true));
    EXPECT_TRUE(ledger.record("GCN/CR", digest(), true));

    unsigned char bytes[sizeof(float)];
    std::memcpy(bytes, &output[1], sizeof(float));
    bytes[0] ^= 1; // one flipped mantissa bit
    std::memcpy(&output[1], bytes, sizeof(float));
    EXPECT_FALSE(ledger.record("GCN/CR", digest(), true));
    EXPECT_EQ(ledger.attempted(), 3u);
    EXPECT_EQ(ledger.failed(), 1u);

    // Other keys keep their own first digest.
    EXPECT_TRUE(ledger.record("GCN/PB", digest(), true));
    EXPECT_EQ(ledger.failed(), 1u);
}

TEST(Ledger, FailedChecksThrowsAndWeightedOpsAreCounted)
{
    OpLedger ledger;
    EXPECT_FALSE(ledger.record("serve", 7, false, 1000));
    EXPECT_TRUE(ledger.record("cell", 9, true));
    ledger.fail();
    ledger.markFailed(1); // the "cell" op, failed by a later oracle
    EXPECT_EQ(ledger.attempted(), 1002u);
    EXPECT_EQ(ledger.failed(), 1002u);
}

TEST(Tracer, SelfTimeSubtractsUnionOfChildrenClippedToParent)
{
    Tracer tracer(true);
    const std::int64_t root = tracer.add({"pass", 0, 100, -1});
    tracer.add({"op", 10, 30, root});
    tracer.add({"op", 20, 50, root}); // overlaps the first child
    tracer.add({"op", 90, 120, root}); // runs past the parent
    tracer.add({"other", 200, 260, -1});

    const auto totals = tracer.totals();
    // Children cover [10, 50) and [90, 100) of the parent: 50 ns.
    EXPECT_DOUBLE_EQ(totals.at("pass").totalNs, 100.0);
    EXPECT_DOUBLE_EQ(totals.at("pass").selfNs, 50.0);
    EXPECT_EQ(totals.at("op").count, 3u);
    EXPECT_DOUBLE_EQ(totals.at("op").totalNs, 20.0 + 30.0 + 30.0);
    EXPECT_DOUBLE_EQ(totals.at("op").selfNs, 80.0);
    EXPECT_DOUBLE_EQ(totals.at("other").selfNs, 60.0);
}

TEST(Tracer, NestedScopesRecordParentsAndDisabledRecordsNothing)
{
    Tracer tracer(true);
    {
        Scoped outer(tracer, "outer");
        Scoped inner(tracer, "inner");
    }
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[0].parent, -1);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
    EXPECT_LE(tracer.spans()[1].endNs, tracer.spans()[0].endNs);
    const auto totals = tracer.totals();
    EXPECT_DOUBLE_EQ(totals.at("outer").selfNs,
                     totals.at("outer").totalNs - totals.at("inner").totalNs);
    EXPECT_NE(tracer.chromeJson().find("\"traceEvents\":["),
              std::string::npos);

    Tracer off(false);
    {
        Scoped span(off, "ignored");
    }
    EXPECT_TRUE(off.spans().empty());
}
