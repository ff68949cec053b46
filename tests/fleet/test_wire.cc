/**
 * @file
 * Wire codec: every field of a CampaignResult must cross the
 * journal/pipe BIT-EXACTLY, because the fleet's byte-identity
 * guarantee reduces to "the merged summary formats the identical
 * double, so it prints the identical text". Doubles travel as C99
 * hexfloats; strings percent-escape anything that would break the
 * space-separated token or one-record-per-line framing. The round-trip
 * tests walk campaign/schema.hh, so a field added there is covered
 * without touching this file.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "campaign/schema.hh"
#include "campaign/spec.hh"
#include "fleet/wire.hh"

using namespace mcversi;
using namespace mcversi::fleet;

namespace {

/** Bit-level double equality (distinguishes -0.0, compares NaN). */
bool
sameBits(double a, double b)
{
    std::uint64_t ba = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ba, &a, sizeof(a));
    std::memcpy(&bb, &b, sizeof(b));
    return ba == bb;
}

/** Every wire field of @p result as "key=text", doubles as bits. */
std::vector<std::string>
wireFields(const campaign::CampaignResult &result)
{
    const auto bits = [](double v) {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof(v));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(b));
        return std::string(buf);
    };
    std::vector<std::string> out;
    campaign::visitResultFields(
        result, [&](const campaign::ResultField &f, const auto &field) {
            using T = std::decay_t<decltype(field)>;
            if (f.wire == nullptr)
                return;
            std::string text;
            if constexpr (std::is_same_v<T, std::string>) {
                text = field;
            } else if constexpr (std::is_same_v<T, std::vector<double>>) {
                for (const double v : field)
                    text += bits(v) + ",";
            } else if constexpr (std::is_floating_point_v<T>) {
                text = bits(field);
            } else {
                text = std::to_string(field);
            }
            out.push_back(std::string(f.wire) + "=" + text);
        });
    return out;
}

/** Gives every wire field a distinct non-default value. */
void
fillEveryWireField(campaign::CampaignResult &result)
{
    int n = 0;
    campaign::visitResultFields(
        result, [&n](const campaign::ResultField &f, auto &&field) {
            using T = std::decay_t<decltype(field)>;
            if (f.wire == nullptr)
                return;
            ++n;
            if constexpr (std::is_same_v<T, std::string>) {
                field = "field " + std::to_string(n) +
                        " = \"%41\"\n\x7f";
            } else if constexpr (std::is_same_v<T, std::vector<double>>) {
                field = {n + 0.1, -0.0, 1.0 / n,
                         std::numeric_limits<double>::infinity()};
            } else if constexpr (std::is_same_v<T, bool>) {
                field = true;
            } else if constexpr (std::is_floating_point_v<T>) {
                field = n + 1.0 / 3.0;
            } else {
                field = static_cast<T>(1000 + n);
            }
        });
}

CellRecord
sampleRecord()
{
    CellRecord record;
    record.cell = 42;
    record.attempt = 3;
    record.spec = "bug=MESI,LQ+IS,Inv generator=McVerSi-ALL seed=7";
    record.result.error = "worker said: \"it = broken\"\ntwo lines";
    record.result.protocolCoverage = 0.6202531646;
    host::HarnessResult &h = record.result.harness;
    h.bugFound = true;
    h.detail = "cycle in hb: [R a=1] %% [W a=2]";
    h.testRuns = 1000;
    h.testRunsToBug = 617;
    h.wallSeconds = 12.75;
    h.wallSecondsToBug = 7.03125;
    h.checkSeconds = 1.0 / 3.0;
    h.simTicks = 123456789;
    h.eventsExecuted = 424242;
    h.simEvents = 999;
    h.messagesSent = 31337;
    h.totalCoverage = 0.1 + 0.2; // deliberately not representable
    h.checkCacheHits = 17;
    h.checkCacheMisses = 4096;
    h.distinctInterleavings = 57;
    h.meanFitness = 0.730000000000000093;
    h.fitnessTrajectory = {0.1, 0.25, 1.0 / 7.0};
    h.ndtHistory = {0.0, -0.0, 2.2250738585072014e-308};
    return record;
}

} // namespace

TEST(WireTokens, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    const std::string escaped = escapeToken(all);
    // Framing bytes never appear escaped output.
    EXPECT_EQ(escaped.find(' '), std::string::npos);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    EXPECT_EQ(escaped.find('='), std::string::npos);
    EXPECT_EQ(unescapeToken(escaped), all);
}

TEST(WireDoubles, HexfloatRoundTripIsBitExact)
{
    const double cases[] = {
        0.0,
        -0.0,
        1.0,
        0.1 + 0.2,
        1.0 / 3.0,
        6.02214076e23,
        -2.2250738585072014e-308, // smallest normal, negated
        4.9406564584124654e-324,  // smallest denormal
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (const double v : cases) {
        double back = 0.0;
        ASSERT_TRUE(decodeDouble(encodeDouble(v), back)) << v;
        if (std::isnan(v)) {
            EXPECT_TRUE(std::isnan(back)) << encodeDouble(v);
        } else {
            EXPECT_TRUE(sameBits(v, back))
                << encodeDouble(v) << " -> " << encodeDouble(back);
        }
    }
}

TEST(WireCell, FullRecordRoundTrips)
{
    CellRecord record;
    record.cell = 42;
    record.attempt = 3;
    record.spec = "bug=MESI,LQ+IS,Inv generator=McVerSi-ALL seed=7";
    fillEveryWireField(record.result);
    // The filler reached every wire field: none kept its default.
    const std::vector<std::string> filled = wireFields(record.result);
    const std::vector<std::string> blank =
        wireFields(campaign::CampaignResult{});
    ASSERT_EQ(filled.size(), blank.size());
    for (std::size_t i = 0; i < filled.size(); ++i)
        EXPECT_NE(filled[i], blank[i]);

    const std::string payload = encodeCell(record);
    // Journal framing invariant: a payload is a single line.
    EXPECT_EQ(payload.find('\n'), std::string::npos);

    CellRecord back;
    std::string err;
    ASSERT_TRUE(decodeCell(payload, back, &err)) << err;
    EXPECT_EQ(back.cell, record.cell);
    EXPECT_EQ(back.attempt, record.attempt);
    EXPECT_EQ(back.spec, record.spec);
    EXPECT_EQ(wireFields(back.result), filled);
}

TEST(WireCell, JournalRecordOfTheEarlierFormatDecodes)
{
    // sampleRecord() as encoded before the codec was driven by
    // campaign/schema.hh (and before it carried events_until_detection,
    // which therefore decodes as its default). Journals written then
    // must still resume.
    const std::string payload =
        R"(cell=42 attempt=3)"
        R"( spec=bug%3DMESI,LQ+IS,Inv%20generator%3DMcVerSi-ALL%20seed%3D7)"
        R"( error=worker%20said:%20"it%20%3D%20broken"%0Atwo%20lines)"
        R"( pcov=0x1.3d91d2a2651f6p-1 bug=1)"
        R"( detail=cycle%20in%20hb:%20[R%20a%3D1]%20%25%25%20[W%20a%3D2])"
        R"( runs=1000 runs2bug=617 wall=0x1.98p+3 wall2bug=0x1.c2p+2)"
        R"( check=0x1.5555555555555p-2 ticks=123456789 events=424242)"
        R"( simev=999 msgs=31337 cov=0x1.3333333333334p-2 hits=17)"
        R"( misses=4096 distinct=57 meanfit=0x1.75c28f5c28f5dp-1)"
        R"( traj=0x1.999999999999ap-4,0x1p-2,0x1.2492492492492p-3)"
        R"( ndt=0x0p+0,-0x0p+0,0x1p-1022)";
    const CellRecord expected = sampleRecord();
    CellRecord back;
    std::string err;
    ASSERT_TRUE(decodeCell(payload, back, &err)) << err;
    EXPECT_EQ(back.cell, expected.cell);
    EXPECT_EQ(back.attempt, expected.attempt);
    EXPECT_EQ(back.spec, expected.spec);
    EXPECT_EQ(wireFields(back.result), wireFields(expected.result));
}

TEST(WireCell, ValuesThatDoNotParseCompletelyAreRejected)
{
    CellRecord back;
    std::string err;
    ASSERT_TRUE(decodeCell("cell=1 spec=x runs=12 wall=0x1p-1 "
                           "traj=0x1p+0,nan",
                           back, &err))
        << err;
    EXPECT_EQ(back.result.harness.testRuns, 12u);
    EXPECT_EQ(back.result.harness.wallSeconds, 0.5);
    EXPECT_EQ(back.result.harness.fitnessTrajectory.size(), 2u);

    for (const char *bad : {
             "cell=1x spec=x",
             "cell=-1 spec=x",
             "cell=1 spec=x attempt=4294967296",
             "cell=1 spec=x runs=12x",
             "cell=1 spec=x runs=abc",
             "cell=1 spec=x runs=",
             "cell=1 spec=x runs=+5",
             "cell=1 spec=x runs=18446744073709551616",
             "cell=1 spec=x bug=yes",
             "cell=1 spec=x wall=1.5s",
             "cell=1 spec=x wall=",
             "cell=1 spec=x traj=0x1p+0,,0x1p+0",
             "cell=1 spec=x ndt=0x1p+0,oops",
         }) {
        err.clear();
        EXPECT_FALSE(decodeCell(bad, back, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    // Unknown keys stay ignored whatever their value.
    EXPECT_TRUE(decodeCell("cell=1 spec=x future-key=12x", back));

    MetaRecord meta;
    EXPECT_FALSE(decodeMeta("meta=mcvj1 cells=12x matrix=0", meta));
}

TEST(WireCell, UnknownKeysAreIgnoredMissingRequiredKeysFail)
{
    CellRecord back;
    // Forward compatibility: a newer writer may add fields.
    EXPECT_TRUE(
        decodeCell("cell=1 spec=x future-key=whatever bug=1", back));
    EXPECT_EQ(back.cell, 1u);
    EXPECT_TRUE(back.result.harness.bugFound);
    // attempt defaults to 1 when absent.
    EXPECT_EQ(back.attempt, 1u);

    std::string err;
    EXPECT_FALSE(decodeCell("spec=x bug=1", back, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(decodeCell("cell=1 bug=1", back, &err));
    EXPECT_FALSE(decodeCell("cell=1 spec=x =broken", back, &err));
}

TEST(WireMeta, RoundTripsAndRejectsNonMeta)
{
    MetaRecord meta;
    meta.cells = 12;
    meta.fingerprint = 0xDEADBEEFCAFEF00Dull;
    MetaRecord back;
    ASSERT_TRUE(decodeMeta(encodeMeta(meta), back));
    EXPECT_EQ(back.cells, meta.cells);
    EXPECT_EQ(back.fingerprint, meta.fingerprint);

    EXPECT_FALSE(decodeMeta("cell=1 spec=x", back));
    EXPECT_FALSE(decodeMeta("meta=mcvj99 cells=1 matrix=0", back));
}

TEST(WireMeta, FingerprintTracksMatrixIdentity)
{
    campaign::CampaignMatrix matrix;
    matrix.base.testSize = 64;
    matrix.bugs = {"none", "SQ+no-FIFO"};
    matrix.seeds = {1, 2};
    const auto specs = matrix.expand();
    const std::uint64_t fp = matrixFingerprint(specs);
    EXPECT_EQ(matrixFingerprint(specs), fp); // stable

    // Any change to any cell -- or to the order -- changes it.
    auto reordered = specs;
    std::swap(reordered.front(), reordered.back());
    EXPECT_NE(matrixFingerprint(reordered), fp);

    auto edited = specs;
    edited[0].seed = 3;
    EXPECT_NE(matrixFingerprint(edited), fp);

    auto shorter = specs;
    shorter.pop_back();
    EXPECT_NE(matrixFingerprint(shorter), fp);
}
