/**
 * @file
 * Observability-layer tests (docs/OBSERVABILITY.md): the JSON
 * writer/parser pair, the timeline recorder's Chrome trace-event output
 * (well-formed, every duration begin matched by an end per track,
 * bus-track durations equal to BusStats), reportAllJson agreeing with
 * the live System totals, and attached sinks leaving the run unchanged.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/sim_fault.h"
#include "obs/attribution.h"
#include "obs/timeline.h"
#include "sim/report_json.h"
#include "sim/system.h"

namespace pim {
namespace {

SystemConfig
smallSystem(std::uint32_t pes = 4)
{
    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry = {4, 2, 8};
    config.memoryWords = 1 << 20;
    return config;
}

/** Drive a small multi-PE workload touching most event kinds. */
void
driveWorkload(System& sys)
{
    const std::uint32_t pes = sys.numPes();
    // Shared reads/writes with cross-PE conflicts (fills, invalidates,
    // state transitions, swap-outs once the tiny cache overflows).
    for (Addr a = 0; a < 256; a += 2) {
        sys.access(a % pes, MemOp::W, a, Area::Heap, a);
        sys.access((a + 1) % pes, MemOp::R, a, Area::Heap, 0);
    }
    // A lock handoff: LR by one PE, a competing LR that parks, UW wake.
    ASSERT_FALSE(sys.access(0, MemOp::LR, 512, Area::Heap, 0).lockWait);
    ASSERT_TRUE(sys.access(1, MemOp::LR, 512, Area::Heap, 0).lockWait);
    sys.access(0, MemOp::UW, 512, Area::Heap, 7);
    ASSERT_FALSE(sys.access(1, MemOp::LR, 512, Area::Heap, 0).lockWait);
    sys.access(1, MemOp::U, 512, Area::Heap, 0);
    // Producer/consumer record flow: DW then ER/RP (purges, C2C fills).
    for (Addr a = 1024; a < 1032; ++a)
        sys.access(2, MemOp::DW, a, Area::Goal, a);
    for (Addr a = 1024; a < 1032; ++a) {
        sys.access(3, a + 1 == 1032 ? MemOp::RP : MemOp::ER, a, Area::Goal,
                   0);
    }
}

// ---------------------------------------------------------------- JSON

TEST(Json, WriterParserRoundTrip)
{
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("text", "quote\"back\\slash\nnewline");
    json.field("count", std::uint64_t{42});
    json.field("negative", std::int64_t{-7});
    json.field("ratio", 0.25);
    json.field("flag", true);
    json.key("missing");
    json.valueNull();
    json.key("list");
    json.beginArray();
    json.value(std::uint64_t{1});
    json.value(std::uint64_t{2});
    json.beginObject();
    json.field("nested", "yes");
    json.endObject();
    json.endArray();
    json.endObject();

    const JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(doc.at("text").asString(), "quote\"back\\slash\nnewline");
    EXPECT_EQ(doc.at("count").asNumber(), 42.0);
    EXPECT_EQ(doc.at("negative").asNumber(), -7.0);
    EXPECT_EQ(doc.at("ratio").asNumber(), 0.25);
    EXPECT_TRUE(doc.at("flag").asBool());
    EXPECT_TRUE(doc.at("missing").isNull());
    EXPECT_EQ(doc.at("list").size(), 3u);
    EXPECT_EQ(doc.at("list").at(2).at("nested").asString(), "yes");
}

TEST(Json, RawValueKeepsCommasCorrect)
{
    // rawValue must participate in comma/key bookkeeping: two raw values
    // in a row, then a normal field, must still parse.
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/false);
    json.beginObject();
    json.key("a");
    json.rawValue("{\"x\":1}");
    json.key("b");
    json.rawValue("2");
    json.field("c", std::uint64_t{3});
    json.endObject();

    const JsonValue doc = JsonValue::parse(os.str());
    EXPECT_EQ(doc.at("a").at("x").asNumber(), 1.0);
    EXPECT_EQ(doc.at("b").asNumber(), 2.0);
    EXPECT_EQ(doc.at("c").asNumber(), 3.0);
}

TEST(Json, ParserRejectsMalformed)
{
    EXPECT_THROW(JsonValue::parse("{\"a\": }"), SimFault);
    EXPECT_THROW(JsonValue::parse("[1, 2"), SimFault);
    EXPECT_THROW(JsonValue::parse("{} trailing"), SimFault);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), SimFault);
    try {
        JsonValue::parse("nope");
        FAIL() << "expected SimFault";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Parse);
    }
}

TEST(Json, FindPath)
{
    const JsonValue doc = JsonValue::parse(
        "{\"rows\": [{\"bench\": \"Tri\", \"v\": 1}, {\"v\": 2}],"
        " \"meta\": {\"pes\": 8}}");
    ASSERT_NE(doc.findPath("rows.0.bench"), nullptr);
    EXPECT_EQ(doc.findPath("rows.0.bench")->asString(), "Tri");
    EXPECT_EQ(doc.findPath("rows.1.v")->asNumber(), 2.0);
    EXPECT_EQ(doc.findPath("meta.pes")->asNumber(), 8.0);
    EXPECT_EQ(doc.findPath("rows.2.v"), nullptr);
    EXPECT_EQ(doc.findPath("meta.absent"), nullptr);
    EXPECT_EQ(doc.findPath("rows.notanindex"), nullptr);
}

// ------------------------------------------------------------ Timeline

TEST(Timeline, RoundTripWellFormed)
{
    System sys(smallSystem());
    TimelineRecorder timeline;
    sys.addEventSink(&timeline);
    driveWorkload(sys);

    std::ostringstream os;
    timeline.write(os);
    const JsonValue doc = JsonValue::parse(os.str());
    ASSERT_TRUE(doc.has("traceEvents"));
    const auto& events = doc.at("traceEvents").asArray();
    ASSERT_GT(events.size(), 0u);

    // Track metadata names the bus track and one track per PE.
    std::map<double, std::string> track_names;
    for (const JsonValue& event : events) {
        if (event.at("ph").asString() == "M") {
            track_names[event.at("tid").asNumber()] =
                event.at("args").at("name").asString();
        }
    }
    EXPECT_EQ(track_names[0], "bus");
    EXPECT_EQ(track_names[1], "pe0");
    EXPECT_EQ(track_names[4], "pe3");

    // Every event is well-formed; B/E nest and balance per track, with
    // non-decreasing timestamps; bus-track durations sum to BusStats.
    std::map<double, std::vector<std::string>> open;
    std::map<double, double> last_ts;
    for (const JsonValue& event : events) {
        const std::string ph = event.at("ph").asString();
        if (ph == "M")
            continue;
        ASSERT_TRUE(event.has("name"));
        ASSERT_TRUE(event.has("ts"));
        const double tid = event.at("tid").asNumber();
        const double ts = event.at("ts").asNumber();
        EXPECT_GE(ts, last_ts[tid]) << "timestamps regress on tid " << tid;
        last_ts[tid] = ts;
        if (ph == "B") {
            open[tid].push_back(event.at("name").asString());
        } else if (ph == "E") {
            ASSERT_FALSE(open[tid].empty())
                << "E without B on tid " << tid;
            EXPECT_EQ(open[tid].back(), event.at("name").asString())
                << "mismatched B/E nesting on tid " << tid;
            open[tid].pop_back();
        } else {
            EXPECT_EQ(ph, "i");
        }
    }
    for (const auto& [tid, stack] : open)
        EXPECT_TRUE(stack.empty()) << "unclosed B on tid " << tid;

    // The bus track is one flat sequence of transaction durations whose
    // total equals the accounted bus cycles.
    double bus_busy = 0;
    double prev_b = -1;
    for (const JsonValue& event : events) {
        if (event.at("ph").asString() == "M" ||
            event.at("tid").asNumber() != 0)
            continue;
        const std::string ph = event.at("ph").asString();
        if (ph == "B") {
            ASSERT_LT(prev_b, 0) << "nested bus durations";
            prev_b = event.at("ts").asNumber();
        } else if (ph == "E") {
            ASSERT_GE(prev_b, 0);
            bus_busy += event.at("ts").asNumber() - prev_b;
            prev_b = -1;
        }
    }
    EXPECT_EQ(bus_busy,
              static_cast<double>(sys.bus().stats().totalCycles));
}

TEST(Timeline, AutoClosesAbortedDurations)
{
    TimelineRecorder timeline;
    timeline.onAccessBegin(0, MemOp::R, 8, Area::Heap, 10);
    // No matching end: write() must close it so the document stays
    // loadable.
    std::ostringstream os;
    timeline.write(os);
    const JsonValue doc = JsonValue::parse(os.str());
    int b = 0;
    int e = 0;
    for (const JsonValue& event : doc.at("traceEvents").asArray()) {
        if (event.at("ph").asString() == "B")
            ++b;
        if (event.at("ph").asString() == "E")
            ++e;
    }
    EXPECT_EQ(b, 1);
    EXPECT_EQ(e, 1);
}

// --------------------------------------------------------- reportAllJson

TEST(ReportJson, TotalsMatchSystem)
{
    System sys(smallSystem());
    driveWorkload(sys);

    const JsonValue doc = JsonValue::parse(reportAllJson(sys));
    EXPECT_EQ(doc.at("num_pes").asNumber(), 4.0);
    EXPECT_EQ(doc.at("areas").at("total_refs").asNumber(),
              static_cast<double>(sys.refStats().total()));
    EXPECT_EQ(doc.at("areas").at("total_bus_cycles").asNumber(),
              static_cast<double>(sys.bus().stats().totalCycles));

    const CacheStats cache = sys.totalCacheStats();
    EXPECT_EQ(doc.at("cache_summary").at("accesses").asNumber(),
              static_cast<double>(cache.accesses));
    EXPECT_EQ(doc.at("cache_summary").at("misses").asNumber(),
              static_cast<double>(cache.misses));
    EXPECT_EQ(doc.at("locks").at("lr_count").asNumber(),
              static_cast<double>(cache.lrCount));

    // Per-pattern transactions must sum to the bus total.
    double pattern_cycles = 0;
    for (const JsonValue& row :
         doc.at("bus_patterns").at("by_pattern").asArray())
        pattern_cycles += row.at("cycles").asNumber();
    EXPECT_EQ(pattern_cycles,
              static_cast<double>(sys.bus().stats().totalCycles));
}

// ------------------------------------------------- zero-overhead wiring

TEST(EventSink, NoSinkMeansNoObservableChange)
{
    // Two identical runs, one with both shipped sinks: same stats, same
    // data, and the attribution accounts for every transaction and miss.
    const SystemConfig config = smallSystem();
    System plain(config);
    System observed(config);
    const CacheGeometry& geom = config.cache.geometry;
    AttributionEngine attribution(config.numPes, config.timing,
                                  geom.blockWords, geom.ways * geom.sets);
    TimelineRecorder timeline;
    observed.addEventSink(&attribution);
    observed.addEventSink(&timeline);

    driveWorkload(plain);
    driveWorkload(observed);

    EXPECT_EQ(plain.bus().stats().totalCycles,
              observed.bus().stats().totalCycles);
    EXPECT_EQ(plain.makespan(), observed.makespan());
    EXPECT_EQ(plain.totalCacheStats().misses,
              observed.totalCacheStats().misses);
    EXPECT_GT(timeline.eventCount(), 0u);
    EXPECT_EQ(attribution.crossCheck(observed.bus().stats()), "");
    EXPECT_EQ(attribution.classifiedMisses(),
              observed.totalCacheStats().misses);
}

} // namespace
} // namespace pim
