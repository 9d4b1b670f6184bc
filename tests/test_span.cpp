// Frame-lifecycle span model (obs::Span / obs::Instant /
// obs::SpanCollector, docs/OBSERVABILITY.md): tree assembly, id-remapped
// merges, the determinism contract under carpool::par sharding, instant
// records from the MAC and PHY, and the JSONL / Chrome trace-event
// exporters. Suite names contain "Span" so the CI tsan lane's test
// filter picks them up.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "mac/simulator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "par/par.hpp"
#include "traffic/generators.hpp"

namespace carpool {
namespace {

/// Minimal structural JSON check (mirrors test_obs.cpp): balanced
/// braces/brackets outside strings, terminated strings.
bool json_balanced(std::string_view text) {
  if (text.empty()) return false;
  long braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

obs::SpanRecord sim_record(std::uint64_t parent, std::string name,
                           double start, double duration) {
  obs::SpanRecord r;
  r.parent = parent;
  r.name = std::move(name);
  r.sim_start = start;
  r.sim_duration = duration;
  return r;
}

/// Strip wall-clock fields so records can be compared across runs.
obs::SpanRecord deterministic_part(obs::SpanRecord r) {
  r.wall_start_ns = 0;
  r.wall_ns = 0;
  return r;
}

bool same_modulo_wall(const obs::SpanRecord& a, const obs::SpanRecord& b) {
  const obs::SpanRecord x = deterministic_part(a);
  const obs::SpanRecord y = deterministic_part(b);
  return x.id == y.id && x.parent == y.parent && x.name == y.name &&
         x.ids.txop == y.ids.txop && x.ids.frame == y.ids.frame &&
         x.ids.subframe == y.ids.subframe && x.ids.sta == y.ids.sta &&
         x.sim_start == y.sim_start && x.sim_duration == y.sim_duration &&
         x.outcome == y.outcome && x.args == y.args;
}

TEST(SpanCollector, EmitAssignsContiguousIdsFromOne) {
  obs::SpanCollector collector;
  const std::uint64_t a = collector.emit(sim_record(0, "a", 0.0, 1.0));
  const std::uint64_t b = collector.emit(sim_record(a, "b", 0.1, 0.5));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_EQ(collector.records().size(), 2u);
  EXPECT_EQ(collector.records()[1].parent, a);
}

TEST(SpanCollector, CapDropsRecordsAndCounts) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent metric_scope(reg);
  obs::SpanCollector collector(/*max_records=*/2);
  EXPECT_NE(collector.emit(sim_record(0, "a", 0.0, 1.0)), 0u);
  EXPECT_NE(collector.emit(sim_record(0, "b", 1.0, 1.0)), 0u);
  EXPECT_EQ(collector.emit(sim_record(0, "c", 2.0, 1.0)), 0u);
  EXPECT_EQ(collector.records().size(), 2u);
  EXPECT_EQ(collector.dropped(), 1u);
  EXPECT_EQ(reg.counter_value("obs.spans_dropped"), 1u);
}

TEST(SpanRaii, NestingBuildsParentLinks) {
  obs::SpanCollector collector;
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    obs::Span outer("outer");
    outer.ids({.txop = 7}).sim_interval(1.0, 2.0);
    {
      obs::Span inner("inner");
      inner.outcome("ok");
      EXPECT_EQ(collector.open_span(), inner.id());
    }
    // Non-RAII emit parents itself to the innermost open span.
    obs::SpanRecord leaf;
    leaf.name = "leaf";
    leaf.sim_start = 1.5;
    collector.emit(std::move(leaf));
  }
  // Children complete (and append) before their parent: leaf-first order.
  ASSERT_EQ(collector.records().size(), 3u);
  const auto& records = collector.records();
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[1].name, "leaf");
  EXPECT_EQ(records[2].name, "outer");
  EXPECT_EQ(records[0].parent, records[2].id);
  EXPECT_EQ(records[1].parent, records[2].id);
  EXPECT_EQ(records[2].parent, 0u);
  EXPECT_EQ(records[2].ids.txop, 7);
  // Sim-timeline span: wall fields zeroed; wall leaf keeps its clock.
  EXPECT_TRUE(records[2].on_sim_timeline());
  EXPECT_EQ(records[2].wall_ns, 0u);
  EXPECT_FALSE(records[0].on_sim_timeline());
}

TEST(SpanRaii, InertWithoutCollector) {
  obs::Span span("nobody.listening");
  span.ids({.sta = 3}).outcome("ok");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
}

TEST(SpanMerge, RemapsIdsPastWatermark) {
  obs::SpanCollector a;
  const std::uint64_t a1 = a.emit(sim_record(0, "a1", 0.0, 1.0));
  a.emit(sim_record(a1, "a2", 0.0, 0.5));

  obs::SpanCollector b;
  const std::uint64_t b1 = b.emit(sim_record(0, "b1", 2.0, 1.0));
  b.emit(sim_record(b1, "b2", 2.0, 0.5));

  a.merge_from(b);
  ASSERT_EQ(a.records().size(), 4u);
  // b's ids 1,2 land as 3,4; parent links move with them.
  EXPECT_EQ(a.records()[2].id, 3u);
  EXPECT_EQ(a.records()[3].id, 4u);
  EXPECT_EQ(a.records()[3].parent, 3u);
  // Roots stay roots.
  EXPECT_EQ(a.records()[2].parent, 0u);
  // A second merge continues past the new watermark.
  obs::SpanCollector c;
  c.emit(sim_record(0, "c1", 4.0, 1.0));
  a.merge_from(c);
  EXPECT_EQ(a.records().back().id, 5u);
}

TEST(SpanMerge, FingerprintIgnoresWallClock) {
  obs::SpanCollector a;
  obs::SpanCollector b;
  for (obs::SpanCollector* c : {&a, &b}) {
    obs::SpanRecord r;
    r.name = "decode";
    r.outcome = "ok";
    r.wall_start_ns = (c == &a) ? 100u : 999999u;  // differs
    r.wall_ns = (c == &a) ? 10u : 777u;            // differs
    c->emit(std::move(r));
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  obs::SpanCollector c;
  obs::SpanRecord r;
  r.name = "decode";
  r.outcome = "failed";  // deterministic surface differs
  c.emit(std::move(r));
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(SpanJsonl, OneBalancedObjectPerLine) {
  obs::SpanCollector collector;
  const std::uint64_t root = collector.emit(sim_record(0, "root", 0.0, 2.0));
  obs::SpanRecord leaf;
  leaf.parent = root;
  leaf.name = "quote\"in\\name";
  leaf.ids.sta = 4;
  leaf.wall_start_ns = 10;
  leaf.wall_ns = 25;
  leaf.outcome = "ok";
  collector.emit(std::move(leaf));

  std::ostringstream out;
  collector.write_jsonl(out);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_TRUE(json_balanced(line)) << line;
    EXPECT_NE(line.find("\"type\":\"span\""), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"sim_start\""), std::string::npos);
  EXPECT_EQ(lines[0].find("\"wall_ns\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"wall_ns\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"sim_start\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"sta\":4"), std::string::npos);
}

TEST(SpanChromeTrace, WriterEmitsBalancedTraceEvents) {
  obs::SpanCollector collector;
  const std::uint64_t txop = collector.emit(sim_record(0, "mac.txop", 1.0, 0.5));
  collector.emit(sim_record(txop, "mac.frame", 1.1, 0.3));
  obs::SpanRecord wall_leaf;
  wall_leaf.parent = txop;
  wall_leaf.name = "fec.viterbi_decode";
  wall_leaf.wall_start_ns = 1000;
  wall_leaf.wall_ns = 500;
  collector.emit(std::move(wall_leaf));

  const std::string json = obs::ChromeTraceWriter::to_json(collector.records());
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"mac.txop\""), std::string::npos);
  // Sim seconds -> trace microseconds.
  EXPECT_NE(json.find("\"ts\":1000000.0"), std::string::npos);
  // Both tracks get a thread_name metadata event; the wall leaf hangs
  // off a sim parent, which also emits a flow-event pair.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

/// One sharded job: a txop span wrapping per-item child spans plus a
/// direct emit, all deterministic functions of the job index.
int span_job(const par::ShardInfo& info) {
  obs::Span txop("job.txop");
  txop.ids({.txop = static_cast<std::int64_t>(info.index)})
      .sim_interval(static_cast<double>(info.index), 1.0)
      .outcome(info.index % 3 == 0 ? "ok" : "failed");
  for (int k = 0; k < 3; ++k) {
    obs::Span child("job.subframe");
    child.ids({.subframe = k});
  }
  obs::SpanRecord leaf;
  leaf.name = "job.leaf";
  leaf.sim_start = static_cast<double>(info.index) + 0.5;
  obs::SpanCollector::current()->emit(std::move(leaf));
  return static_cast<int>(info.index);
}

void run_span_sweep(std::size_t threads, obs::SpanCollector& collector,
                    int (*job)(const par::ShardInfo&) = span_job) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent metric_scope(reg);
  const obs::SpanCollector::ScopedCurrent span_scope(collector);
  const auto results = par::run_sharded(16, threads, job);
  EXPECT_EQ(results.size(), 16u);
}

TEST(SpanSharding, SerialAndParallelStreamsAreIdentical) {
  obs::SpanCollector serial;
  obs::SpanCollector parallel;
  run_span_sweep(1, serial);
  run_span_sweep(4, parallel);
  ASSERT_EQ(serial.records().size(), parallel.records().size());
  ASSERT_EQ(serial.records().size(), 16u * 5u);  // txop + 3 children + leaf
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  for (std::size_t i = 0; i < serial.records().size(); ++i) {
    EXPECT_TRUE(same_modulo_wall(serial.records()[i], parallel.records()[i]))
        << "record " << i << ": " << serial.records()[i].name << " vs "
        << parallel.records()[i].name;
  }
}

TEST(SpanSharding, ParallelJsonlIsIntactAndTreeConsistent) {
  obs::SpanCollector collector;
  run_span_sweep(4, collector);
  std::ostringstream out;
  collector.write_jsonl(out);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), collector.records().size());
  for (const auto& line : lines) {
    ASSERT_TRUE(json_balanced(line)) << line;
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
  }
  // The merged stream reassembles into a consistent forest: unique ids,
  // every parent resolves, and every child's parent is a job.txop root.
  std::set<std::uint64_t> ids;
  std::map<std::uint64_t, std::string> name_of;
  for (const auto& r : collector.records()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    name_of[r.id] = r.name;
  }
  std::size_t roots = 0;
  for (const auto& r : collector.records()) {
    if (r.parent == 0) {
      ++roots;
      EXPECT_EQ(r.name, "job.txop");
    } else {
      ASSERT_TRUE(ids.count(r.parent)) << "dangling parent " << r.parent;
      EXPECT_EQ(name_of[r.parent], "job.txop");
    }
  }
  EXPECT_EQ(roots, 16u);
}

TEST(SpanJsonl, FileRoundTripAndStreamFailure) {
  obs::SpanCollector collector;
  collector.emit(sim_record(0, "root", 0.0, 1.0));
  const std::string path = testing::TempDir() + "span_roundtrip.jsonl";
  {
    std::ofstream file(path, std::ios::trunc);
    collector.write_jsonl(file);
    file.close();
    EXPECT_TRUE(file);
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(split_lines(text.str()).size(), 1u);

  // A stream that cannot take the bytes reports it through its state.
  std::ostream broken(nullptr);
  collector.write_jsonl(broken);
  EXPECT_FALSE(broken);
}

/// The span export soak runs at exit: a collector that hit its record
/// cap fails the export (the files hold only the head of the run), and
/// says how many records it lost.
TEST(SpanExport, RecordsDroppedAtCapFailTheExport) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent metric_scope(reg);
  const std::string chrome = testing::TempDir() + "span_export.json";
  const std::string jsonl = testing::TempDir() + "span_export.jsonl";

  obs::SpanCollector whole;
  whole.emit(sim_record(0, "a", 0.0, 1.0));
  testing::internal::CaptureStdout();
  EXPECT_TRUE(obs::export_spans(whole, chrome, jsonl));
  EXPECT_NE(testing::internal::GetCapturedStdout().find("(1 spans)"),
            std::string::npos);

  obs::SpanCollector capped(/*max_records=*/2);
  for (int i = 0; i < 5; ++i) {
    capped.emit(sim_record(0, "r", static_cast<double>(i), 1.0));
  }
  ASSERT_EQ(capped.dropped(), 3u);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_FALSE(obs::export_spans(capped, chrome, jsonl));
  testing::internal::GetCapturedStdout();
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "3 record(s) dropped at the 2-record cap"),
            std::string::npos);
  std::ifstream in(jsonl);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(split_lines(text.str()).size(), 2u);
}

/// Parse one JSONL line strictly; fails the test on malformed JSON.
JsonValue parse_line(const std::string& line) {
  auto parsed = json_parse(line);
  EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.error.to_string();
  return parsed.ok() ? std::move(*parsed.value) : JsonValue();
}

TEST(SpanInstant, ParentsToInnermostOpenSpan) {
  obs::SpanCollector collector;
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    obs::Instant("root.instant", 0.5).arg("n", 1);
    obs::Span outer("outer");
    outer.sim_interval(1.0, 2.0);
    {
      obs::Span inner("inner");
      obs::Instant("inner.instant").ids({.subframe = 2}).arg("ok", true);
    }
    obs::Instant("outer.instant", 1.5);
    // An instant never opens: a span after it still parents to `outer`.
    obs::Span sibling("sibling");
  }
  const auto& records = collector.records();
  ASSERT_EQ(records.size(), 6u);
  std::map<std::string, const obs::SpanRecord*> by_name;
  for (const auto& r : records) by_name[r.name] = &r;
  const std::uint64_t outer = by_name["outer"]->id;
  EXPECT_EQ(by_name["root.instant"]->parent, 0u);
  EXPECT_EQ(by_name["inner.instant"]->parent, by_name["inner"]->id);
  EXPECT_EQ(by_name["outer.instant"]->parent, outer);
  EXPECT_EQ(by_name["sibling"]->parent, outer);
  // Sim instants sit at their time with zero length; wall instants are
  // stamped leaves of zero length.
  EXPECT_TRUE(by_name["outer.instant"]->on_sim_timeline());
  EXPECT_EQ(by_name["outer.instant"]->sim_start, 1.5);
  EXPECT_EQ(by_name["outer.instant"]->sim_duration, 0.0);
  EXPECT_FALSE(by_name["inner.instant"]->on_sim_timeline());
  EXPECT_GT(by_name["inner.instant"]->wall_start_ns, 0u);
  EXPECT_EQ(by_name["inner.instant"]->wall_ns, 0u);
  EXPECT_EQ(by_name["inner.instant"]->ids.subframe, 2);
  EXPECT_EQ(by_name["inner.instant"]->args, "\"ok\":true");
}

TEST(SpanInstant, SharesRecordCapAndDropCounter) {
  obs::Registry reg;
  const obs::Registry::ScopedCurrent metric_scope(reg);
  obs::SpanCollector collector(/*max_records=*/2);
  const obs::SpanCollector::ScopedCurrent scope(collector);
  for (int i = 0; i < 5; ++i) obs::Instant("tick", i).arg("i", i);
  ASSERT_EQ(collector.records().size(), 2u);
  EXPECT_EQ(collector.records()[1].args, "\"i\":1");
  EXPECT_EQ(collector.dropped(), 3u);
  EXPECT_EQ(reg.counter_value("obs.spans_dropped"), 3u);
}

TEST(SpanInstant, JsonlArgsAreStrictJson) {
  obs::SpanCollector collector;
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    obs::Instant("mixed", 0.25)
        .arg("count", std::uint64_t{3})
        .arg("neg", -2)
        .arg("evm", 0.125)
        .arg("nan", std::numeric_limits<double>::quiet_NaN())
        .arg("ok", false)
        .arg("s", "quote\"and\\slash\nline");
  }
  std::ostringstream out;
  collector.write_jsonl(out);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue line = parse_line(lines[0]);
  const JsonValue* args = line.find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_TRUE(args->is_object());
  EXPECT_EQ(args->find("count")->as_number(), 3.0);
  EXPECT_EQ(args->find("neg")->as_number(), -2.0);
  EXPECT_EQ(args->find("evm")->as_number(), 0.125);
  EXPECT_TRUE(args->find("nan")->is_null());
  EXPECT_FALSE(args->find("ok")->as_bool());
  EXPECT_EQ(args->find("s")->as_string(), "quote\"and\\slash\nline");
  EXPECT_EQ(line.find("sim_duration")->as_number(), 0.0);
}

TEST(SpanInstant, ArgsSurviveJsonlToChrome) {
  obs::SpanCollector collector;
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    obs::Span txop("mac.txop");
    txop.sim_interval(1.0, 0.5).arg("winners", 2);
    obs::Instant("mac.backoff_draw", 1.0).ids({.sta = 3}).arg("cw", 31);
    obs::Span decode("carpool.rx_frame");
    obs::Instant("phy.side_crc").arg("sym", 7).arg("kind", "sig");
  }
  const std::string jsonl = testing::TempDir() + "span_instants.jsonl";
  const std::string chrome = testing::TempDir() + "span_instants.json";
  {
    std::ofstream file(jsonl, std::ios::trunc);
    collector.write_jsonl(file);
  }
  const std::string cmd = std::string(CARPOOL_TRACE_CONVERT_BIN) + " \"" +
                          jsonl + "\" \"" + chrome + "\" > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(chrome);
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = parse_line(text.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, const JsonValue*> args_of;
  for (const JsonValue& ev : events->as_array()) {
    const JsonValue* name = ev.find("name");
    const JsonValue* args = ev.find("args");
    if (name != nullptr && args != nullptr && ev.find("dur") != nullptr) {
      args_of[name->as_string()] = args;
    }
  }
  ASSERT_EQ(args_of.size(), 4u);
  EXPECT_EQ(args_of["mac.txop"]->find("winners")->as_number(), 2.0);
  EXPECT_EQ(args_of["mac.backoff_draw"]->find("cw")->as_number(), 31.0);
  EXPECT_EQ(args_of["mac.backoff_draw"]->find("sta")->as_number(), 3.0);
  EXPECT_EQ(args_of["phy.side_crc"]->find("sym")->as_number(), 7.0);
  EXPECT_EQ(args_of["phy.side_crc"]->find("kind")->as_string(), "sig");
}

/// A sharded job that emits sim and wall instants around its spans.
int instant_job(const par::ShardInfo& info) {
  const double t = static_cast<double>(info.index);
  obs::Instant("job.backoff_draw", t).arg("job", info.index);
  obs::Span txop("job.txop");
  txop.sim_interval(t, 1.0).arg("index", info.index);
  for (int k = 0; k < 3; ++k) {
    obs::Span child("job.decode");
    obs::Instant("job.side_crc").ids({.subframe = k}).arg("ok", k != 1);
  }
  return static_cast<int>(info.index);
}

TEST(SpanInstant, ShardedRunFingerprintIdenticalAt1And4Threads) {
  obs::SpanCollector serial;
  obs::SpanCollector parallel;
  run_span_sweep(1, serial, instant_job);
  run_span_sweep(4, parallel, instant_job);
  ASSERT_EQ(serial.records().size(), 16u * 8u);
  ASSERT_EQ(serial.records().size(), parallel.records().size());
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  for (std::size_t i = 0; i < serial.records().size(); ++i) {
    EXPECT_TRUE(same_modulo_wall(serial.records()[i], parallel.records()[i]))
        << "record " << i << ": " << serial.records()[i].name;
  }
  // Args are part of the fingerprint.
  obs::SpanCollector altered;
  for (obs::SpanRecord r : serial.records()) {
    if (r.name == "job.txop" && r.args == "\"index\":0") r.args = "\"index\":9";
    altered.emit(std::move(r));
  }
  EXPECT_NE(altered.fingerprint(), serial.fingerprint());
}

/// The acceptance run: a 20-STA Carpool simulation with spans collected.
mac::SimResult run_carpool_sim(obs::SpanCollector& collector) {
  const obs::SpanCollector::ScopedCurrent scope(collector);
  mac::SimConfig cfg;
  cfg.scheme = mac::Scheme::kCarpool;
  cfg.num_stas = 20;
  cfg.duration = 5.0;
  cfg.seed = 7;
  mac::Simulator sim(cfg);
  for (mac::NodeId sta = 1; sta <= 20; ++sta) {
    for (auto& flow :
         traffic::make_voip_call(sta, traffic::VoipParams::near_peak())) {
      sim.add_flow(std::move(flow));
    }
  }
  return sim.run();
}

std::size_t count_named(const obs::SpanCollector& c, std::string_view name) {
  std::size_t n = 0;
  for (const auto& r : c.records()) n += r.name == name ? 1 : 0;
  return n;
}

TEST(SpanInstant, CarpoolRunAndDecodeEmitInstants) {
  obs::SpanCollector collector;
  const mac::SimResult result = run_carpool_sim(collector);
  EXPECT_GT(result.dl_frames_delivered, 0u);

  // PHY leg: decode one Carpool frame into the same collector.
  Rng rng(3);
  Bytes psdu(400);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const std::vector<SubframeSpec> subframes{
      SubframeSpec{MacAddress::for_station(1), append_fcs(psdu), 4}};
  const CarpoolTransmitter tx;
  FadingConfig ch;
  ch.snr_db = 30.0;
  ch.seed = 11;
  FadingChannel channel(ch);
  CarpoolRxConfig rxcfg;
  rxcfg.self = MacAddress::for_station(1);
  const CarpoolReceiver rx(rxcfg);
  {
    const obs::SpanCollector::ScopedCurrent scope(collector);
    const CarpoolRxResult phy =
        rx.receive(channel.transmit(tx.build(subframes)));
    ASSERT_FALSE(phy.subframes.empty());
  }

  EXPECT_GT(count_named(collector, "mac.backoff_draw"), 0u);
  EXPECT_GT(count_named(collector, "phy.side_crc"), 0u);
  EXPECT_GT(count_named(collector, "phy.symbol"), 0u);
  std::map<std::uint64_t, std::string> name_of;
  for (const auto& r : collector.records()) name_of[r.id] = r.name;
  for (const auto& r : collector.records()) {
    if (r.name == "mac.backoff_draw") {
      EXPECT_TRUE(r.on_sim_timeline());
      EXPECT_EQ(r.sim_duration, 0.0);
      EXPECT_NE(r.args.find("\"cw\":"), std::string::npos);
    } else if (r.name == "phy.side_crc" || r.name == "phy.symbol") {
      EXPECT_FALSE(r.on_sim_timeline());
      EXPECT_EQ(r.wall_ns, 0u);
      EXPECT_EQ(name_of[r.parent], "carpool.rx_subframe");
    }
  }
  std::ostringstream out;
  collector.write_jsonl(out);
  for (const auto& line : split_lines(out.str())) parse_line(line);
}

TEST(SpanInstant, CollisionTxopsMatchSimResult) {
  obs::SpanCollector collector;
  const mac::SimResult result = run_carpool_sim(collector);
  ASSERT_GT(result.collisions, 0u);
  std::size_t collisions = 0;
  for (const auto& r : collector.records()) {
    if (r.name == "mac.txop" &&
        (r.outcome == "collision" || r.outcome == "hidden_terminal")) {
      ++collisions;
    }
  }
  EXPECT_EQ(collisions, result.collisions);
}

}  // namespace
}  // namespace carpool
