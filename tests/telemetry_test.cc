// Telemetry-plane coverage (DESIGN.md Sec. 13): the MetricRegistry
// contract (duplicate rejection, sharded merge under 8 writer threads),
// TraceRecorder ring wraparound with exact drop counts, machine-validated
// Chrome-trace JSON and Prometheus text exposition, and the determinism
// contract — ServeAll with telemetry disabled is bit-identical across
// serve_threads 1/4/8, and an *enabled* plane never perturbs results.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/fleet.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace kairos::telemetry {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser — just enough to machine-validate the Chrome
// trace exporter's output instead of eyeballing substrings.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  double num() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole input; sets ok=false on any syntax error or
  /// trailing garbage.
  JsonValue Parse(bool* ok) {
    JsonValue value = ParseValue();
    SkipSpace();
    *ok = !failed_ && pos_ == text_.size();
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  JsonValue Fail() {
    failed_ = true;
    return JsonValue{};
  }

  JsonValue ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail();
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  JsonValue ParseObject() {
    if (!Consume('{')) return Fail();
    JsonObject object;
    if (Consume('}')) return JsonValue{object};
    do {
      JsonValue key = ParseString();
      if (failed_ || !Consume(':')) return Fail();
      object[key.str()] = ParseValue();
      if (failed_) return Fail();
    } while (Consume(','));
    if (!Consume('}')) return Fail();
    return JsonValue{object};
  }

  JsonValue ParseArray() {
    if (!Consume('[')) return Fail();
    JsonArray array;
    if (Consume(']')) return JsonValue{array};
    do {
      array.push_back(ParseValue());
      if (failed_) return Fail();
    } while (Consume(','));
    if (!Consume(']')) return Fail();
    return JsonValue{array};
  }

  JsonValue ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') return Fail();
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail();
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail();
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          out += static_cast<char>(std::stoi(hex, nullptr, 16));
          break;
        }
        default: return Fail();
      }
    }
    if (pos_ >= text_.size()) return Fail();
    ++pos_;  // closing quote
    return JsonValue{out};
  }

  JsonValue ParseBool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue{true};
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue{false};
    }
    return Fail();
  }

  JsonValue ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{nullptr};
    }
    return Fail();
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail();
    try {
      return JsonValue{std::stod(text_.substr(start, pos_ - start))};
    } catch (...) {
      return Fail();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  bool ok = false;
  JsonParser parser(text);
  JsonValue value = parser.Parse(&ok);
  EXPECT_TRUE(ok) << "invalid JSON: " << text.substr(0, 400);
  return value;
}

// ---------------------------------------------------------------------------
// MetricRegistry contract.

TEST(MetricRegistryTest, RejectsDuplicateAndMalformedNames) {
  MetricRegistry registry({"a", "b"});
  ASSERT_TRUE(registry.RegisterCounter("requests_total", "help").ok());
  // The same name is taken for every kind, not just the same kind.
  const auto dup_counter = registry.RegisterCounter("requests_total", "x");
  EXPECT_FALSE(dup_counter.ok());
  EXPECT_EQ(dup_counter.status().code(), StatusCode::kInvalidArgument);
  const auto dup_gauge = registry.RegisterGauge("requests_total", "x");
  EXPECT_FALSE(dup_gauge.ok());
  const auto dup_hist =
      registry.RegisterHistogram("requests_total", "x", {1.0});
  EXPECT_FALSE(dup_hist.ok());

  EXPECT_FALSE(registry.RegisterCounter("", "x").ok());
  EXPECT_FALSE(registry.RegisterCounter("9starts_with_digit", "x").ok());
  EXPECT_FALSE(registry.RegisterCounter("has space", "x").ok());
  EXPECT_FALSE(registry.RegisterCounter("has-dash", "x").ok());
  EXPECT_TRUE(registry.RegisterCounter("ok_name:with_colon", "x").ok());
}

TEST(MetricRegistryTest, RejectsBadHistogramBounds) {
  MetricRegistry registry({"a"});
  EXPECT_FALSE(registry.RegisterHistogram("h1", "x", {}).ok());
  EXPECT_FALSE(registry.RegisterHistogram("h2", "x", {1.0, 1.0}).ok());
  EXPECT_FALSE(registry.RegisterHistogram("h3", "x", {2.0, 1.0}).ok());
  EXPECT_TRUE(registry.RegisterHistogram("h4", "x", {1.0, 2.0, 3.0}).ok());
}

TEST(MetricRegistryTest, SnapshotMergesShardsAndKeepsPerShardValues) {
  MetricRegistry registry({"alpha", "beta"});
  const MetricId counter = *registry.RegisterCounter("c_total", "counts");
  const MetricId gauge = *registry.RegisterGauge("g", "level");
  const MetricId hist = *registry.RegisterHistogram("h", "obs", {1.0, 10.0});

  registry.Add(counter, 0, 3.0);
  registry.Add(counter, 1, 4.0);
  registry.Set(gauge, 0, 7.0);
  registry.Set(gauge, 1, 9.0);
  registry.Observe(hist, 0, 0.5);   // bucket le=1
  registry.Observe(hist, 0, 5.0);   // bucket le=10
  registry.Observe(hist, 1, 50.0);  // +Inf bucket

  const MetricSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  ASSERT_EQ(snapshot.shard_names.size(), 2u);

  const MetricValue& c = snapshot.metrics[0];
  EXPECT_EQ(c.name, "c_total");
  EXPECT_EQ(c.kind, MetricKind::kCounter);
  EXPECT_EQ(c.value, 7.0);
  ASSERT_EQ(c.per_shard.size(), 2u);
  EXPECT_EQ(c.per_shard[0], 3.0);
  EXPECT_EQ(c.per_shard[1], 4.0);

  const MetricValue& g = snapshot.metrics[1];
  EXPECT_EQ(g.kind, MetricKind::kGauge);
  EXPECT_EQ(g.per_shard[0], 7.0);
  EXPECT_EQ(g.per_shard[1], 9.0);

  const MetricValue& h = snapshot.metrics[2];
  EXPECT_EQ(h.kind, MetricKind::kHistogram);
  ASSERT_EQ(h.bounds.size(), 2u);
  ASSERT_EQ(h.bucket_counts.size(), 3u);  // two bounds + the +Inf bucket
  EXPECT_EQ(h.bucket_counts[0], 1u);
  EXPECT_EQ(h.bucket_counts[1], 1u);
  EXPECT_EQ(h.bucket_counts[2], 1u);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 55.5);

  registry.Reset();
  const MetricSnapshot zeroed = registry.Snapshot();
  EXPECT_EQ(zeroed.metrics[0].value, 0.0);
  EXPECT_EQ(zeroed.metrics[2].count, 0u);
}

TEST(MetricRegistryTest, MergeIsExactUnderEightWriterThreads) {
  // The ownership contract: one writer per shard, snapshot at quiescence.
  // 8 threads hammer their own shard's cells; the joined snapshot must be
  // an exact sum — any lost update means the sharding leaked.
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kIncrements = 100000;
  std::vector<std::string> names;
  for (std::size_t s = 0; s < kShards; ++s) {
    names.push_back("shard" + std::to_string(s));
  }
  MetricRegistry registry(names);
  const MetricId counter = *registry.RegisterCounter("ops_total", "ops");
  const MetricId gauge = *registry.RegisterGauge("depth", "depth");
  const MetricId hist = *registry.RegisterHistogram("lat", "lat", {0.5});

  std::vector<std::thread> writers;
  for (std::size_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&registry, counter, gauge, hist, s] {
      for (std::size_t i = 0; i < kIncrements; ++i) {
        registry.Add(counter, s);
        registry.Set(gauge, s, static_cast<double>(i));
        registry.Observe(hist, s, i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& w : writers) w.join();

  const MetricSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.metrics[0].value,
            static_cast<double>(kShards * kIncrements));
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(snapshot.metrics[0].per_shard[s],
              static_cast<double>(kIncrements));
    EXPECT_EQ(snapshot.metrics[1].per_shard[s],
              static_cast<double>(kIncrements - 1));
  }
  EXPECT_EQ(snapshot.metrics[2].count, kShards * kIncrements);
  EXPECT_EQ(snapshot.metrics[2].bucket_counts[0],
            kShards * kIncrements / 2);
  EXPECT_EQ(snapshot.metrics[2].bucket_counts[1],
            kShards * kIncrements / 2);
}

// ---------------------------------------------------------------------------
// TraceRecorder ring semantics.

TEST(TraceRecorderTest, WraparoundKeepsNewestAndCountsDropsExactly) {
  TraceRecorder recorder({"only"}, /*events_per_shard=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.EmitSpan(0, "span" + std::to_string(i),
                      static_cast<std::uint64_t>(i), 1);
  }
  // 10 emitted into capacity 4: exactly 6 dropped, the newest 4 kept,
  // oldest first.
  EXPECT_EQ(recorder.DroppedCount(0), 6u);
  EXPECT_EQ(recorder.TotalDropped(), 6u);
  const std::vector<TraceEvent> events = recorder.ShardEvents(0);
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].name, "span" + std::to_string(6 + i));
    EXPECT_EQ(events[i].ts_us, static_cast<std::uint64_t>(6 + i));
  }

  recorder.Reset();
  EXPECT_EQ(recorder.DroppedCount(0), 0u);
  EXPECT_TRUE(recorder.ShardEvents(0).empty());
}

TEST(TraceRecorderTest, ShardsAreIndependent) {
  TraceRecorder recorder({"a", "b"}, 2);
  recorder.EmitSpan(0, "x", 0, 1);
  recorder.EmitSpan(1, "y1", 0, 1);
  recorder.EmitSpan(1, "y2", 0, 1);
  recorder.EmitSpan(1, "y3", 0, 1);
  EXPECT_EQ(recorder.DroppedCount(0), 0u);
  EXPECT_EQ(recorder.DroppedCount(1), 1u);
  EXPECT_EQ(recorder.ShardEvents(0).size(), 1u);
  EXPECT_EQ(recorder.ShardEvents(1).size(), 2u);
  EXPECT_EQ(recorder.AllEvents().size(), 3u);
}

TEST(TraceRecorderTest, ScopedSpanEmitsOnDestructionAndNullIsNoop) {
  TraceRecorder recorder({"s"}, 8);
  {
    ScopedSpan span(&recorder, 0, "work");
    span.AddArg("key", "value");
  }
  const std::vector<TraceEvent> events = recorder.ShardEvents(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].phase, 'X');
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "key");
  EXPECT_EQ(events[0].args[0].second, "value");

  {
    ScopedSpan noop(nullptr, 0, "ignored");
    noop.AddArg("k", "v");
  }
  EXPECT_EQ(recorder.ShardEvents(0).size(), 1u);

  recorder.EmitInstant(0, "tick", {{"n", "1"}});
  EXPECT_EQ(recorder.ShardEvents(0).back().phase, 'i');
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON, machine-validated.

TEST(ChromeTraceExportTest, ProducesValidTraceEventJson) {
  TraceRecorder recorder({"modelA", "modelB"}, 16);
  recorder.EmitSpan(0, "engine.advance", 10, 25,
                    {{"fired", "3"}, {"to_s", "1.5"}});
  recorder.EmitSpan(1, "engine.advance", 12, 20);
  recorder.EmitInstant(1, "chaos.fault", {{"kind", "PREEMPTION"}});

  const std::string json = ExportChromeTrace(recorder);
  const JsonValue root = ParseJsonOrDie(json);
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.object().count("traceEvents"));
  EXPECT_EQ(root.object().at("displayTimeUnit").str(), "ms");

  const JsonArray& events = root.object().at("traceEvents").array();
  // 2 thread_name metadata events + 3 recorded ones.
  ASSERT_EQ(events.size(), 5u);

  std::size_t metadata = 0, spans = 0, instants = 0;
  for (const JsonValue& event : events) {
    ASSERT_TRUE(event.is_object());
    const JsonObject& o = event.object();
    // Every event carries the required keys with the right types.
    ASSERT_TRUE(o.count("name") && o.at("name").is_string());
    ASSERT_TRUE(o.count("ph") && o.at("ph").is_string());
    ASSERT_TRUE(o.count("pid") && o.at("pid").is_number());
    ASSERT_TRUE(o.count("tid") && o.at("tid").is_number());
    const std::string& ph = o.at("ph").str();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(o.at("name").str(), "thread_name");
      const std::string& track = o.at("args").object().at("name").str();
      EXPECT_TRUE(track == "modelA" || track == "modelB");
    } else if (ph == "X") {
      ++spans;
      ASSERT_TRUE(o.count("ts") && o.at("ts").is_number());
      ASSERT_TRUE(o.count("dur") && o.at("dur").is_number());
      EXPECT_EQ(o.at("name").str(), "engine.advance");
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(o.at("s").str(), "t");
      EXPECT_EQ(o.at("args").object().at("kind").str(), "PREEMPTION");
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(metadata, 2u);
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
}

TEST(ChromeTraceExportTest, EscapesHostileStringsRoundTrip) {
  TraceRecorder recorder({"we\"ird\\name\n"}, 4);
  recorder.EmitSpan(0, "na\"me\twith\\stuff", 0, 1,
                    {{"k\"ey", "v\nal\\ue"}});
  const JsonValue root = ParseJsonOrDie(ExportChromeTrace(recorder));
  const JsonArray& events = root.object().at("traceEvents").array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].object().at("args").object().at("name").str(),
            "we\"ird\\name\n");
  EXPECT_EQ(events[1].object().at("name").str(), "na\"me\twith\\stuff");
  EXPECT_EQ(events[1].object().at("args").object().at("k\"ey").str(),
            "v\nal\\ue");
}

// ---------------------------------------------------------------------------
// Prometheus text exposition, parsed line by line.

TEST(PrometheusExportTest, ExposesWellFormedFamilies) {
  MetricRegistry registry({"m0", "m1"});
  const MetricId counter = *registry.RegisterCounter("kq_total", "queries");
  const MetricId gauge = *registry.RegisterGauge("kq_depth", "queue depth");
  const MetricId hist =
      *registry.RegisterHistogram("kq_lat", "latency", {1.0, 5.0});
  registry.Add(counter, 0, 10.0);
  registry.Add(counter, 1, 32.0);
  registry.Set(gauge, 0, 4.0);
  registry.Set(gauge, 1, 2.5);
  registry.Observe(hist, 0, 0.5);
  registry.Observe(hist, 1, 3.0);
  registry.Observe(hist, 1, 100.0);

  const std::string text = ExportPrometheus(registry.Snapshot());
  std::istringstream lines(text);
  std::string line;
  // Grammar of every expected line shape.
  const std::regex help_re(R"(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+)");
  const std::regex type_re(
      R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))");
  const std::regex sample_re(
      R"([a-zA-Z_:][a-zA-Z0-9_:]*(_bucket|_sum|_count)?(\{[^}]*\})? -?[0-9+.eEinf]+)");
  std::vector<std::string> all_lines;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    all_lines.push_back(line);
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, help_re) ||
                  std::regex_match(line, type_re))
          << "bad comment line: " << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re))
          << "bad sample line: " << line;
    }
  }

  // The exact family layout: HELP, TYPE, then the samples.
  const std::vector<std::string> expected = {
      "# HELP kq_total queries",
      "# TYPE kq_total counter",
      "kq_total{shard=\"m0\"} 10",
      "kq_total{shard=\"m1\"} 32",
      "# HELP kq_depth queue depth",
      "# TYPE kq_depth gauge",
      "kq_depth{shard=\"m0\"} 4",
      "kq_depth{shard=\"m1\"} 2.5",
      "# HELP kq_lat latency",
      "# TYPE kq_lat histogram",
      "kq_lat_bucket{le=\"1\"} 1",
      "kq_lat_bucket{le=\"5\"} 2",
      "kq_lat_bucket{le=\"+Inf\"} 3",
      "kq_lat_sum 103.5",
      "kq_lat_count 3",
  };
  EXPECT_EQ(all_lines, expected);
}

TEST(PrometheusExportTest, DuplicateShardNamesGetDistinctLabels) {
  MetricRegistry registry({"RM2", "RM2", "fleet"});
  const MetricId counter = *registry.RegisterCounter("c_total", "c");
  registry.Add(counter, 0, 1.0);
  registry.Add(counter, 1, 2.0);
  registry.Add(counter, 2, 3.0);
  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("c_total{shard=\"RM2#0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("c_total{shard=\"RM2#1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("c_total{shard=\"fleet\"} 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The facade and the sink.

TEST(TelemetryFacadeTest, CreateAppendsFleetShardAndPreRegisters) {
  auto telemetry = Telemetry::Create({"RM2", "WND"});
  ASSERT_TRUE(telemetry.ok()) << telemetry.status().ToString();
  EXPECT_EQ((*telemetry)->num_model_shards(), 2u);
  EXPECT_EQ((*telemetry)->fleet_shard(), 2u);
  ASSERT_EQ((*telemetry)->tracer().shard_names().size(), 3u);
  EXPECT_EQ((*telemetry)->tracer().shard_names()[2], "fleet");
  EXPECT_GT((*telemetry)->metrics().size(), 0u);

  const EngineInstruments instruments = (*telemetry)->InstrumentsFor(1);
  EXPECT_EQ(instruments.shard, 1u);
  EXPECT_EQ(instruments.metrics, &(*telemetry)->metrics());

  EXPECT_FALSE(Telemetry::Create({}).ok());
}

TEST(TelemetryFacadeTest, SinkBoundsSamplesAndCountsDrops) {
  auto telemetry = Telemetry::Create({"only"});
  ASSERT_TRUE(telemetry.ok());
  TelemetrySink sink(telemetry->get(), /*max_samples=*/2);
  sink.AtBarrier(1.0, 1u);
  sink.AtBarrier(2.0, 3u);
  sink.AtBarrier(3.0, 1u);
  EXPECT_EQ(sink.dropped_samples(), 1u);
  const std::vector<BarrierSample> samples = sink.TakeSamples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].sim_time, 1.0);
  EXPECT_EQ(samples[1].barrier_flags, 3u);
  EXPECT_EQ(samples[0].metrics.metrics.size(),
            (*telemetry)->metrics().size());
}

// ---------------------------------------------------------------------------
// ServeAll integration: the pure-observer determinism contract.

core::Fleet MakeFleet() {
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 8.0;
  options.allocator = "MARGINAL";
  auto fleet = core::Fleet::Create(
      catalog,
      {core::FleetModelOptions{.model = "RM2"},
       core::FleetModelOptions{.model = "WND"},
       core::FleetModelOptions{.model = "NCF", .arrival_scale = 2.0}},
      options);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  return *std::move(fleet);
}

core::FleetServeOptions BusyServe() {
  core::FleetServeOptions options;
  options.duration_s = 20.0;
  options.base_rate_qps = 25.0;
  options.window_s = 2.5;
  options.controller = "PERIODIC";
  options.controller_knobs = {{"period_s", 7.5}};
  options.launch_lag_s = 1.0;
  options.shifts = {core::FleetLoadShift{8.0, "RM2", 4.0}};
  return options;
}

/// Field-by-field equality of everything a run *computes* (telemetry
/// samples excluded — they are observational output, not results).
void ExpectResultsBitIdentical(const core::FleetServeResult& a,
                               const core::FleetServeResult& b) {
  ASSERT_EQ(a.models.size(), b.models.size());
  EXPECT_EQ(a.total_qps, b.total_qps);
  EXPECT_EQ(a.total_weighted_qps, b.total_weighted_qps);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.monitor_resets, b.monitor_resets);
  EXPECT_EQ(a.shed_actions, b.shed_actions);
  EXPECT_EQ(a.instances_lost, b.instances_lost);
  EXPECT_EQ(a.ondemand_cost_usd, b.ondemand_cost_usd);
  EXPECT_EQ(a.effective_cost_usd, b.effective_cost_usd);
  ASSERT_EQ(a.control_log.size(), b.control_log.size());
  for (std::size_t e = 0; e < a.control_log.size(); ++e) {
    EXPECT_EQ(a.control_log[e].time, b.control_log[e].time);
    EXPECT_EQ(a.control_log[e].kind, b.control_log[e].kind);
    EXPECT_EQ(a.control_log[e].model, b.control_log[e].model);
    EXPECT_EQ(a.control_log[e].reason, b.control_log[e].reason);
  }
  ASSERT_EQ(a.final_shares_per_hour.size(), b.final_shares_per_hour.size());
  for (std::size_t j = 0; j < a.final_shares_per_hour.size(); ++j) {
    EXPECT_EQ(a.final_shares_per_hour[j], b.final_shares_per_hour[j]);
  }
  for (std::size_t j = 0; j < a.models.size(); ++j) {
    const core::FleetModelServe& ma = a.models[j];
    const core::FleetModelServe& mb = b.models[j];
    EXPECT_EQ(ma.model, mb.model);
    EXPECT_EQ(ma.qps, mb.qps);
    EXPECT_EQ(ma.totals.offered, mb.totals.offered);
    EXPECT_EQ(ma.totals.served, mb.totals.served);
    EXPECT_EQ(ma.totals.violations, mb.totals.violations);
    EXPECT_EQ(ma.totals.rejected, mb.totals.rejected);
    EXPECT_EQ(ma.totals.shed, mb.totals.shed);
    EXPECT_EQ(ma.totals.p99_ms, mb.totals.p99_ms);
    EXPECT_EQ(ma.totals.mean_ms, mb.totals.mean_ms);
    EXPECT_EQ(ma.totals.makespan, mb.totals.makespan);
    ASSERT_EQ(ma.windows.size(), mb.windows.size());
    for (std::size_t w = 0; w < ma.windows.size(); ++w) {
      EXPECT_EQ(ma.windows[w].start, mb.windows[w].start);
      EXPECT_EQ(ma.windows[w].end, mb.windows[w].end);
      EXPECT_EQ(ma.windows[w].offered, mb.windows[w].offered);
      EXPECT_EQ(ma.windows[w].served, mb.windows[w].served);
      EXPECT_EQ(ma.windows[w].violations, mb.windows[w].violations);
      EXPECT_EQ(ma.windows[w].p99_ms, mb.windows[w].p99_ms);
      EXPECT_EQ(ma.windows[w].mean_ms, mb.windows[w].mean_ms);
      EXPECT_EQ(ma.windows[w].qps, mb.windows[w].qps);
      EXPECT_EQ(ma.windows[w].mean_batch, mb.windows[w].mean_batch);
      EXPECT_EQ(ma.windows[w].queue_depth_max, mb.windows[w].queue_depth_max);
      EXPECT_EQ(ma.windows[w].queue_depth_mean,
                mb.windows[w].queue_depth_mean);
    }
  }
}

TEST(TelemetryServeTest, DisabledRunsAreBitIdenticalAcrossThreadCounts) {
  const core::Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  core::FleetServeOptions serve = BusyServe();
  serve.serve_threads = 1;
  const auto serial = fleet.ServeAll(*plan, serve);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_TRUE(serial->telemetry_samples.empty());
  for (const std::size_t threads : {4u, 8u}) {
    serve.serve_threads = threads;
    const auto threaded = fleet.ServeAll(*plan, serve);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    ExpectResultsBitIdentical(*serial, *threaded);
  }
}

TEST(TelemetryServeTest, EnabledTelemetryNeverPerturbsResults) {
  const core::Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  core::FleetServeOptions serve = BusyServe();
  serve.serve_threads = 1;
  const auto baseline = fleet.ServeAll(*plan, serve);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const std::size_t threads : {1u, 4u, 8u}) {
    auto telemetry = Telemetry::Create({"RM2", "WND", "NCF"});
    ASSERT_TRUE(telemetry.ok()) << telemetry.status().ToString();
    core::FleetServeOptions instrumented = BusyServe();
    instrumented.serve_threads = threads;
    instrumented.telemetry = telemetry->get();
    const auto result = fleet.ServeAll(*plan, instrumented);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Telemetry is a pure observer: the *results* match the
    // uninstrumented run bit for bit at every thread count.
    ExpectResultsBitIdentical(*baseline, *result);

    // And the plane actually observed the run: one sample per barrier,
    // counters consistent with the totals.
    ASSERT_FALSE(result->telemetry_samples.empty());
    EXPECT_EQ(result->telemetry_samples_dropped, 0u);
    const MetricSnapshot& last = result->telemetry_samples.back().metrics;
    double offered = 0.0, served = 0.0;
    std::size_t expect_offered = 0, expect_served = 0;
    for (const MetricValue& metric : last.metrics) {
      if (metric.name == "kairos_queries_offered_total") {
        offered = metric.value;
      }
      if (metric.name == "kairos_queries_served_total") served = metric.value;
    }
    for (const core::FleetModelServe& model : result->models) {
      expect_offered += model.totals.offered;
      expect_served += model.totals.served;
    }
    // The last barrier's snapshot is the horizon: every arrival and
    // completion inside the run is in it.
    EXPECT_EQ(offered, static_cast<double>(expect_offered));
    EXPECT_EQ(served, static_cast<double>(expect_served));

    // The exporters stay machine-valid on real run output.
    const JsonValue root =
        ParseJsonOrDie(ExportChromeTrace((*telemetry)->tracer()));
    EXPECT_TRUE(root.object().count("traceEvents"));
    EXPECT_GE(root.object().at("traceEvents").array().size(), 4u);
    const std::string prom = ExportPrometheus(last);
    EXPECT_NE(prom.find("# TYPE kairos_queries_offered_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("kairos_queries_offered_total{shard=\"RM2\"} "),
              std::string::npos);
  }
}

TEST(TelemetryServeTest, RejectsMismatchedShardLayout) {
  const core::Fleet fleet = MakeFleet();
  const auto plan = fleet.PlanAll();
  ASSERT_TRUE(plan.ok());

  auto wrong_count = Telemetry::Create({"RM2", "WND"});
  ASSERT_TRUE(wrong_count.ok());
  core::FleetServeOptions serve = BusyServe();
  serve.telemetry = wrong_count->get();
  const auto too_few = fleet.ServeAll(*plan, serve);
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);

  auto wrong_names = Telemetry::Create({"RM2", "NCF", "WND"});
  ASSERT_TRUE(wrong_names.ok());
  serve.telemetry = wrong_names->get();
  const auto misnamed = fleet.ServeAll(*plan, serve);
  ASSERT_FALSE(misnamed.ok());
  EXPECT_EQ(misnamed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TelemetryServeTest, WindowQueueDepthFieldsTrackOverload) {
  // A deliberately under-provisioned single-model fleet: the central
  // queue must visibly back up, and the new WindowedMetrics fields must
  // agree with each other (mean <= max, max > 0 under overload).
  static const cloud::Catalog catalog = cloud::Catalog::PaperPool();
  core::FleetOptions options;
  options.budget_per_hour = 1.2;
  auto fleet = core::Fleet::Create(
      catalog, {core::FleetModelOptions{.model = "RM2"}}, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  fleet->ObserveMixAll(workload::LogNormalBatches::Production());
  const auto plan = fleet->PlanAll();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  core::FleetServeOptions serve;
  serve.duration_s = 12.0;
  serve.base_rate_qps = 120.0;  // far past a $1.2/hr configuration
  serve.window_s = 3.0;
  const auto result = fleet->ServeAll(*plan, serve);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::size_t peak = 0;
  for (const serving::WindowedMetrics& window : result->models[0].windows) {
    EXPECT_LE(window.queue_depth_mean,
              static_cast<double>(window.queue_depth_max));
    if (window.offered > 0) {
      EXPECT_GE(window.queue_depth_mean, 0.0);
    }
    peak = std::max(peak, window.queue_depth_max);
  }
  EXPECT_GT(peak, 0u);
}

}  // namespace
}  // namespace kairos::telemetry
