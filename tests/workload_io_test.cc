#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "workload/arrival.h"
#include "workload/mixtures.h"
#include "workload/trace_io.h"

#ifdef KAIROS_HAS_ZLIB
#include <zlib.h>
#endif

namespace kairos::workload {
namespace {

std::string WriteTempFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  return path;
}

TEST(TraceIoTest, RoundTripsThroughStream) {
  Rng rng(1);
  const auto mix = LogNormalBatches::Production();
  const Trace original =
      Trace::Generate(PoissonArrivals(50.0), mix, 200, rng);
  std::stringstream buffer;
  ASSERT_TRUE(WriteTraceCsv(original, buffer).ok());
  const auto loaded = ReadTraceCsv(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ(loaded->queries()[i].id, original.queries()[i].id);
    EXPECT_EQ(loaded->queries()[i].batch_size,
              original.queries()[i].batch_size);
    EXPECT_NEAR(loaded->queries()[i].arrival, original.queries()[i].arrival,
                1e-9);
  }
}

TEST(TraceIoTest, RoundTripsThroughFile) {
  Rng rng(2);
  const auto mix = GaussianBatches::Default();
  const Trace original =
      Trace::Generate(PoissonArrivals(20.0), mix, 50, rng);
  const std::string path = ::testing::TempDir() + "/kairos_trace_test.csv";
  ASSERT_TRUE(WriteTraceCsv(original, path).ok());
  const auto loaded = ReadTraceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileIsNotFound) {
  const auto loaded =
      ReadTraceCsv(std::string("/nonexistent/path/trace.csv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("cannot open"), std::string::npos);
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  ASSERT_TRUE(WriteTraceCsv(Trace(), buffer).ok());
  const auto loaded = ReadTraceCsv(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(TraceIoTest, WriteToUnopenablePathIsNotFound) {
  EXPECT_EQ(WriteTraceCsv(Trace(), "/nonexistent/dir/trace.csv").code(),
            StatusCode::kNotFound);
}

// The malformed-input fuzz table (DESIGN.md Sec. 12): every corrupt shape
// must come back as a precise kInvalidArgument — with the offending line
// number — and never crash. Each case runs through both read paths (the
// stream materializer and, via a temp file, the streaming reader) and
// must produce the identical status from each, because both funnel every
// row through the one shared parser.
TEST(TraceIoTest, MalformedInputTable) {
  struct Case {
    const char* name;
    std::string body;
    const char* want;  // required substring of the error message
  };
  const std::vector<Case> cases = {
      {"empty file", "", "bad or missing header"},
      {"wrong header", "wrong,header,here\n1,0.5,10\n",
       "bad or missing header"},
      {"header case drift", "ID,ARRIVAL_S,BATCH\n", "bad or missing header"},
      {"non-numeric arrival", "id,arrival_s,batch\n1,abc,10\n",
       "malformed row at line 2"},
      {"non-numeric id", "id,arrival_s,batch\nx1,0.5,10\n",
       "malformed row at line 2"},
      {"negative id", "id,arrival_s,batch\n-1,0.5,10\n",
       "malformed row at line 2"},
      {"missing field", "id,arrival_s,batch\n1,0.5\n",
       "malformed row at line 2"},
      {"extra field", "id,arrival_s,batch\n1,0.5,10,9\n",
       "malformed row at line 2"},
      {"inner space", "id,arrival_s,batch\n1, 0.5,10\n",
       "malformed row at line 2"},
      {"truncated final line", "id,arrival_s,batch\n1,0.5,3\n2,0.6\n",
       "malformed row at line 3"},
      {"unterminated truncated tail", "id,arrival_s,batch\n1,0.5,3\n2,0.",
       "malformed row at line 3"},
      {"NaN arrival", "id,arrival_s,batch\n1,nan,3\n",
       "non-finite arrival_s at line 2"},
      {"inf arrival", "id,arrival_s,batch\n1,inf,3\n",
       "non-finite arrival_s at line 2"},
      {"negative arrival", "id,arrival_s,batch\n1,-0.5,3\n",
       "negative arrival_s at line 2"},
      {"batch zero", "id,arrival_s,batch\n1,0.5,0\n",
       "batch out of [1, 1000] at line 2"},
      {"batch too large", "id,arrival_s,batch\n1,0.5,5000\n",
       "batch out of [1, 1000] at line 2"},
      {"negative batch", "id,arrival_s,batch\n1,0.5,-3\n",
       "batch out of [1, 1000] at line 2"},
      {"unsorted arrivals", "id,arrival_s,batch\n1,2.0,10\n2,1.0,10\n",
       "arrivals not sorted at line 3"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::stringstream buffer(c.body);
    const auto from_stream = ReadTraceCsv(buffer);
    ASSERT_FALSE(from_stream.ok());
    EXPECT_EQ(from_stream.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(from_stream.status().message().find(c.want), std::string::npos)
        << "got: " << from_stream.status().message();

    const std::string path = WriteTempFile("kairos_fuzz_case.csv", c.body);
    const auto from_file = ReadTraceCsv(path);
    ASSERT_FALSE(from_file.ok());
    EXPECT_EQ(from_file.status().ToString(), from_stream.status().ToString())
        << "streaming and materialized paths disagree";
    std::remove(path.c_str());
  }
}

TEST(TraceIoTest, AcceptsCrlfAndMissingFinalNewline) {
  for (const std::string body :
       {std::string("id,arrival_s,batch\r\n1,0.5,3\r\n2,0.75,4\r\n"),
        std::string("id,arrival_s,batch\n1,0.5,3\n2,0.75,4")}) {
    std::stringstream buffer(body);
    const auto loaded = ReadTraceCsv(buffer);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ(loaded->queries()[1].id, 2u);
    EXPECT_EQ(loaded->queries()[1].batch_size, 4);
  }
}

// The >4G edge: ids beyond 32 bits (a multi-billion-row trace) and
// arrivals past 2^32 seconds must survive the round trip bit-exactly —
// offsets, ids and line numbers are 64-bit end to end.
TEST(TraceIoTest, LargeIdsAndArrivalsRoundTripExactly) {
  const Trace trace({Query{(1ull << 32) + 7ull, 3, 0.5},
                     Query{(1ull << 53) + 1ull, 5, 4294967296.25}});
  std::stringstream buffer;
  ASSERT_TRUE(WriteTraceCsv(trace, buffer).ok());
  const auto loaded = ReadTraceCsv(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->queries()[0].id, (1ull << 32) + 7ull);
  EXPECT_EQ(loaded->queries()[1].id, (1ull << 53) + 1ull);
  EXPECT_EQ(loaded->queries()[1].arrival, 4294967296.25);
}

TEST(TraceIoTest, StreamingReaderReadsRewindsAndCounts) {
  const std::string path = WriteTempFile(
      "kairos_stream_rw.csv", "id,arrival_s,batch\n1,0.5,3\n2,0.75,4\n");
  auto reader = StreamingTraceReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Query q;
  auto more = reader->Next(&q);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(q.id, 1u);
  ASSERT_TRUE(reader->Rewind().ok());
  EXPECT_EQ(reader->queries_read(), 0u);
  std::vector<Query> all;
  while (true) {
    more = reader->Next(&q);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    all.push_back(q);
  }
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(reader->queries_read(), 2u);
  EXPECT_EQ(all[1].batch_size, 4);
  // Clean EOF is stable, not an error.
  more = reader->Next(&q);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  std::remove(path.c_str());
}

TEST(TraceIoTest, StreamingErrorIsStickyUntilRewind) {
  const std::string path = WriteTempFile(
      "kairos_stream_sticky.csv", "id,arrival_s,batch\n1,0.5,3\n2,bad,4\n");
  auto reader = StreamingTraceReader::Open(path);
  ASSERT_TRUE(reader.ok());
  Query q;
  ASSERT_TRUE(reader->Next(&q).ok());
  const auto failed = reader->Next(&q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  // Sticky: the same status again, not EOF and not the next row.
  const auto again = reader->Next(&q);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().ToString(), failed.status().ToString());
  // Rewind clears the sticky state and replays from the first row.
  ASSERT_TRUE(reader->Rewind().ok());
  const auto first = reader->Next(&q);
  ASSERT_TRUE(first.ok() && *first);
  EXPECT_EQ(q.id, 1u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, GzipRoundTripMatchesPlainRead) {
#ifdef KAIROS_HAS_ZLIB
  ASSERT_TRUE(TraceGzipSupported());
  Rng rng(3);
  const Trace original = Trace::Generate(
      PoissonArrivals(40.0), LogNormalBatches::Production(), 300, rng);
  std::stringstream buffer;
  ASSERT_TRUE(WriteTraceCsv(original, buffer).ok());
  const std::string body = buffer.str();
  const std::string gz_path = ::testing::TempDir() + "/kairos_trace.csv.gz";
  gzFile gz = gzopen(gz_path.c_str(), "wb");
  ASSERT_NE(gz, nullptr);
  ASSERT_EQ(gzwrite(gz, body.data(), static_cast<unsigned>(body.size())),
            static_cast<int>(body.size()));
  ASSERT_EQ(gzclose(gz), Z_OK);
  const auto loaded = ReadTraceCsv(gz_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ(loaded->queries()[i].id, original.queries()[i].id);
    EXPECT_EQ(loaded->queries()[i].batch_size,
              original.queries()[i].batch_size);
  }
  std::remove(gz_path.c_str());
#else
  EXPECT_FALSE(TraceGzipSupported());
  const auto opened = StreamingTraceReader::Open("anything.gz");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition);
#endif
}

TEST(MixtureBatchesTest, WeightsRespected) {
  auto mix = MixtureBatches::BimodalDefault();
  Rng rng(3);
  int large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (mix.Sample(rng) > 400) ++large;
  }
  // The 20%-weight Gaussian(600, 80) component dominates above 400.
  EXPECT_NEAR(static_cast<double>(large) / n, 0.2, 0.02);
}

TEST(MixtureBatchesTest, CdfIsWeightedAverage) {
  auto mix = MixtureBatches::BimodalDefault();
  // Between the modes the CDF must sit at the small-component weight.
  EXPECT_NEAR(mix.Cdf(350), 0.8, 0.01);
  EXPECT_DOUBLE_EQ(mix.Cdf(0), 0.0);
  EXPECT_DOUBLE_EQ(mix.Cdf(1000), 1.0);
}

TEST(MixtureBatchesTest, InvalidComponentsThrow) {
  EXPECT_THROW(MixtureBatches({}), std::invalid_argument);
  std::vector<MixtureBatches::Component> bad;
  bad.push_back({nullptr, 1.0});
  EXPECT_THROW(MixtureBatches(std::move(bad)), std::invalid_argument);
  std::vector<MixtureBatches::Component> neg;
  neg.push_back(
      {std::make_shared<GaussianBatches>(100.0, 10.0), -1.0});
  EXPECT_THROW(MixtureBatches(std::move(neg)), std::invalid_argument);
}

TEST(ParetoBatchesTest, SamplesMatchCdfAndTailOrder) {
  const ParetoBatches heavy(0.8);
  const ParetoBatches light(2.5);
  Rng rng(4);
  int heavy_large = 0, light_large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (heavy.Sample(rng) > 200) ++heavy_large;
    if (light.Sample(rng) > 200) ++light_large;
  }
  EXPECT_GT(heavy_large, 4 * light_large);  // heavier tail
  EXPECT_NEAR(static_cast<double>(heavy_large) / n, 1.0 - heavy.Cdf(200),
              0.02);
  EXPECT_THROW(ParetoBatches(0.0), std::invalid_argument);
}

TEST(KendallTauTest, PerfectAndInvertedRankings) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> up = {10, 20, 30, 40, 50};
  const std::vector<double> down = {5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(KendallTau(xs, up), 1.0);
  EXPECT_DOUBLE_EQ(KendallTau(xs, down), -1.0);
  EXPECT_DOUBLE_EQ(KendallTau(xs, {}), 0.0);
}

TEST(KendallTauTest, PartialAgreement) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {1, 3, 2, 4};  // one swapped pair of 6
  EXPECT_NEAR(KendallTau(xs, ys), (5.0 - 1.0) / 6.0, 1e-12);
}

}  // namespace
}  // namespace kairos::workload
