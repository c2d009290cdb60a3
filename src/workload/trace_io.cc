#include "workload/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#ifdef KAIROS_HAS_ZLIB
#include <zlib.h>
#endif

#include "latency/latency_model.h"

namespace kairos::workload {

// ---------------------------------------------------------------------------
// Shared row parser: ReadTraceCsv and StreamingTraceReader both funnel every
// line through here, so the two read paths cannot drift apart semantically
// (the chunk-size-invariance property tests rely on this).

namespace {

constexpr std::string_view kHeader = "id,arrival_s,batch";

/// Drops one trailing '\r' so CRLF traces parse like LF traces.
void StripCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

Status MalformedRow(std::uint64_t line_no) {
  return Status::InvalidArgument("trace csv: malformed row at line " +
                                 std::to_string(line_no));
}

Status BadHeader() {
  return Status::InvalidArgument(
      "trace csv: bad or missing header (want \"id,arrival_s,batch\")");
}

/// Parses one non-empty data row "id,arrival_s,batch" into `*out`.
/// `last_arrival` is the previous row's arrival (0 before the first row);
/// rows must be sorted. Strict: every byte of the line must be consumed.
Status ParseTraceRow(std::string_view line, std::uint64_t line_no,
                     double last_arrival, Query* out) {
  const char* p = line.data();
  const char* const end = p + line.size();

  const auto id_parsed = std::from_chars(p, end, out->id);
  if (id_parsed.ec != std::errc() || id_parsed.ptr == end ||
      *id_parsed.ptr != ',') {
    return MalformedRow(line_no);
  }
  p = id_parsed.ptr + 1;

  const auto arrival_parsed = std::from_chars(p, end, out->arrival);
  if (arrival_parsed.ec != std::errc() || arrival_parsed.ptr == end ||
      *arrival_parsed.ptr != ',') {
    return MalformedRow(line_no);
  }
  p = arrival_parsed.ptr + 1;

  const auto batch_parsed = std::from_chars(p, end, out->batch_size);
  if (batch_parsed.ec != std::errc() || batch_parsed.ptr != end) {
    return MalformedRow(line_no);
  }

  if (!std::isfinite(out->arrival)) {
    return Status::InvalidArgument("trace csv: non-finite arrival_s at line " +
                                   std::to_string(line_no));
  }
  if (out->arrival < 0.0) {
    return Status::InvalidArgument("trace csv: negative arrival_s at line " +
                                   std::to_string(line_no));
  }
  if (out->batch_size < 1 || out->batch_size > latency::kMaxBatchSize) {
    return Status::InvalidArgument(
        "trace csv: batch out of [1, " +
        std::to_string(latency::kMaxBatchSize) + "] at line " +
        std::to_string(line_no));
  }
  if (out->arrival < last_arrival) {
    return Status::InvalidArgument("trace csv: arrivals not sorted at line " +
                                   std::to_string(line_no));
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Writers.

Status WriteTraceCsv(const Trace& trace, std::ostream& os) {
  os << kHeader << '\n';
  os << std::setprecision(12);
  for (const Query& q : trace.queries()) {
    os << q.id << ',' << q.arrival << ',' << q.batch_size << '\n';
  }
  if (!os.good()) {
    return Status::Internal("trace csv: write failed");
  }
  return Status::Ok();
}

Status WriteTraceCsv(const Trace& trace, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::NotFound("trace csv: cannot open " + path);
  }
  const Status written = WriteTraceCsv(trace, file);
  if (!written.ok()) {
    return Status::Internal("trace csv: write failed for " + path);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Materializing readers.

StatusOr<Trace> ReadTraceCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) return BadHeader();
  StripCr(&line);
  if (line != kHeader) return BadHeader();

  std::vector<Query> queries;
  std::uint64_t line_no = 1;
  double last_arrival = 0.0;
  while (std::getline(is, line)) {
    ++line_no;
    StripCr(&line);
    if (line.empty()) continue;
    Query q;
    const Status parsed = ParseTraceRow(line, line_no, last_arrival, &q);
    if (!parsed.ok()) return parsed;
    last_arrival = q.arrival;
    queries.push_back(q);
  }
  return Trace(std::move(queries));
}

StatusOr<Trace> ReadTraceCsv(const std::string& path) {
  // Implemented over the streaming reader so the materialized path accepts
  // exactly what streaming accepts (including ".gz" when zlib is in).
  auto reader = StreamingTraceReader::Open(path);
  if (!reader.ok()) return reader.status();
  std::vector<Query> queries;
  Query q;
  for (;;) {
    const StatusOr<bool> got = reader->Next(&q);
    if (!got.ok()) return got.status();
    if (!*got) break;
    queries.push_back(q);
  }
  return Trace(std::move(queries));
}

// ---------------------------------------------------------------------------
// Streaming reader.

bool TraceGzipSupported() {
#ifdef KAIROS_HAS_ZLIB
  return true;
#else
  return false;
#endif
}

namespace detail {

/// Chunked byte access to a trace file, abstracting plain vs gzip storage.
class TraceByteSource {
 public:
  virtual ~TraceByteSource() = default;

  /// Reads up to `n` bytes into `buf`; returns the count read, 0 at
  /// end-of-file, -1 on a read error.
  virtual long Read(char* buf, std::size_t n) = 0;

  /// Back to byte 0; false when the underlying seek fails.
  virtual bool Rewind() = 0;
};

namespace {

class PlainFileSource final : public TraceByteSource {
 public:
  explicit PlainFileSource(std::FILE* file) : file_(file) {}
  ~PlainFileSource() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  PlainFileSource(const PlainFileSource&) = delete;
  PlainFileSource& operator=(const PlainFileSource&) = delete;

  long Read(char* buf, std::size_t n) override {
    const std::size_t got = std::fread(buf, 1, n, file_);
    if (got < n && std::ferror(file_) != 0) return -1;
    return static_cast<long>(got);
  }

  bool Rewind() override { return std::fseek(file_, 0, SEEK_SET) == 0; }

 private:
  std::FILE* file_;
};

#ifdef KAIROS_HAS_ZLIB
class GzipFileSource final : public TraceByteSource {
 public:
  explicit GzipFileSource(gzFile file) : file_(file) {}
  ~GzipFileSource() override {
    if (file_ != nullptr) gzclose(file_);
  }
  GzipFileSource(const GzipFileSource&) = delete;
  GzipFileSource& operator=(const GzipFileSource&) = delete;

  long Read(char* buf, std::size_t n) override {
    // gzread takes an unsigned count; cap one call (the caller loops).
    const unsigned want = static_cast<unsigned>(
        std::min<std::size_t>(n, std::size_t{1} << 24));
    const int got = gzread(file_, buf, want);
    return got;  // gzread already returns -1 on error, 0 at EOF
  }

  bool Rewind() override { return gzrewind(file_) == 0; }

 private:
  gzFile file_;
};
#endif  // KAIROS_HAS_ZLIB

}  // namespace
}  // namespace detail

namespace {

bool EndsWithGz(const std::string& path) {
  return path.size() >= 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
}

}  // namespace

StreamingTraceReader::StreamingTraceReader(
    std::string path, StreamingTraceOptions options,
    std::unique_ptr<detail::TraceByteSource> source)
    : path_(std::move(path)), options_(options), source_(std::move(source)) {}

StreamingTraceReader::StreamingTraceReader(StreamingTraceReader&&) noexcept =
    default;
StreamingTraceReader& StreamingTraceReader::operator=(
    StreamingTraceReader&&) noexcept = default;
StreamingTraceReader::~StreamingTraceReader() = default;

StatusOr<StreamingTraceReader> StreamingTraceReader::Open(
    const std::string& path, StreamingTraceOptions options) {
  std::unique_ptr<detail::TraceByteSource> source;
  if (EndsWithGz(path)) {
#ifdef KAIROS_HAS_ZLIB
    gzFile file = gzopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Status::NotFound("trace csv: cannot open " + path);
    }
    source = std::make_unique<detail::GzipFileSource>(file);
#else
    return Status::FailedPrecondition(
        "trace csv: " + path +
        " is gzip-compressed but this build lacks zlib");
#endif
  } else {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Status::NotFound("trace csv: cannot open " + path);
    }
    source = std::make_unique<detail::PlainFileSource>(file);
  }

  StreamingTraceReader reader(path, options, std::move(source));
  const Status header = reader.ReadHeader();
  if (!header.ok()) return header;
  return reader;
}

StatusOr<bool> StreamingTraceReader::NextLine(std::string* line) {
  for (;;) {
    const std::size_t newline = pending_.find('\n', pending_pos_);
    if (newline != std::string::npos) {
      line->assign(pending_, pending_pos_, newline - pending_pos_);
      pending_pos_ = newline + 1;
      ++line_no_;
      return true;
    }
    if (source_eof_) {
      if (pending_pos_ < pending_.size()) {
        // Final line without a trailing newline.
        line->assign(pending_, pending_pos_,
                     pending_.size() - pending_pos_);
        pending_.clear();
        pending_pos_ = 0;
        ++line_no_;
        return true;
      }
      return false;
    }
    // Refill: drop the consumed prefix, then append one chunk. chunk 0
    // grows in 1 MiB steps — behaviorally "the whole file at once" since
    // nothing is parsed until a newline (or EOF) shows up.
    pending_.erase(0, pending_pos_);
    pending_pos_ = 0;
    const std::size_t want =
        options_.chunk_bytes == 0 ? (std::size_t{1} << 20)
                                  : options_.chunk_bytes;
    const std::size_t old_size = pending_.size();
    pending_.resize(old_size + want);
    const long got = source_->Read(pending_.data() + old_size, want);
    if (got < 0) {
      return Status::Internal("trace csv: read error in " + path_);
    }
    pending_.resize(old_size + static_cast<std::size_t>(got));
    if (got == 0) source_eof_ = true;
  }
}

Status StreamingTraceReader::ReadHeader() {
  const StatusOr<bool> got = NextLine(&line_);
  if (!got.ok()) return got.status();
  if (*got) StripCr(&line_);
  if (!*got || line_ != kHeader) return BadHeader();
  return Status::Ok();
}

StatusOr<bool> StreamingTraceReader::Next(Query* out) {
  if (!sticky_.ok()) return sticky_;
  if (exhausted_) return false;
  for (;;) {
    const StatusOr<bool> got = NextLine(&line_);
    if (!got.ok()) {
      sticky_ = got.status();
      return sticky_;
    }
    if (!*got) {
      exhausted_ = true;
      return false;
    }
    StripCr(&line_);
    if (line_.empty()) continue;
    const Status parsed = ParseTraceRow(line_, line_no_, last_arrival_, out);
    if (!parsed.ok()) {
      sticky_ = parsed;
      return sticky_;
    }
    last_arrival_ = out->arrival;
    ++queries_read_;
    return true;
  }
}

Status StreamingTraceReader::Rewind() {
  if (!source_->Rewind()) {
    return Status::Internal("trace csv: rewind failed for " + path_);
  }
  pending_.clear();
  pending_pos_ = 0;
  source_eof_ = false;
  line_no_ = 0;
  queries_read_ = 0;
  last_arrival_ = 0.0;
  exhausted_ = false;
  sticky_ = Status::Ok();
  return ReadHeader();
}

}  // namespace kairos::workload
