// Trace persistence: save and load query traces as CSV so experiments can
// be replayed bit-for-bit across runs and shared like the paper's
// production trace artifact. Format: header "id,arrival_s,batch" then one
// row per query, sorted by arrival.
//
// Two read paths share one row parser (so their semantics cannot drift):
//   - ReadTraceCsv materializes the whole trace (small files, comparisons);
//   - StreamingTraceReader pulls queries in bounded-memory chunks, the
//     million-user scale path (DESIGN.md Sec. 12). Files ending in ".gz"
//     are decompressed transparently when the build found zlib.
// All entry points follow the repo-wide Status/StatusOr contract (DESIGN.md
// Sec. 7) and never throw on bad input.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/status.h"
#include "workload/trace.h"

namespace kairos::workload {

/// Writes a trace to a stream (CSV with header). Fails with kInternal when
/// the stream enters a failed state mid-write.
Status WriteTraceCsv(const Trace& trace, std::ostream& os);

/// Writes a trace to a file; kNotFound when the path cannot be opened,
/// kInternal when the write fails.
Status WriteTraceCsv(const Trace& trace, const std::string& path);

/// Parses a trace from a stream. kInvalidArgument on malformed input (bad
/// header, non-numeric fields, non-finite or negative arrivals, unsorted
/// arrivals, batch out of [1, 1000]) with the offending line number in the
/// message.
StatusOr<Trace> ReadTraceCsv(std::istream& is);

/// Reads a trace from a file (".gz" paths are decompressed when zlib is
/// built in); kNotFound when the file cannot be opened. Implemented over
/// StreamingTraceReader, so it accepts exactly what streaming accepts.
StatusOr<Trace> ReadTraceCsv(const std::string& path);

/// True when this build can read ".gz" traces (zlib was found by CMake).
bool TraceGzipSupported();

/// Knobs for StreamingTraceReader.
struct StreamingTraceOptions {
  /// Bytes pulled from the file per refill; 0 reads the whole file in one
  /// chunk. Any value yields the identical query sequence (chunk-size
  /// invariance is property-tested); the default keeps resident memory a
  /// few tens of KB regardless of trace size.
  std::size_t chunk_bytes = 65536;
};

/// Pulls queries one at a time from a trace CSV without materializing it:
/// resident memory is O(chunk_bytes + longest line), never O(file). The
/// reader enforces the same validation as ReadTraceCsv (shared parser) and
/// reports errors with 64-bit line numbers, so multi-GB traces with >4G
/// rows still produce precise diagnostics.
namespace detail {
class TraceByteSource;  // plain-file / gzip chunk reader
}  // namespace detail

class StreamingTraceReader {
 public:
  /// Opens `path` and validates the header eagerly. kNotFound when the
  /// file cannot be opened, kFailedPrecondition for ".gz" without zlib,
  /// kInvalidArgument for a bad header.
  static StatusOr<StreamingTraceReader> Open(
      const std::string& path, StreamingTraceOptions options = {});

  StreamingTraceReader(StreamingTraceReader&&) noexcept;
  StreamingTraceReader& operator=(StreamingTraceReader&&) noexcept;
  ~StreamingTraceReader();

  /// Fills `*out` with the next query and returns true; returns false at
  /// clean end-of-file. Malformed rows fail with the same kInvalidArgument
  /// statuses as ReadTraceCsv; the error is sticky (every later call
  /// returns it again).
  StatusOr<bool> Next(Query* out);

  /// Rewinds to the first query (re-validating the header) and clears any
  /// sticky error so replay trials can reuse one open reader.
  Status Rewind();

  const std::string& path() const { return path_; }

  /// Queries successfully returned by Next() since open/rewind.
  std::uint64_t queries_read() const { return queries_read_; }

 private:
  StreamingTraceReader(std::string path, StreamingTraceOptions options,
                       std::unique_ptr<detail::TraceByteSource> source);

  /// Extracts the next newline-terminated line (or the unterminated final
  /// line) into `*line`; false at end of input.
  StatusOr<bool> NextLine(std::string* line);

  /// Reads and validates the header line.
  Status ReadHeader();

  std::string path_;
  StreamingTraceOptions options_;
  std::unique_ptr<detail::TraceByteSource> source_;
  std::string pending_;       ///< bytes read but not yet consumed
  std::size_t pending_pos_ = 0;
  std::string line_;          ///< scratch for the current line
  bool source_eof_ = false;
  std::uint64_t line_no_ = 0;
  std::uint64_t queries_read_ = 0;
  double last_arrival_ = 0.0;
  bool exhausted_ = false;
  Status sticky_;  ///< first parse/IO error; returned by every later Next()
};

}  // namespace kairos::workload
