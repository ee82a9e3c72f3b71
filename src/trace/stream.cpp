#include "trace/stream.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <stdexcept>

namespace ndnp::trace {

namespace {

constexpr char kMagic[8] = {'N', 'D', 'N', 'P', 'T', 'R', 'B', '1'};
constexpr std::uint32_t kVersion = 1;
/// Fixed-width prefix of one binary record: f64 + u32 + u32 + u16.
constexpr std::size_t kRecordPrefix = 18;

// Little-endian encode/decode, independent of host byte order.
void put_u16(std::vector<char>& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}
void put_u32(std::vector<char>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}
void put_u64(std::vector<char>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}
void put_f64(std::vector<char>& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0]) |
                                    (static_cast<unsigned char>(p[1]) << 8));
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}
double get_f64(const char* p) { return std::bit_cast<double>(get_u64(p)); }

/// Next whitespace-separated token of `line` starting at `pos`; empty view
/// when the line is exhausted. Advances `pos` past the token.
std::string_view next_token(const std::string& line, std::size_t& pos) {
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  const std::size_t begin = pos;
  while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
  return std::string_view(line).substr(begin, pos - begin);
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

/// `prefix` followed by the decimal digits of `n` ("dom", 42 -> "dom42"),
/// formatted into `buf` without allocating.
std::string_view numbered(std::array<char, 24>& buf, std::string_view prefix, std::uint64_t n) {
  std::memcpy(buf.data(), prefix.data(), prefix.size());
  const char* end = std::to_chars(buf.data() + prefix.size(), buf.data() + buf.size(), n).ptr;
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

/// Parse one line of the plain-text format into `out`. Returns false on a
/// malformed line (out unspecified). Blank/comment lines are NOT handled
/// here — callers skip them first.
bool parse_trace_line(const std::string& line, TraceRecord& out) {
  std::size_t pos = 0;
  const std::string_view ts = next_token(line, pos);
  const std::string_view user = next_token(line, pos);
  const std::string_view uri = next_token(line, pos);
  const std::string_view size = next_token(line, pos);
  if (size.empty()) return false;  // fewer than four fields
  if (!next_token(line, pos).empty()) return false;  // more than four

  if (!parse_number(ts, out.timestamp_s)) return false;
  if (!replayable_timestamp(out.timestamp_s)) return false;
  if (!parse_number(user, out.user_id)) return false;
  std::uint64_t size_bytes = 0;
  if (!parse_number(size, size_bytes)) return false;
  out.size_bytes = static_cast<std::size_t>(size_bytes);
  if (uri.empty() || uri.front() != '/') return false;
  try {
    out.name = ndn::Name(uri);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

/// The (shard, shards) a source honouring select_shard accepts.
void check_shard_selection(std::size_t shard, std::size_t shards) {
  if (shards == 0 || shard >= shards)
    throw std::invalid_argument("select_shard: shard " + std::to_string(shard) +
                                " is not one of " + std::to_string(shards) + " shards");
}

/// The positive chunk size every buffered writer and converter needs.
std::size_t positive_chunk(std::size_t chunk_records, const char* who) {
  if (chunk_records == 0)
    throw std::invalid_argument(std::string(who) + ": chunk_records must be positive");
  return chunk_records;
}

}  // namespace

// ---------------------------------------------------------------------------
// TextTraceSource

TextTraceSource::TextTraceSource(std::string path, ParseOptions options)
    : path_(std::move(path)), options_(options), in_(path_) {
  if (!in_) throw TraceParseError("cannot open trace file " + path_, stats_);
}

bool TextTraceSource::next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) {
  out.clear();
  while (out.size() < max_records && std::getline(in_, line_)) {
    ++stats_.lines;
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    if (line_.empty() || line_.front() == '#') {
      ++stats_.comments;
      continue;
    }
    TraceRecord record;
    if (!parse_trace_line(line_, record)) {
      ++stats_.malformed;
      if (stats_.malformed > options_.max_malformed)
        throw TraceParseError(
            path_ + ": malformed line " + std::to_string(stats_.lines) + " (" +
                std::to_string(stats_.malformed) + " malformed line(s) exceed threshold " +
                std::to_string(options_.max_malformed) + ")",
            stats_);
      continue;
    }
    ++stats_.records;
    out.push_back(std::move(record));
  }
  return !out.empty();
}

void TextTraceSource::rewind() {
  in_.clear();
  in_.seekg(0);
  if (!in_) throw TraceParseError("cannot rewind trace file " + path_, stats_);
  stats_ = ParseStats{};
}

// ---------------------------------------------------------------------------
// BinaryTraceSource

BinaryTraceSource::BinaryTraceSource(std::string path)
    : path_(std::move(path)), in_(path_, std::ios::binary) {
  if (!in_) throw TraceParseError("cannot open trace file " + path_, stats_);
  read_header();
}

void BinaryTraceSource::read_header() {
  char header[24];
  in_.read(header, sizeof header);
  if (in_.gcount() != sizeof header || std::memcmp(header, kMagic, sizeof kMagic) != 0)
    throw TraceParseError(path_ + ": not a binary trace (bad magic)", stats_);
  const std::uint32_t version = get_u32(header + 8);
  if (version != kVersion)
    throw TraceParseError(
        path_ + ": unsupported binary trace version " + std::to_string(version), stats_);
  catalogue_size_ = static_cast<std::size_t>(get_u64(header + 16));
}

bool BinaryTraceSource::next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) {
  out.clear();
  char prefix[kRecordPrefix];
  std::string uri;
  while (out.size() < max_records) {
    if (pending_in_chunk_ == 0) {
      char count_buf[4];
      in_.read(count_buf, sizeof count_buf);
      if (in_.gcount() == 0) break;  // clean EOF between chunks
      if (in_.gcount() != sizeof count_buf)
        throw TraceParseError(path_ + ": truncated chunk header", stats_);
      pending_in_chunk_ = get_u32(count_buf);
      if (pending_in_chunk_ == 0)
        throw TraceParseError(path_ + ": empty chunk", stats_);
      continue;
    }
    in_.read(prefix, sizeof prefix);
    if (in_.gcount() != static_cast<std::streamsize>(sizeof prefix))
      throw TraceParseError(path_ + ": truncated record", stats_);
    const std::uint16_t uri_len = get_u16(prefix + 16);
    uri.resize(uri_len);
    in_.read(uri.data(), uri_len);
    if (in_.gcount() != static_cast<std::streamsize>(uri_len))
      throw TraceParseError(path_ + ": truncated record name", stats_);

    TraceRecord record;
    record.timestamp_s = get_f64(prefix);
    if (!replayable_timestamp(record.timestamp_s))
      throw TraceParseError(path_ + ": record " + std::to_string(stats_.records + 1) +
                                " has a negative, non-finite or out-of-range timestamp",
                            stats_);
    record.user_id = get_u32(prefix + 8);
    record.size_bytes = get_u32(prefix + 12);
    try {
      record.name = ndn::Name(uri);
    } catch (const std::invalid_argument&) {
      throw TraceParseError(path_ + ": corrupt record name '" + uri + "'", stats_);
    }
    --pending_in_chunk_;
    ++stats_.lines;
    ++stats_.records;
    out.push_back(std::move(record));
  }
  return !out.empty();
}

void BinaryTraceSource::rewind() {
  in_.clear();
  in_.seekg(0);
  if (!in_) throw TraceParseError("cannot rewind trace file " + path_, stats_);
  stats_ = ParseStats{};
  pending_in_chunk_ = 0;
  read_header();
}

// ---------------------------------------------------------------------------
// VectorTraceSource

void VectorTraceSource::select_shard(std::size_t shard, std::size_t shards) {
  check_shard_selection(shard, shards);
  shard_ = shard;
  shards_ = shards;
}

bool VectorTraceSource::next_chunk(std::vector<TraceRecord>& out, std::size_t max_records) {
  out.clear();
  const auto& records = trace_->records;
  while (cursor_ < records.size() && out.size() < max_records) {
    const TraceRecord& record = records[cursor_++];
    ++stats_.lines;
    ++stats_.records;
    if (shards_ == 1 || shard_of(record.user_id, shards_) == shard_) out.push_back(record);
  }
  return !out.empty();
}

void VectorTraceSource::rewind() {
  cursor_ = 0;
  stats_ = ParseStats{};
}

// ---------------------------------------------------------------------------
// open_trace_source

std::unique_ptr<TraceSource> open_trace_source(const std::string& path,
                                               ParseOptions options) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw TraceParseError("cannot open trace file " + path, ParseStats{});
  char magic[8] = {};
  probe.read(magic, sizeof magic);
  const bool binary =
      probe.gcount() == sizeof magic && std::memcmp(magic, kMagic, sizeof magic) == 0;
  probe.close();
  if (binary) return std::make_unique<BinaryTraceSource>(path);
  return std::make_unique<TextTraceSource>(path, options);
}

// ---------------------------------------------------------------------------
// Writers

TextTraceWriter::TextTraceWriter(const std::string& path) : file_(path), out_(&file_) {
  if (!file_) throw TraceParseError("cannot open trace file " + path + " for writing",
                                    ParseStats{});
}

TextTraceWriter::TextTraceWriter(std::ostream& out) : out_(&out) {}

TextTraceWriter::~TextTraceWriter() { close(); }

void TextTraceWriter::append(const TraceRecord& record) {
  // %.6f: the default stream precision of 6 significant digits would
  // truncate second-scale timestamps late in a 24 h trace.
  char line[64];
  std::snprintf(line, sizeof line, "%.6f %u ", record.timestamp_s, record.user_id);
  *out_ << line << record.name.to_uri() << ' ' << record.size_bytes << '\n';
}

void TextTraceWriter::close() {
  if (out_ != &file_)
    out_->flush();
  else if (file_.is_open())
    file_.close();
}

BinaryTraceWriter::BinaryTraceWriter(const std::string& path, std::size_t catalogue_size,
                                     std::size_t chunk_records)
    : chunk_records_(positive_chunk(chunk_records, "BinaryTraceWriter")),
      out_(path, std::ios::binary) {
  if (!out_) throw TraceParseError("cannot open trace file " + path + " for writing",
                                   ParseStats{});
  std::vector<char> header;
  header.insert(header.end(), kMagic, kMagic + sizeof kMagic);
  put_u32(header, kVersion);
  put_u32(header, 0);  // flags, reserved
  put_u64(header, static_cast<std::uint64_t>(catalogue_size));
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
}

BinaryTraceWriter::~BinaryTraceWriter() { close(); }

void BinaryTraceWriter::append(const TraceRecord& record) {
  const std::string uri = record.name.to_uri();
  if (uri.size() > 0xffff)
    throw TraceParseError("binary trace: name URI longer than 65535 bytes", ParseStats{});
  put_f64(buffer_, record.timestamp_s);
  put_u32(buffer_, record.user_id);
  put_u32(buffer_, static_cast<std::uint32_t>(record.size_bytes));
  put_u16(buffer_, static_cast<std::uint16_t>(uri.size()));
  buffer_.insert(buffer_.end(), uri.begin(), uri.end());
  if (++buffered_ == chunk_records_) flush_chunk();
}

void BinaryTraceWriter::flush_chunk() {
  if (buffered_ == 0) return;
  std::vector<char> count;
  put_u32(count, buffered_);
  out_.write(count.data(), static_cast<std::streamsize>(count.size()));
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
  buffered_ = 0;
}

void BinaryTraceWriter::close() {
  if (!out_.is_open()) return;
  flush_chunk();
  out_.close();
}

ParseStats convert_trace(TraceSource& source, TraceWriter& sink, std::size_t chunk_records) {
  std::vector<TraceRecord> chunk;
  chunk.reserve(positive_chunk(chunk_records, "convert_trace"));
  while (source.next_chunk(chunk, chunk_records))
    for (const TraceRecord& record : chunk) sink.append(record);
  sink.close();
  return source.stats();
}

// ---------------------------------------------------------------------------
// SyntheticWorkload

SyntheticWorkload::SyntheticWorkload(const TraceGenConfig& config)
    : config_(config),
      object_popularity_(config.num_objects, config.zipf_exponent),
      user_activity_(config.num_users, 0.5),
      domain_popularity_(config.num_domains, 0.9) {
  if (config.num_users == 0 || config.num_objects == 0 || config.num_domains == 0)
    throw std::invalid_argument("SyntheticWorkload: counts must be positive");
  if (!(config.duration_s > 0.0))
    throw std::invalid_argument("SyntheticWorkload: duration must be positive");
}

std::uint32_t SyntheticWorkload::domain_of(std::size_t object) const noexcept {
  // Per-object deterministic draw, independent of the request stream: every
  // pass (and every shard) agrees on the assignment without an O(objects)
  // table per source.
  util::SplitMix64 mix(config_.seed ^
                       (0xd6e8feb86659fd93ULL * (static_cast<std::uint64_t>(object) + 1)));
  util::Rng rng(mix.next());
  return static_cast<std::uint32_t>(domain_popularity_.sample(rng) - 1);
}

std::unique_ptr<TraceSource> SyntheticWorkload::open() const {
  return std::make_unique<SyntheticTraceSource>(*this);
}

SyntheticTraceSource::SyntheticTraceSource(const SyntheticWorkload& workload)
    : workload_(&workload), rng_(workload.config().seed) {}

void SyntheticTraceSource::select_shard(std::size_t shard, std::size_t shards) {
  check_shard_selection(shard, shards);
  shard_ = shard;
  shards_ = shards;
}

bool SyntheticTraceSource::next_chunk(std::vector<TraceRecord>& out,
                                      std::size_t max_records) {
  const TraceGenConfig& config = workload_->config();
  const double rate = static_cast<double>(config.num_requests) / config.duration_s;
  // The caller's previous chunk is overwritten in place, and each name is
  // assigned from stack buffers into its inline storage: no allocation.
  std::array<char, 24> domain{};
  std::array<char, 24> object_id{};
  const std::size_t shard = shard_;
  const std::size_t shards = shards_;
  std::size_t filled = 0;
  while (emitted_ < config.num_requests && filled < max_records) {
    clock_s_ += rng_.exponential(rate);
    const auto user = static_cast<std::uint32_t>(workload_->user_activity_.sample(rng_) - 1);
    const double object_u = rng_.uniform01();  // object_popularity_.sample's one draw
    ++emitted_;
    ++stats_.lines;
    ++stats_.records;
    if (shards != 1 && shard_of(user, shards) != shard) continue;

    const std::size_t object = workload_->object_popularity_.rank_at(object_u) - 1;
    if (filled == out.size()) out.emplace_back();
    TraceRecord& record = out[filled++];
    record.timestamp_s = clock_s_;
    record.user_id = user;
    record.name.assign({"web", numbered(domain, "dom", workload_->domain_of(object)),
                        numbered(object_id, "obj", object)});
    record.size_bytes = kObjectSize;
  }
  out.resize(filled);
  return filled > 0;
}

void SyntheticTraceSource::rewind() {
  rng_ = util::Rng(workload_->config().seed);
  emitted_ = 0;
  clock_s_ = 0.0;
  stats_ = ParseStats{};
}

}  // namespace ndnp::trace
