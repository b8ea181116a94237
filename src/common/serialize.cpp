#include "common/serialize.hpp"

#include <bit>
#include <cstdio>
#include <limits>

namespace biosens::serialize {
namespace {

constexpr Layer kLayer = Layer::kCommon;

Expected<std::vector<std::string>> fields_of(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) fields.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return fields;
}

/// A decimal count or array length; `what` names the field in errors.
/// Values past 2^64 - 1 are rejected instead of wrapping.
Expected<std::uint64_t> try_parse_decimal(const std::string& digits,
                                          const std::string& what) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : digits) {
    BIOSENS_EXPECT(c >= '0' && c <= '9', ErrorCode::kSpec, kLayer,
                   "kv_read",
                   what + " is not decimal: '" + digits + "'");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    BIOSENS_EXPECT(value <= (kMax - digit) / 10, ErrorCode::kSpec, kLayer,
                   "kv_read",
                   what + " overflows 64 bits: '" + digits + "'");
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

std::uint64_t double_bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

double bits_double(std::uint64_t bits) {
  return std::bit_cast<double>(bits);
}

std::string hex_u64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Expected<std::uint64_t> try_parse_u64(std::string_view text) {
  std::string_view digits = text;
  if (digits.size() >= 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
  }
  BIOSENS_EXPECT(!digits.empty() && digits.size() <= 16, ErrorCode::kSpec,
                 kLayer, "parse_u64",
                 "hex field must be 1..16 digits: '" + std::string(text) +
                     "'");
  std::uint64_t value = 0;
  for (const char c : digits) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      nibble = static_cast<std::uint64_t>(c - 'A') + 10;
    } else {
      return make_error(ErrorCode::kSpec, kLayer, "parse_u64",
                        "bad hex digit in '" + std::string(text) + "'");
    }
    value = (value << 4) | nibble;
  }
  return value;
}

void KvWriter::u64(std::string_view key, std::uint64_t value) {
  out_ += key;
  out_ += " ";
  out_ += hex_u64(value);
  out_ += "\n";
}

void KvWriter::f64(std::string_view key, double value) {
  u64(key, double_bits(value));
}

void KvWriter::count(std::string_view key, std::uint64_t value) {
  out_ += key;
  out_ += " ";
  out_ += std::to_string(value);
  out_ += "\n";
}

void KvWriter::text(std::string_view key, std::string_view value) {
  out_ += key;
  out_ += " ";
  out_ += value;
  out_ += "\n";
}

void KvWriter::f64_array(std::string_view key,
                         const std::vector<double>& values) {
  out_ += key;
  out_ += " ";
  out_ += std::to_string(values.size());
  for (const double v : values) {
    out_ += " ";
    out_ += hex_u64(double_bits(v));
  }
  out_ += "\n";
}

void KvWriter::u64_array(std::string_view key,
                         const std::vector<std::uint64_t>& values) {
  out_ += key;
  out_ += " ";
  out_ += std::to_string(values.size());
  for (const std::uint64_t v : values) {
    out_ += " ";
    out_ += hex_u64(v);
  }
  out_ += "\n";
}

KvReader::KvReader(std::string_view text) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) lines_.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
}

Expected<std::vector<std::string>> KvReader::try_line(
    std::string_view key, std::size_t min_fields) {
  BIOSENS_EXPECT(next_ < lines_.size(), ErrorCode::kSpec, kLayer,
                 "kv_read",
                 "snapshot truncated before key '" + std::string(key) +
                     "'");
  auto fields = fields_of(lines_[next_]);
  if (!fields.has_value()) return fields.error();
  BIOSENS_EXPECT(!fields.value().empty() && fields.value()[0] == key,
                 ErrorCode::kSpec, kLayer, "kv_read",
                 "expected key '" + std::string(key) + "', found line '" +
                     lines_[next_] + "'");
  BIOSENS_EXPECT(fields.value().size() >= min_fields, ErrorCode::kSpec,
                 kLayer, "kv_read",
                 "key '" + std::string(key) + "' is missing its value");
  ++next_;
  return fields;
}

Expected<std::uint64_t> KvReader::try_u64(std::string_view key) {
  return try_line(key, 2).and_then(
      [](const std::vector<std::string>& f) { return try_parse_u64(f[1]); });
}

Expected<double> KvReader::try_f64(std::string_view key) {
  return try_u64(key).map(
      [](const std::uint64_t bits) { return bits_double(bits); });
}

Expected<std::uint64_t> KvReader::try_count(std::string_view key) {
  auto fields = try_line(key, 2);
  if (!fields.has_value()) return fields.error();
  return try_parse_decimal(fields.value()[1],
                           "count for key '" + std::string(key) + "'");
}

Expected<std::string> KvReader::try_text(std::string_view key) {
  return try_line(key, 2).map(
      [](const std::vector<std::string>& f) { return f[1]; });
}

Expected<std::vector<double>> KvReader::try_f64_array(std::string_view key) {
  auto fields = try_line(key, 2);
  if (!fields.has_value()) return fields.error();
  const std::vector<std::string>& f = fields.value();
  auto length = try_parse_decimal(
      f[1], "length of array '" + std::string(key) + "'");
  if (!length.has_value()) return length.error();
  const std::uint64_t declared = length.value();
  BIOSENS_EXPECT(f.size() == declared + 2, ErrorCode::kSpec, kLayer,
                 "kv_read",
                 "array '" + std::string(key) + "' declares " +
                     std::to_string(declared) + " elements, carries " +
                     std::to_string(f.size() - 2));
  std::vector<double> values;
  values.reserve(declared);
  for (std::size_t i = 0; i < declared; ++i) {
    auto bits = try_parse_u64(f[i + 2]);
    if (!bits.has_value()) return bits.error();
    values.push_back(bits_double(bits.value()));
  }
  return values;
}

Expected<std::vector<std::uint64_t>> KvReader::try_u64_array(
    std::string_view key) {
  auto fields = try_line(key, 2);
  if (!fields.has_value()) return fields.error();
  const std::vector<std::string>& f = fields.value();
  auto length = try_parse_decimal(
      f[1], "length of array '" + std::string(key) + "'");
  if (!length.has_value()) return length.error();
  const std::uint64_t declared = length.value();
  BIOSENS_EXPECT(f.size() == declared + 2, ErrorCode::kSpec, kLayer,
                 "kv_read",
                 "array '" + std::string(key) + "' declares " +
                     std::to_string(declared) + " elements, carries " +
                     std::to_string(f.size() - 2));
  std::vector<std::uint64_t> values;
  values.reserve(declared);
  for (std::size_t i = 0; i < declared; ++i) {
    auto bits = try_parse_u64(f[i + 2]);
    if (!bits.has_value()) return bits.error();
    values.push_back(bits.value());
  }
  return values;
}

}  // namespace biosens::serialize
