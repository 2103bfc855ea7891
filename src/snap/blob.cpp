#include "snap/blob.hpp"

#include <bit>
#include <cstring>

#include "util/crc.hpp"

namespace nlft::snap {

namespace {

void appendLe(std::vector<std::uint8_t>& bytes, std::uint64_t value, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

[[nodiscard]] std::uint64_t readLe(std::span<const std::uint8_t> bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

}  // namespace

BlobWriter::BlobWriter(std::uint16_t kind, std::uint16_t version) {
  appendLe(bytes_, kBlobMagic, 4);
  appendLe(bytes_, kind, 2);
  appendLe(bytes_, version, 2);
}

void BlobWriter::beginSection(std::string_view name) {
  if (sectionPayloadStart_ != 0) {
    throw BlobError("BlobWriter: section '" + sectionName_ + "' still open");
  }
  bytes_.push_back(static_cast<std::uint8_t>(name.size()));
  bytes_.insert(bytes_.end(), name.begin(), name.end());
  appendLe(bytes_, 0, 4);  // payload size, patched by endSection()
  sectionPayloadStart_ = bytes_.size();
  sectionName_ = name;
}

void BlobWriter::endSection() {
  if (sectionPayloadStart_ == 0) throw BlobError("BlobWriter: no open section");
  const std::size_t payloadSize = bytes_.size() - sectionPayloadStart_;
  for (std::size_t i = 0; i < 4; ++i) {
    bytes_[sectionPayloadStart_ - 4 + i] = static_cast<std::uint8_t>(payloadSize >> (8 * i));
  }
  const std::uint32_t crc = util::crc32(
      {bytes_.data() + sectionPayloadStart_, payloadSize});
  appendLe(bytes_, crc, 4);
  sectionPayloadStart_ = 0;
  sectionName_.clear();
}

void BlobWriter::u8(std::uint8_t value) { appendLe(bytes_, value, 1); }
void BlobWriter::u16(std::uint16_t value) { appendLe(bytes_, value, 2); }
void BlobWriter::u32(std::uint32_t value) { appendLe(bytes_, value, 4); }
void BlobWriter::u64(std::uint64_t value) { appendLe(bytes_, value, 8); }
void BlobWriter::i64(std::int64_t value) { appendLe(bytes_, static_cast<std::uint64_t>(value), 8); }
void BlobWriter::boolean(bool value) { appendLe(bytes_, value ? 1 : 0, 1); }

void BlobWriter::str(std::string_view value) {
  u32(static_cast<std::uint32_t>(value.size()));
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void BlobWriter::u32Vec(std::span<const std::uint32_t> values) {
  u32(static_cast<std::uint32_t>(values.size()));
  for (const std::uint32_t value : values) u32(value);
}

void BlobWriter::u64Vec(std::span<const std::uint64_t> values) {
  u32(static_cast<std::uint32_t>(values.size()));
  for (const std::uint64_t value : values) u64(value);
}

std::vector<std::uint8_t> BlobWriter::finish() {
  if (sectionPayloadStart_ != 0) {
    throw BlobError("BlobWriter: section '" + sectionName_ + "' still open at finish");
  }
  return std::move(bytes_);
}

BlobReader::BlobReader(std::span<const std::uint8_t> bytes, std::uint16_t expectedKind,
                       std::uint16_t expectedVersion)
    : bytes_(bytes) {
  if (bytes_.size() < 8) throw BlobError("snapshot header: truncated blob");
  if (readLe(bytes_.subspan(0, 4)) != kBlobMagic) {
    throw BlobError("snapshot header: bad magic (not a snapshot blob)");
  }
  const auto kind = static_cast<std::uint16_t>(readLe(bytes_.subspan(4, 2)));
  const auto version = static_cast<std::uint16_t>(readLe(bytes_.subspan(6, 2)));
  if (kind != expectedKind) {
    throw BlobError("snapshot header: kind " + std::to_string(kind) + ", expected " +
                    std::to_string(expectedKind));
  }
  if (version != expectedVersion) {
    throw BlobError("snapshot header: format version " + std::to_string(version) +
                    ", this build reads version " + std::to_string(expectedVersion) +
                    " — refusing to parse");
  }
  cursor_ = 8;
}

void BlobReader::fail(const std::string& what) const {
  const std::string where =
      sectionName_.empty() ? std::string{"snapshot"} : "snapshot section '" + sectionName_ + "'";
  throw BlobError(where + ": " + what);
}

std::size_t BlobReader::remaining() const {
  return (sectionEnd_ != 0 ? sectionEnd_ : bytes_.size()) - cursor_;
}

std::span<const std::uint8_t> BlobReader::take(std::size_t count) {
  if (count > remaining()) {
    fail(sectionEnd_ != 0 ? "field overruns section (corrupted blob)" : "truncated blob");
  }
  const std::span<const std::uint8_t> view = bytes_.subspan(cursor_, count);
  cursor_ += count;
  return view;
}

void BlobReader::openSection(std::string_view name) {
  if (sectionEnd_ != 0) fail("previous section still open");
  if (cursor_ >= bytes_.size()) {
    sectionName_ = name;
    fail("missing (truncated blob)");
  }
  const auto nameLen = static_cast<std::size_t>(bytes_[cursor_]);
  ++cursor_;
  if (cursor_ + nameLen + 4 > bytes_.size()) {
    sectionName_ = name;
    fail("header truncated");
  }
  const std::string found{reinterpret_cast<const char*>(bytes_.data() + cursor_), nameLen};
  cursor_ += nameLen;
  if (found != name) {
    sectionName_ = name;
    fail("expected here, found section '" + found + "'");
  }
  sectionName_ = found;
  const auto payloadSize = static_cast<std::size_t>(readLe(bytes_.subspan(cursor_, 4)));
  cursor_ += 4;
  if (cursor_ + payloadSize + 4 > bytes_.size()) fail("truncated blob");
  const std::uint32_t stored =
      static_cast<std::uint32_t>(readLe(bytes_.subspan(cursor_ + payloadSize, 4)));
  const std::uint32_t actual = util::crc32(bytes_.subspan(cursor_, payloadSize));
  if (stored != actual) fail("CRC mismatch (corrupted or truncated blob)");
  sectionEnd_ = cursor_ + payloadSize;
}

void BlobReader::closeSection() {
  if (sectionEnd_ == 0) fail("no open section");
  if (cursor_ != sectionEnd_) fail("trailing bytes in section (corrupted blob)");
  cursor_ += 4;  // the CRC trailer, already verified
  sectionEnd_ = 0;
  sectionName_.clear();
}

std::uint8_t BlobReader::u8() { return static_cast<std::uint8_t>(readLe(take(1))); }
std::uint16_t BlobReader::u16() { return static_cast<std::uint16_t>(readLe(take(2))); }
std::uint32_t BlobReader::u32() { return static_cast<std::uint32_t>(readLe(take(4))); }
std::uint64_t BlobReader::u64() { return readLe(take(8)); }
std::int64_t BlobReader::i64() { return static_cast<std::int64_t>(readLe(take(8))); }
bool BlobReader::boolean() { return readLe(take(1)) != 0; }

std::string BlobReader::str() {
  const std::size_t size = u32();
  const std::span<const std::uint8_t> view = take(size);
  return {reinterpret_cast<const char*>(view.data()), view.size()};
}

std::uint32_t BlobReader::elementCount(std::size_t minElementBytes) {
  const std::uint32_t count = u32();
  if (std::uint64_t{count} * minElementBytes > remaining()) {
    fail("element count " + std::to_string(count) + " overruns the " +
         std::to_string(remaining()) + " bytes left (corrupted blob)");
  }
  return count;
}

std::vector<std::uint32_t> BlobReader::u32Vec() {
  const std::size_t size = elementCount(4);
  std::vector<std::uint32_t> values;
  values.reserve(size);
  for (std::size_t i = 0; i < size; ++i) values.push_back(u32());
  return values;
}

std::vector<std::uint64_t> BlobReader::u64Vec() {
  const std::size_t size = elementCount(8);
  std::vector<std::uint64_t> values;
  values.reserve(size);
  for (std::size_t i = 0; i < size; ++i) values.push_back(u64());
  return values;
}

void BlobReader::finish() const {
  if (sectionEnd_ != 0) {
    throw BlobError("snapshot section '" + sectionName_ + "': left open at finish");
  }
  if (cursor_ != bytes_.size()) throw BlobError("snapshot: trailing bytes after last section");
}

}  // namespace nlft::snap
