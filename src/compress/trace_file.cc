/**
 * @file
 * Trace file reader/writer implementation.
 *
 * Reading order of operations is deliberate: validate the fixed
 * header, then the codec name, then every length against the real
 * file size, and only then allocate and decode. Nothing here trusts a
 * byte it has not checked.
 */

#include "compress/trace_file.h"

#include <cstdio>
#include <cstring>
#include <memory>

namespace lba::compress {

namespace {

constexpr char kMagic[8] = {'L', 'B', 'A', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;
/** Fixed header prefix shared by v1 and v2. */
constexpr std::size_t kFixedHeaderBytes = 28;

void
put64(std::uint8_t* out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
}

std::uint64_t
get64(const std::uint8_t* in)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    }
    return value;
}

bool
fail(DecodeError* error, DecodeErrorKind kind, std::uint64_t offset,
     const std::string& message)
{
    if (error) *error = DecodeError::make(kind, offset, message);
    return false;
}

/** RAII FILE handle. */
struct FileCloser
{
    void operator()(std::FILE* f) const { if (f) std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/** File size via seek-to-end; false on I/O failure. */
bool
fileSize(std::FILE* f, std::uint64_t* out)
{
    long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return false;
    long end = std::ftell(f);
    if (end < 0 || std::fseek(f, pos, SEEK_SET) != 0) return false;
    *out = static_cast<std::uint64_t>(end);
    return true;
}

/**
 * Parse and fully validate a header from an open file. On success the
 * read position is at the start of the payload.
 */
bool
readHeader(std::FILE* f, TraceInfo* info, std::uint64_t* payload_offset,
           DecodeError* error)
{
    std::uint8_t header[kFixedHeaderBytes];
    if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
        return fail(error, DecodeErrorKind::kTruncated, 0,
                    "truncated header");
    }
    if (std::memcmp(header, kMagic, 8) != 0) {
        return fail(error, DecodeErrorKind::kMalformed, 0,
                    "not an LBA trace file");
    }
    std::uint32_t version = 0;
    for (int i = 0; i < 4; ++i) {
        version |= static_cast<std::uint32_t>(header[8 + i]) << (8 * i);
    }
    info->version = version;
    info->records = get64(header + 12);
    info->payload_bytes = get64(header + 20);

    std::uint64_t offset = kFixedHeaderBytes;
    if (version == kVersionV1) {
        info->codec = kCodecName;
    } else if (version == kVersionV2) {
        std::uint8_t name_len = 0;
        if (std::fread(&name_len, 1, 1, f) != 1) {
            return fail(error, DecodeErrorKind::kTruncated, offset,
                        "truncated codec name length");
        }
        if (name_len == 0 || name_len > kMaxCodecNameBytes) {
            return fail(error, DecodeErrorKind::kMalformed, offset,
                        "bad codec name length");
        }
        char name[kMaxCodecNameBytes];
        if (std::fread(name, 1, name_len, f) != name_len) {
            return fail(error, DecodeErrorKind::kTruncated, offset + 1,
                        "truncated codec name");
        }
        for (unsigned i = 0; i < name_len; ++i) {
            if (name[i] < 0x21 || name[i] > 0x7e) {
                return fail(error, DecodeErrorKind::kMalformed,
                            offset + 1 + i,
                            "codec name contains non-printable bytes");
            }
        }
        info->codec.assign(name, name_len);
        offset += 1 + name_len;
    } else {
        return fail(error, DecodeErrorKind::kUnsupported, 8,
                    "unsupported trace version");
    }

    // Every byte the header promises must really exist, and nothing
    // may trail the payload — an attacker-controlled payload_bytes
    // must not be able to drive allocations past the file itself.
    std::uint64_t size = 0;
    if (!fileSize(f, &size)) {
        return fail(error, DecodeErrorKind::kIo, offset,
                    "cannot determine file size");
    }
    if (info->payload_bytes > size - offset) {
        return fail(error, DecodeErrorKind::kTruncated, offset,
                    "truncated payload: header promises " +
                        std::to_string(info->payload_bytes) +
                        " bytes, file holds " +
                        std::to_string(size - offset));
    }
    if (info->payload_bytes < size - offset) {
        return fail(error, DecodeErrorKind::kMalformed, offset,
                    "trailing bytes after payload");
    }
    // The smallest record is 4 bits, so the payload cannot hold more
    // than 2 records per byte; a count past that is an allocation bomb.
    if (info->records > info->payload_bytes * 2) {
        return fail(error, DecodeErrorKind::kLimitExceeded, 12,
                    "record count implausible for payload size");
    }
    *payload_offset = offset;
    return true;
}

} // namespace

bool
writeTrace(const std::string& path,
           const std::vector<log::EventRecord>& records,
           DecodeError* error)
{
    Encoder encoder;
    for (const log::EventRecord& record : records) {
        encoder.append(record);
    }
    encoder.finishStream();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    encoder.pull(payload.data(), payload.size());

    File file(std::fopen(path.c_str(), "wb"));
    if (!file) {
        return fail(error, DecodeErrorKind::kIo, 0,
                    "cannot open '" + path + "' to write");
    }

    std::uint8_t header[kFixedHeaderBytes + 1 + kMaxCodecNameBytes];
    std::memcpy(header, kMagic, 8);
    header[8] = static_cast<std::uint8_t>(kVersionV2);
    header[9] = header[10] = header[11] = 0;
    put64(header + 12, records.size());
    put64(header + 20, payload.size());
    const std::size_t name_len = std::strlen(kCodecName);
    header[28] = static_cast<std::uint8_t>(name_len);
    std::memcpy(header + 29, kCodecName, name_len);
    std::size_t header_bytes = kFixedHeaderBytes + 1 + name_len;
    if (std::fwrite(header, 1, header_bytes, file.get()) !=
        header_bytes) {
        return fail(error, DecodeErrorKind::kIo, 0,
                    "short write on header");
    }
    if (!payload.empty() &&
        std::fwrite(payload.data(), 1, payload.size(), file.get()) !=
            payload.size()) {
        return fail(error, DecodeErrorKind::kIo, header_bytes,
                    "short write on payload");
    }
    if (error) *error = DecodeError{};
    return true;
}

std::optional<TraceInfo>
readTraceInfo(const std::string& path, DecodeError* error)
{
    File file(std::fopen(path.c_str(), "rb"));
    if (!file) {
        fail(error, DecodeErrorKind::kIo, 0,
             "cannot open '" + path + "'");
        return std::nullopt;
    }
    TraceInfo info;
    std::uint64_t payload_offset = 0;
    if (!readHeader(file.get(), &info, &payload_offset, error)) {
        return std::nullopt;
    }
    if (error) *error = DecodeError{};
    return info;
}

std::optional<std::vector<log::EventRecord>>
readTrace(const std::string& path, DecodeError* error)
{
    File file(std::fopen(path.c_str(), "rb"));
    if (!file) {
        fail(error, DecodeErrorKind::kIo, 0,
             "cannot open '" + path + "'");
        return std::nullopt;
    }
    TraceInfo info;
    std::uint64_t payload_offset = 0;
    if (!readHeader(file.get(), &info, &payload_offset, error)) {
        return std::nullopt;
    }
    if (info.codec != kCodecName) {
        fail(error, DecodeErrorKind::kUnsupported, kFixedHeaderBytes,
             "unknown codec '" + info.codec + "'");
        return std::nullopt;
    }

    // payload_bytes was validated against the file size, so this
    // allocation is bounded by real on-disk bytes.
    std::vector<std::uint8_t> payload(info.payload_bytes);
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), file.get()) !=
            payload.size()) {
        fail(error, DecodeErrorKind::kIo, payload_offset,
             "payload read failed");
        return std::nullopt;
    }

    Decoder decoder;
    decoder.push(payload.data(), payload.size());
    decoder.finishInput();

    // No reserve(): the header's record count is untrusted, so the
    // vector grows only as records really decode.
    std::vector<log::EventRecord> records;
    for (std::uint64_t i = 0; i < info.records; ++i) {
        log::EventRecord record;
        switch (decoder.next(&record)) {
          case DecodeStatus::kOk:
            records.push_back(record);
            break;
          case DecodeStatus::kEnd:
            fail(error, DecodeErrorKind::kTruncated, payload_offset,
                 "payload ends after " + std::to_string(i) + " of " +
                     std::to_string(info.records) + " records");
            return std::nullopt;
          case DecodeStatus::kError: {
            DecodeError inner = decoder.error();
            fail(error, inner.kind, payload_offset + inner.offset,
                 "record " + std::to_string(i) + ": " + inner.message);
            return std::nullopt;
          }
          case DecodeStatus::kNeedMore:
            // Unreachable: finishInput() was called, so the decoder
            // resolves incomplete records to kError/kEnd instead.
            fail(error, DecodeErrorKind::kTruncated, payload_offset,
                 "decoder stalled mid-payload");
            return std::nullopt;
        }
    }
    if (error) *error = DecodeError{};
    return records;
}

} // namespace lba::compress
