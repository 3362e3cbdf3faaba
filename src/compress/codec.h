#pragma once
/**
 * @file
 * The log codec: value-prediction compression of the event stream (the
 * paper's "compress" / "decompress" engines, adapted from Burtscher's
 * VPC [1]), with a streaming Encoder/Decoder pair and the typed error
 * model for decoding untrusted input.
 *
 * The encoder and decoder run identical predictor banks; a record
 * whose fields all predict correctly costs only a few flag bits, which
 * is how the paper reaches < 1 byte per instruction. The encoding is
 * exactly invertible on capture-shaped records (compress/record_gen.h):
 * tests assert decode(encode(trace)) == trace.
 *
 * Stream grammar per record (bit-granular, LSB-first):
 *   kind      : 1 bit   (0 = instruction event, 1 = annotation event)
 *   tid       : 1 bit hit, or 0-bit + 16-bit literal
 *  instruction events:
 *   pc        : '0' sequential hit | '10' context hit
 *               | '11' + varint(zigzag(pc - base))
 *   static    : '1' hit | '0' + opcode(6) rd(5) rs1(5) rs2(5)
 *   payload (derived from opcode class):
 *     load/store   : '0' stride hit | '10' last hit
 *                    | '11' + varint(zigzag(addr - base))
 *     control      : taken(1); if taken:
 *                    '1' target hit | '0' + varint(zigzag(target - pc))
 *     other        : (nothing)
 *  annotation events:
 *   type      : 3 bits
 *   addr, aux : varint(zigzag(delta vs per-type last value))
 * The smallest record is 4 bits (kind, tid hit, sequential pc, static
 * hit), so a payload of B bytes holds at most 2*B records.
 *
 * Streaming contract. The Encoder is push-record / pull-bytes:
 *
 *   encoder.append(record);                  // any number of times
 *   n = encoder.pull(buf, max);              // drain finalized bytes
 *   encoder.finishStream();                  // seal (flush partial byte)
 *
 * pull() may be called at any point, so a transport can ship
 * partially-encoded streams without waiting for the end of the run;
 * every byte but the trailing partial one is final as soon as written.
 *
 * The Decoder is push-bytes / pull-records, built for *untrusted*
 * input:
 *
 *   decoder.push(chunk, n);                  // any chunking, any time
 *   switch (decoder.next(&record)) { ... }   // kOk | kNeedMore | ...
 *   decoder.finishInput();                   // no more bytes will come
 *
 * next() never aborts, never reads out of bounds, and never returns a
 * half-applied record: a record that cannot be completed from the
 * buffered bytes rolls the stream position back and returns kNeedMore
 * (kError{kTruncated} once finishInput() was called), leaving the
 * decoder state exactly as before the attempt. Malformed input —
 * impossible predictor hits, out-of-range literals, overlong varints —
 * yields a sticky kError with a typed DecodeError, not UB and not a
 * panic. fuzz/ drives both sides through these paths.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/bitstream.h"
#include "compress/predictors.h"
#include "log/event.h"

namespace lba::compress {

/** The codec's name, as written in trace-file v2 headers. */
inline constexpr const char* kCodecName = "predictor";

/** Why a decode failed (the typed, recoverable error model). */
enum class DecodeErrorKind : std::uint8_t
{
    kNone = 0,
    /** Input ended in the middle of a record. */
    kTruncated,
    /** Structurally invalid input (bad literal, impossible flag). */
    kMalformed,
    /** Well-formed input demanding absurd resources (length bombs). */
    kLimitExceeded,
    /** Unknown codec / version / container field. */
    kUnsupported,
    /** Underlying file or stream I/O failure. */
    kIo,
};

/** Printable name of a DecodeErrorKind. */
const char* decodeErrorKindName(DecodeErrorKind kind);

/** A typed decode error: what went wrong, where, and a human message. */
struct DecodeError
{
    DecodeErrorKind kind = DecodeErrorKind::kNone;
    /** Byte offset into the encoded stream (best effort). */
    std::uint64_t offset = 0;
    std::string message;

    bool ok() const { return kind == DecodeErrorKind::kNone; }

    /** "kind @offset: message" for logs and CLI output. */
    std::string toString() const;

    static DecodeError
    make(DecodeErrorKind kind, std::uint64_t offset, std::string message)
    {
        return DecodeError{kind, offset, std::move(message)};
    }
};

/** Result of one Decoder::next() pull. */
enum class DecodeStatus : std::uint8_t
{
    /** A record was decoded into *out. */
    kOk = 0,
    /** Clean end of stream (only sub-record padding bits remain). */
    kEnd,
    /** The buffered input does not contain a complete record yet. */
    kNeedMore,
    /** Decoding failed; see Decoder::error(). Sticky. */
    kError,
};

/** Predictor state shared (by construction) between the two ends. */
struct PredictorBank
{
    PcPredictor pc;
    StaticPredictor stat;
    StridePredictor mem_addr;
    TargetPredictor ctrl_target;

    /** Per-annotation-type last payload values. */
    struct AnnotationLast
    {
        Addr addr = 0;
        std::uint64_t aux = 0;
    };
    AnnotationLast annotation[8];

    ThreadId last_tid = 0;
    bool tid_seen = false;
};

/** Per-field bit accounting for the compression-breakdown benchmark. */
struct FieldBits
{
    std::uint64_t kind = 0;
    std::uint64_t tid = 0;
    std::uint64_t pc = 0;
    std::uint64_t stat = 0;
    std::uint64_t addr = 0;
    std::uint64_t ctrl = 0;
    std::uint64_t annotation = 0;
};

/**
 * Streaming encoder: push records, pull finalized bytes.
 *
 * Deterministic — identical record streams yield identical bytes —
 * which is what lets transport accounting charge exact per-record bit
 * costs (core/pipeline_timer.h).
 */
class Encoder
{
  public:
    /**
     * Compress one record onto the stream. Out of line, like
     * BitWriter::writeBits, so GCC inlines every single-bit flag write
     * into this one body (encode measured ~30% slower when it did not).
     */
    void append(const log::EventRecord& record);

    /**
     * Seal the stream: the partial trailing byte becomes pullable.
     * No append() after this.
     */
    void finishStream() { finished_ = true; }

    /** Records compressed so far. */
    std::uint64_t records() const { return records_; }

    /** Total encoded size so far, in bits (bandwidth accounting). */
    std::uint64_t bitsWritten() const { return writer_.bitCount(); }

    /** Average encoded size, in bytes per record. */
    double
    bytesPerRecord() const
    {
        return records_ ? static_cast<double>(bitsWritten()) / 8.0 /
                              static_cast<double>(records_)
                        : 0.0;
    }

    /**
     * Copy up to @p max finalized encoded bytes into @p out and
     * advance the pull cursor past them.
     * @return Bytes copied (0 when nothing is finalized yet).
     */
    std::size_t pull(std::uint8_t* out, std::size_t max);

    /** Finalized bytes currently available to pull(). */
    std::size_t pullableBytes() const;

    /** Per-field bit breakdown. */
    const FieldBits& fieldBits() const { return field_bits_; }

  private:
    PredictorBank bank_;
    BitWriter writer_;
    std::uint64_t records_ = 0;
    FieldBits field_bits_;
    /** Bytes already handed out through pull(). */
    std::size_t pulled_ = 0;
    bool finished_ = false;
};

/**
 * Streaming decoder over untrusted bytes: push chunks, pull records.
 * See the file comment for the contract. It holds only the bytes from
 * the current record boundary on: push() first drops the whole bytes
 * already decoded, so a stream fed in chunks costs one chunk (plus a
 * partial record) of memory, not the stream. Neither copyable nor
 * movable: its BitReader refers to the buffer it owns.
 */
class Decoder
{
  public:
    Decoder() : reader_(buffer_) {}
    Decoder(const Decoder&) = delete;
    Decoder& operator=(const Decoder&) = delete;

    /** Feed @p n more encoded bytes (any chunking, including n = 0).
     *  Bytes before the current record boundary are released first. */
    void push(const std::uint8_t* data, std::size_t n);

    /**
     * Declare the input complete: a subsequent mid-record kNeedMore
     * becomes kError{kTruncated}; a record-boundary end becomes kEnd.
     */
    void finishInput() { input_done_ = true; }

    /** Decode the next record. */
    DecodeStatus next(log::EventRecord* out);

    /** The sticky error after a kError result. */
    const DecodeError& error() const { return error_; }

    /** Records decoded so far. */
    std::uint64_t records() const { return records_; }

  private:
    /**
     * Decode one record in two phases: read and validate every field
     * against the current bank, then commit the bank updates. Any
     * early exit — kNeedMore on underrun, kError (error_ set) on a
     * malformed encoding — rewinds to the record boundary and leaves
     * the bank untouched.
     */
    DecodeStatus decodeRecord(log::EventRecord* out);

    /** Absolute stream offset of the reader's current byte. */
    std::uint64_t
    offset() const
    {
        return dropped_ + reader_.bitPos() / 8;
    }

    /** The undecoded tail of the stream, from byte dropped_ on. */
    std::vector<std::uint8_t> buffer_;
    /** Bytes released from the front of the stream so far. */
    std::uint64_t dropped_ = 0;
    BitReader reader_;
    PredictorBank bank_;
    DecodeError error_;
    std::uint64_t records_ = 0;
    bool input_done_ = false;
};

} // namespace lba::compress
