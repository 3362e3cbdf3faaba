#pragma once
/**
 * @file
 * CodecRegistry: a name lookup for the one log codec. It exists only
 * because perfbench/perfbench.cc compiles against
 * `CodecRegistry::instance().find(kDefaultCodec)->makeEncoder()`;
 * everything else constructs compress::Encoder directly. Delete it once
 * perfbench does the same.
 */

#include <memory>
#include <string>

#include "compress/codec.h"

namespace lba::compress {

/** The codec name perfbench looks up. */
inline constexpr const char* kDefaultCodec = kCodecName;

/** The codec's registry entry: a fresh-encoder factory. */
struct CodecInfo
{
    std::unique_ptr<Encoder> makeEncoder() const
    {
        return std::make_unique<Encoder>();
    }
};

/** Finds kDefaultCodec; any other name is unknown. */
class CodecRegistry
{
  public:
    static const CodecRegistry&
    instance()
    {
        static const CodecRegistry registry;
        return registry;
    }

    /** The codec's entry, or nullptr for any other name. */
    const CodecInfo*
    find(const std::string& name) const
    {
        return name == kDefaultCodec ? &codec_ : nullptr;
    }

  private:
    CodecRegistry() = default;

    CodecInfo codec_;
};

} // namespace lba::compress
