#pragma once
/**
 * @file
 * Strict numeric argument parsing shared by the command-line tools.
 */

#include <charconv>
#include <cmath>
#include <string>
#include <type_traits>

namespace lba::tools {

/**
 * Parse a numeric argument: the whole of @p text must be one
 * non-negative decimal number representable in T (finite, for
 * floating point). Empty input, signs, trailing garbage and
 * out-of-range values are rejected, leaving @p out untouched.
 */
template <typename T>
bool
parseNumber(const std::string& text, T* out)
{
    T value{};
    const char* last = text.data() + text.size();
    auto [end, error] = std::from_chars(text.data(), last, value);
    if (text.empty() || error != std::errc{} || end != last) return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value) || std::signbit(value)) return false;
    }
    *out = value;
    return true;
}

} // namespace lba::tools
