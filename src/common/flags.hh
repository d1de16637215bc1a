/**
 * @file
 * Strict command-line flag values.
 *
 * The CLIs walk argv by hand; this header gives them one way to take
 * a flag's value and one number grammar.  A number is the whole
 * string: decimal digits for an unsigned type (no sign, space or
 * suffix) or a finite decimal for double, inside the target type's
 * range.  Anything else is a fatal() that names the flag, never an
 * uncaught exception and never a silent zero.
 */

#ifndef OSCACHE_COMMON_FLAGS_HH
#define OSCACHE_COMMON_FLAGS_HH

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/log.hh"

namespace oscache
{

/**
 * All of @p text as a @p T (an unsigned integer type or double), or
 * nullopt when it is empty, malformed, out of range, or not finite.
 */
template <typename T>
std::optional<T>
tryParseNumber(std::string_view text)
{
    static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>);
    if (text.empty())
        return std::nullopt;
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    if constexpr (std::is_same_v<T, double>) {
        if (!std::isfinite(value))
            return std::nullopt;
    }
    return value;
}

/**
 * One pass over argv.  next() steps to each argument in turn; a flag
 * that takes a value reads it with value(), number() or parsed(),
 * which consume the argument after it.
 */
class FlagReader
{
  public:
    /** Read @p argv from index @p first on. */
    FlagReader(int argc, char **argv, int first = 1)
        : count(argc), args(argv), index(first - 1)
    {}

    /** Step to the next argument; false once they are used up. */
    bool
    next()
    {
        if (++index >= count)
            return false;
        current = args[index];
        return true;
    }

    /** The argument next() stepped to. */
    const std::string &flag() const { return current; }

    /** The flag's value (the next argument); fatal() when missing. */
    std::string
    value()
    {
        if (index + 1 >= count)
            fatal("flag ", current, " needs a value");
        return args[++index];
    }

    /**
     * The flag's value through @p parse, a string → optional
     * function; fatal() naming the flag and what it @p wants when
     * @p parse yields nullopt.
     */
    template <typename Parse>
    auto
    parsed(Parse parse, const std::string &wants)
    {
        const std::string text = value();
        const auto result = parse(text);
        if (!result)
            fatal("flag ", current, " wants ", wants, ", got '", text,
                  "'");
        return *result;
    }

    /**
     * The flag's value as a @p T (see tryParseNumber()); fatal()
     * naming the flag when it is not one, or is below @p min.
     */
    template <typename T>
    T
    number(T min = 0)
    {
        std::string wants = "a finite number";
        if constexpr (std::is_unsigned_v<T>)
            wants = detail::concat("a whole number in 0..",
                                   std::numeric_limits<T>::max());
        const T n = parsed(tryParseNumber<T>, wants);
        if (n < min)
            fatal(current, " must be >= ", min);
        return n;
    }

  private:
    int count;
    char **args;
    int index;
    std::string current;
};

} // namespace oscache

#endif // OSCACHE_COMMON_FLAGS_HH
