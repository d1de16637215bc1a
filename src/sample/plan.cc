#include "sample/plan.hh"

#include <limits>
#include <sstream>

#include "common/flags.hh"
#include "common/log.hh"

namespace oscache
{
namespace sample
{

std::optional<std::uint64_t>
tryParseCount(std::string_view text)
{
    std::uint64_t scale = 1;
    switch (text.empty() ? '\0' : text.back()) {
      case 'k': case 'K': scale = 1'000; break;
      case 'm': case 'M': scale = 1'000'000; break;
      case 'g': case 'G': scale = 1'000'000'000; break;
      default: break;
    }
    if (scale != 1)
        text.remove_suffix(1);
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    if (const auto n = tryParseNumber<std::uint64_t>(text)) {
        if (*n > max / scale)
            return std::nullopt;
        return *n * scale;
    }
    const auto value = tryParseNumber<double>(text);
    // 2^64, the first double past the largest count.
    if (!value || *value < 0 || *value * double(scale) >= 0x1p64)
        return std::nullopt;
    return std::uint64_t(*value * double(scale));
}

std::uint64_t
parseCount(const std::string &text)
{
    const auto count = tryParseCount(text);
    if (!count)
        fatal("sampling plan: bad count '", text, "'");
    return *count;
}

namespace
{

std::string
compact(std::uint64_t n)
{
    std::ostringstream os;
    if (n >= 1'000'000 && n % 1'000'000 == 0)
        os << n / 1'000'000 << "m";
    else if (n >= 1'000 && n % 1'000 == 0)
        os << n / 1'000 << "k";
    else
        os << n;
    return os.str();
}

} // namespace

std::string
SamplingPlan::describe() const
{
    std::ostringstream os;
    os << compact(warmup) << "+" << compact(measure) << " of "
       << compact(period);
    if (targetError > 0)
        os << " (target ±" << targetError * 100 << "%)";
    return os.str();
}

std::optional<SamplingPlan>
SamplingPlan::tryParse(const std::string &text, std::string *error)
{
    const auto reject = [error](std::string why) {
        if (error != nullptr)
            *error = std::move(why);
        return std::nullopt;
    };
    SamplingPlan plan;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return reject("expected key=value, got '" + item + "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "error") {
            const auto error_bound = tryParseNumber<double>(value);
            if (!error_bound || *error_bound < 0)
                return reject("bad value '" + value + "' for error");
            plan.targetError = *error_bound;
            continue;
        }
        const auto parsed = tryParseCount(value);
        if (!parsed || (key == "rounds" &&
                        *parsed > std::numeric_limits<unsigned>::max()))
            return reject("bad count '" + value + "' for " + key);
        const std::uint64_t count = *parsed;
        if (key == "period")
            plan.period = count;
        else if (key == "measure")
            plan.measure = count;
        else if (key == "warmup")
            plan.warmup = count;
        else if (key == "rounds")
            plan.maxRounds = unsigned(count);
        else if (key == "spinbreak")
            plan.spinBreak = count;
        else
            return reject("unknown key '" + key + "'");
    }
    if (!plan.valid())
        return reject("need measure > 0 and warmup + measure <= period "
                      "(got " + plan.describe() + ")");
    return plan;
}

SamplingPlan
SamplingPlan::parse(const std::string &text)
{
    std::string error;
    const auto plan = tryParse(text, &error);
    if (!plan.has_value())
        fatal("sampling plan: ", error);
    return *plan;
}

} // namespace sample
} // namespace oscache
