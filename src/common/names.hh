/**
 * @file
 * Matching user-typed names against the paper-style display names the
 * enums' toString() functions return.
 */

#ifndef OSCACHE_COMMON_NAMES_HH
#define OSCACHE_COMMON_NAMES_HH

#include <cctype>
#include <string>
#include <string_view>

namespace oscache
{

/**
 * True iff @p name spells @p display, ignoring case, either as is or
 * with the '_' and '+' separators dropped ("trfd_4" and "trfd4" both
 * spell "TRFD_4"; "blk_dma" and "blkdma" both spell "Blk_Dma").
 */
inline bool
matchesDisplayName(std::string_view name, std::string_view display)
{
    const auto same = [](std::string_view a, std::string_view b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (std::tolower(static_cast<unsigned char>(a[i])) !=
                std::tolower(static_cast<unsigned char>(b[i])))
                return false;
        return true;
    };
    if (same(name, display))
        return true;
    std::string bare;
    for (char c : display)
        if (c != '_' && c != '+')
            bare += c;
    return same(name, bare);
}

} // namespace oscache

#endif // OSCACHE_COMMON_NAMES_HH
