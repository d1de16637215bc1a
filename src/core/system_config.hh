/**
 * @file
 * The named system configurations evaluated in the paper.
 *
 * Figure 3 compares eight systems; the later ones stack the earlier
 * optimizations (BCoh_Reloc = Blk_Dma + privatization/relocation,
 * BCoh_RelUp adds selective update, BCPref adds hot-spot prefetch).
 */

#ifndef OSCACHE_CORE_SYSTEM_CONFIG_HH
#define OSCACHE_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/blockop/schemes.hh"
#include "core/cohopt.hh"

namespace oscache
{

/** The systems of Figures 2-5. */
enum class SystemKind : std::uint8_t
{
    Base,
    BlkPref,
    BlkBypass,
    BlkByPref,
    BlkDma,
    BCohReloc,
    BCohRelUp,
    BCPref,
};

/** Paper-style name of a system. */
const char *toString(SystemKind kind);

/** Every system, in the paper's presentation order. */
inline constexpr SystemKind allSystems[] = {
    SystemKind::Base,      SystemKind::BlkPref,   SystemKind::BlkBypass,
    SystemKind::BlkByPref, SystemKind::BlkDma,    SystemKind::BCohReloc,
    SystemKind::BCohRelUp, SystemKind::BCPref,
};

/**
 * The system whose toString() name is @p name, matched ignoring case
 * and optionally without its '_' ("blk_dma", "BlkDma", "bcpref");
 * nullopt when none is.
 */
std::optional<SystemKind> parseSystemKind(std::string_view name);

/** Full recipe for assembling one simulated system. */
struct SystemSetup
{
    BlockScheme blockScheme = BlockScheme::Base;
    CoherenceOptions coherence = CoherenceOptions::none();
    bool hotspotPrefetch = false;

    /** The canonical stacked configuration for @p kind. */
    static SystemSetup forKind(SystemKind kind);
};

} // namespace oscache

#endif // OSCACHE_CORE_SYSTEM_CONFIG_HH
