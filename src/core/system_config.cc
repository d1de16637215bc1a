#include "core/system_config.hh"

#include "common/log.hh"
#include "common/names.hh"

namespace oscache
{

const char *
toString(SystemKind kind)
{
    switch (kind) {
      case SystemKind::Base:      return "Base";
      case SystemKind::BlkPref:   return "Blk_Pref";
      case SystemKind::BlkBypass: return "Blk_Bypass";
      case SystemKind::BlkByPref: return "Blk_ByPref";
      case SystemKind::BlkDma:    return "Blk_Dma";
      case SystemKind::BCohReloc: return "BCoh_Reloc";
      case SystemKind::BCohRelUp: return "BCoh_RelUp";
      case SystemKind::BCPref:    return "BCPref";
    }
    panic("unknown SystemKind");
}

std::optional<SystemKind>
parseSystemKind(std::string_view name)
{
    for (SystemKind kind : allSystems)
        if (matchesDisplayName(name, toString(kind)))
            return kind;
    return std::nullopt;
}

SystemSetup
SystemSetup::forKind(SystemKind kind)
{
    SystemSetup setup;
    switch (kind) {
      case SystemKind::Base:
        break;
      case SystemKind::BlkPref:
        setup.blockScheme = BlockScheme::Pref;
        break;
      case SystemKind::BlkBypass:
        setup.blockScheme = BlockScheme::Bypass;
        break;
      case SystemKind::BlkByPref:
        setup.blockScheme = BlockScheme::ByPref;
        break;
      case SystemKind::BlkDma:
        setup.blockScheme = BlockScheme::Dma;
        break;
      case SystemKind::BCohReloc:
        setup.blockScheme = BlockScheme::Dma;
        setup.coherence = CoherenceOptions::reloc();
        break;
      case SystemKind::BCohRelUp:
        setup.blockScheme = BlockScheme::Dma;
        setup.coherence = CoherenceOptions::relocUpdate();
        break;
      case SystemKind::BCPref:
        setup.blockScheme = BlockScheme::Dma;
        setup.coherence = CoherenceOptions::relocUpdate();
        setup.hotspotPrefetch = true;
        break;
    }
    return setup;
}

} // namespace oscache
