#include "verify/backends/registry.h"

#include <stdexcept>

#include "verify/backends/fujita_backend.h"
#include "verify/backends/lil_backend.h"
#include "verify/backends/map_backend.h"

namespace sani::verify {

namespace {

std::unique_ptr<Backend> make_lil(const BackendContext& ctx) {
  return std::make_unique<LilBackend>(ctx);
}

std::unique_ptr<Backend> make_map(const BackendContext& ctx) {
  return std::make_unique<MapBackend>(ctx, MapBackend::Check::kRegion);
}

std::unique_ptr<Backend> make_mapi(const BackendContext& ctx) {
  return std::make_unique<MapBackend>(ctx, MapBackend::Check::kAdd);
}

std::unique_ptr<Backend> make_fujita(const BackendContext& ctx) {
  return std::make_unique<FujitaBackend>(ctx);
}

std::unique_ptr<Backend> make_direct(const BackendContext& ctx) {
  return std::make_unique<MapBackend>(ctx, MapBackend::Check::kDirect);
}

}  // namespace

const std::vector<BackendInfo>& backend_registry() {
  static const std::vector<BackendInfo> registry = {
      {EngineKind::kLIL, "lil",
       "list-of-lists convolution + list-scan verification [11]",
       /*needs_region=*/true, /*needs_thaw=*/false, /*needs_spectra=*/true,
       /*needs_lil=*/true, /*frozen_fns=*/false, /*frozen_spectra=*/false,
       &make_lil},
      {EngineKind::kMAP, "map",
       "hash-map convolution + map-scan verification",
       /*needs_region=*/true, /*needs_thaw=*/false, /*needs_spectra=*/true,
       /*needs_lil=*/false, /*frozen_fns=*/false, /*frozen_spectra=*/false,
       &make_map},
      {EngineKind::kMAPI, "mapi",
       "hash-map convolution + ADD verification (the paper's method)",
       /*needs_region=*/true, /*needs_thaw=*/true, /*needs_spectra=*/true,
       /*needs_lil=*/false, /*frozen_fns=*/false, /*frozen_spectra=*/true,
       &make_mapi},
      {EngineKind::kFUJITA, "fujita",
       "per-combination Fujita transform + ADD verification",
       /*needs_region=*/true, /*needs_thaw=*/true, /*needs_spectra=*/false,
       /*needs_lil=*/false, /*frozen_fns=*/true, /*frozen_spectra=*/false,
       &make_fujita},
      {EngineKind::kDIRECT, "direct",
       "flat convolution + one coefficient-check pass per row (default)",
       /*needs_region=*/false, /*needs_thaw=*/false, /*needs_spectra=*/true,
       /*needs_lil=*/false, /*frozen_fns=*/false, /*frozen_spectra=*/false,
       &make_direct},
  };
  return registry;
}

const BackendInfo& backend_info(EngineKind kind) {
  for (const BackendInfo& info : backend_registry())
    if (info.kind == kind) return info;
  throw std::logic_error("backend_info: unregistered engine kind");
}

const BackendInfo* backend_by_name(const std::string& name) {
  for (const BackendInfo& info : backend_registry())
    if (name == info.name) return &info;
  return nullptr;
}

std::string backend_name_list() {
  std::string out;
  for (const BackendInfo& info : backend_registry()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

}  // namespace sani::verify
