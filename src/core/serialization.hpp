// JSON (de)serialisation of catalogs and networks.
//
// Lets downstream users describe their plant in a data file instead of
// C++: a catalog document carries services, products and the similarity
// values (typically exported from an nvd::SimilarityTable); a network
// document carries hosts, their services with candidate products, and
// links.  `examples/nvd_pipeline` writes these artefacts; Assignment
// already round-trips via Assignment::to_json/from_json.
//
// Schema (catalog):
//   {"services": [{"name": "OS",
//                  "products": ["Win7", ...],
//                  "similarity": [{"a": "Win7", "b": "WinXP2", "value": 0.278}, ...]}]}
// Schema (network):
//   {"hosts": [{"name": "c1",
//               "services": [{"service": "OS", "candidates": ["Win7", ...]}]}],
//    "links": [["c1", "c2"], ...]}
//
// Decoding is linear in the document.  network_from_json polls `cancel`
// with check("model.decode") on the first and every 1,024th host and link,
// so a request deadline also bounds the decode of a large plant
// (DESIGN.md §11); a catalog is small and decodes without polling.
#pragma once

#include "core/network.hpp"
#include "support/cancel.hpp"
#include "support/json.hpp"

namespace icsdiv::core {

[[nodiscard]] support::Json catalog_to_json(const ProductCatalog& catalog);
[[nodiscard]] ProductCatalog catalog_from_json(const support::Json& json);

/// Serialises hosts/services/candidates/links; the catalog is referenced
/// by name and must be supplied again on load.
[[nodiscard]] support::Json network_to_json(const Network& network);
[[nodiscard]] Network network_from_json(const ProductCatalog& catalog, const support::Json& json,
                                        const support::CancelToken& cancel = {});

}  // namespace icsdiv::core
