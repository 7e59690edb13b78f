#include "core/serialization.hpp"

namespace icsdiv::core {

namespace {

/// Polls the decode's token on every 1,024th item, the first included.
void check_decode(const support::CancelToken& cancel, std::size_t item) {
  if (item % 1024 == 0) cancel.check("model.decode");
}

}  // namespace

support::Json catalog_to_json(const ProductCatalog& catalog) {
  support::JsonArray services;
  for (ServiceId service = 0; service < catalog.service_count(); ++service) {
    support::JsonObject service_object;
    service_object.set("name", support::Json(catalog.service(service).name));

    support::JsonArray products;
    const auto& ids = catalog.products_of(service);
    for (ProductId id : ids) products.emplace_back(catalog.product(id).name);
    service_object.set("products", support::Json(std::move(products)));

    support::JsonArray similarities;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        const double value = catalog.similarity(ids[i], ids[j]);
        if (value <= 0.0) continue;
        support::JsonObject pair;
        pair.set("a", support::Json(catalog.product(ids[i]).name));
        pair.set("b", support::Json(catalog.product(ids[j]).name));
        pair.set("value", support::Json(value));
        similarities.emplace_back(std::move(pair));
      }
    }
    service_object.set("similarity", support::Json(std::move(similarities)));
    services.emplace_back(std::move(service_object));
  }
  support::JsonObject root;
  root.set("format", support::Json("icsdiv-catalog"));
  root.set("services", support::Json(std::move(services)));
  return support::Json(std::move(root));
}

ProductCatalog catalog_from_json(const support::Json& json) {
  ProductCatalog catalog;
  const auto& root = json.as_object();
  for (const support::Json& service_json : root.at("services").as_array()) {
    const auto& service_object = service_json.as_object();
    const ServiceId service = catalog.add_service(service_object.at("name").as_string());
    for (const support::Json& product : service_object.at("products").as_array()) {
      catalog.add_product(service, product.as_string());
    }
    if (const support::Json* similarities = service_object.find("similarity")) {
      for (const support::Json& pair_json : similarities->as_array()) {
        const auto& pair = pair_json.as_object();
        catalog.set_similarity(catalog.product_id(service, pair.at("a").as_string()),
                               catalog.product_id(service, pair.at("b").as_string()),
                               pair.at("value").as_double());
      }
    }
  }
  return catalog;
}

support::Json network_to_json(const Network& network) {
  const ProductCatalog& catalog = network.catalog();
  support::JsonArray hosts;
  for (HostId host = 0; host < network.host_count(); ++host) {
    support::JsonObject host_object;
    host_object.set("name", support::Json(network.host_name(host)));
    support::JsonArray services;
    for (const ServiceInstance& instance : network.services_of(host)) {
      support::JsonObject instance_object;
      instance_object.set("service", support::Json(catalog.service(instance.service).name));
      support::JsonArray candidates;
      for (ProductId candidate : instance.candidates) {
        candidates.emplace_back(catalog.product(candidate).name);
      }
      instance_object.set("candidates", support::Json(std::move(candidates)));
      services.emplace_back(std::move(instance_object));
    }
    host_object.set("services", support::Json(std::move(services)));
    hosts.emplace_back(std::move(host_object));
  }

  support::JsonArray links;
  for (const graph::Edge& edge : network.topology().edges()) {
    support::JsonArray pair;
    pair.emplace_back(network.host_name(edge.u));
    pair.emplace_back(network.host_name(edge.v));
    links.emplace_back(std::move(pair));
  }

  support::JsonObject root;
  root.set("format", support::Json("icsdiv-network"));
  root.set("hosts", support::Json(std::move(hosts)));
  root.set("links", support::Json(std::move(links)));
  return support::Json(std::move(root));
}

Network network_from_json(const ProductCatalog& catalog, const support::Json& json,
                          const support::CancelToken& cancel) {
  Network network(catalog);
  const auto& root = json.as_object();
  const auto& hosts = root.at("hosts").as_array();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    check_decode(cancel, i);
    const auto& host_object = hosts[i].as_object();
    const HostId host = network.add_host(host_object.at("name").as_string());
    for (const support::Json& instance_json : host_object.at("services").as_array()) {
      const auto& instance = instance_json.as_object();
      const ServiceId service = catalog.service_id(instance.at("service").as_string());
      std::vector<ProductId> candidates;
      for (const support::Json& candidate : instance.at("candidates").as_array()) {
        candidates.push_back(catalog.product_id(service, candidate.as_string()));
      }
      network.add_service(host, service, std::move(candidates));
    }
  }
  const auto& links = root.at("links").as_array();
  for (std::size_t i = 0; i < links.size(); ++i) {
    check_decode(cancel, i);
    const auto& pair = links[i].as_array();
    require(pair.size() == 2, "network_from_json", "links must be [from, to] pairs");
    network.add_link(network.host_id(pair[0].as_string()),
                     network.host_id(pair[1].as_string()));
  }
  return network;
}

}  // namespace icsdiv::core
