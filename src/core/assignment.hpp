// Product assignments (Def. 3): α' maps every (host, service) to one of
// the service's candidate products; α collects a host's full tuple.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "support/json.hpp"

namespace icsdiv::core {

class Assignment {
 public:
  /// Creates an *empty* assignment for the network's current shape; every
  /// slot starts unassigned.
  explicit Assignment(const Network& network);

  /// α'(h, s) := p.  The product must be one of the slot's candidates.
  void assign(HostId host, ServiceId service, ProductId product);

  /// α'(h, s); nullopt when the slot exists but is unassigned.  Hosts not
  /// running the service throw NotFound.
  [[nodiscard]] std::optional<ProductId> product_of(HostId host, ServiceId service) const;

  [[nodiscard]] bool complete() const noexcept;

  /// Throws unless every slot is assigned a valid candidate.
  void validate() const;

  [[nodiscard]] const Network& network() const noexcept { return *network_; }

  /// Human-readable per-host listing ("h3: OS=Win7 WB=IE10").
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] support::Json to_json() const;
  /// Restores an assignment saved with to_json() onto the same network.
  static Assignment from_json(const Network& network, const support::Json& json);

  friend bool operator==(const Assignment& a, const Assignment& b) {
    return a.slots_ == b.slots_;
  }

 private:
  friend class SharedServices;  ///< reads slots_ in one pass (core/metrics.hpp)

  static constexpr ProductId kUnassigned = static_cast<ProductId>(-1);

  const Network* network_;
  /// slots_[host][slot] aligned with Network::services_of(host).
  std::vector<std::vector<ProductId>> slots_;
};

}  // namespace icsdiv::core
