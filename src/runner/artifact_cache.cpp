#include "runner/artifact_cache.hpp"

namespace icsdiv::runner {

namespace {

// Every counter and every stage with its wire name, in wire order.
// to_json, from_json and += each walk these lists, so a field cannot be
// left out of one of them.
template <typename Visit>
void for_each_counter(Visit&& visit) {
  visit("planned", &StageCounters::planned);
  visit("executed", &StageCounters::executed);
  visit("hits", &StageCounters::hits);
  visit("evicted", &StageCounters::evicted);
  visit("disk_hits", &StageCounters::disk_hits);
  visit("disk_writes", &StageCounters::disk_writes);
}

template <typename Visit>
void for_each_stage(Visit&& visit) {
  visit("workload", &StageStats::workload);
  visit("problem", &StageStats::problem);
  visit("solve", &StageStats::solve);
  visit("channels", &StageStats::channels);
  visit("attack", &StageStats::attack);
  visit("metric", &StageStats::metric);
}

}  // namespace

StageCounters& StageCounters::operator+=(const StageCounters& other) {
  for_each_counter([&](const char*, auto field) { this->*field += other.*field; });
  return *this;
}

support::Json StageCounters::to_json() const {
  support::JsonObject object;
  for_each_counter([&](const char* name, auto field) { object.set(name, this->*field); });
  return object;
}

StageCounters StageCounters::from_json(const support::Json& json) {
  const support::JsonObject& object = json.as_object();
  StageCounters counters;
  for_each_counter([&](const char* name, auto field) {
    counters.*field = static_cast<std::size_t>(object.at(name).as_integer());
  });
  return counters;
}

StageStats& StageStats::operator+=(const StageStats& other) {
  for_each_stage([&](const char*, auto stage) { this->*stage += other.*stage; });
  return *this;
}

support::Json StageStats::to_json() const {
  support::JsonObject object;
  for_each_stage([&](const char* name, auto stage) { object.set(name, (this->*stage).to_json()); });
  return object;
}

StageStats StageStats::from_json(const support::Json& json) {
  const support::JsonObject& object = json.as_object();
  StageStats stats;
  for_each_stage([&](const char* name, auto stage) {
    stats.*stage = StageCounters::from_json(object.at(name));
  });
  return stats;
}

}  // namespace icsdiv::runner
