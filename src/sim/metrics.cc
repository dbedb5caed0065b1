#include "src/sim/metrics.h"

#include "src/common/json_fields.h"

namespace memtis {

std::string Metrics::ToJson(int indent) const {
  std::string out;
  JsonWriter w(&out, indent);
  WriteJson(w, /*include_timeline=*/true);
  return out;
}

void Metrics::WriteJson(JsonWriter& w, bool include_timeline) const {
  EncodeJson(w, *this, include_timeline ? "" : "timeline");
}

}  // namespace memtis
