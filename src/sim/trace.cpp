#include "sim/trace.hpp"

#include <cstdio>
#include <sstream>

#include "common/json.hpp"

namespace narma::sim {

std::string Tracer::to_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& fields) {
    if (!first) os << ',';
    first = false;
    os << '{' << fields << '}';
  };

  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    emit("\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(r) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"rank " +
         std::to_string(r) + "\"}");
    for (const auto& e : ranks_[r]) {
      const std::string common =
          "\"pid\":0,\"tid\":" + std::to_string(r) +
          ",\"cat\":" + json::quote(e.category) +
          ",\"name\":" + json::quote(e.name) +
          ",\"ts\":" + std::to_string(to_us(e.begin));
      switch (e.kind) {
        case Kind::kSpan:
          emit("\"ph\":\"X\"," + common +
               ",\"dur\":" + std::to_string(to_us(e.end - e.begin)));
          break;
        case Kind::kFlowStart:
          emit("\"ph\":\"s\",\"id\":" + std::to_string(e.flow_id) + "," +
               common);
          break;
        case Kind::kFlowEnd:
          emit("\"ph\":\"f\",\"bp\":\"e\",\"id\":" +
               std::to_string(e.flow_id) + "," + common);
          break;
        case Kind::kCounter: {
          char v[32];
          std::snprintf(v, sizeof(v), "%.17g", e.value);
          emit("\"ph\":\"C\"," + common + ",\"args\":{\"value\":" + v + "}");
          break;
        }
      }
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace narma::sim
