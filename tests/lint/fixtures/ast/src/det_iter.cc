// Fixture: deterministic-iteration.
//
// Unordered-container iteration inside a function that can reach a
// result sink (directly or transitively) must be flagged; iteration off
// the sink path must not; an allow-comment suppresses a justified case.
// Self-contained: it includes only standard headers.
#include <string>
#include <unordered_map>
#include <unordered_set>

class Status {
 public:
  bool ok() const { return true; }
};

Status WriteTextFile(const std::string& path, const std::string& content);

namespace fixture {

Status EmitDirect(const std::unordered_map<int, int>& histogram) {
  std::string out;
  for (const auto& kv : histogram) {  // expect(deterministic-iteration)
    out += std::to_string(kv.first);
  }
  return WriteTextFile("out.txt", out);
}

Status ForwardToSink(const std::string& body) {
  return WriteTextFile("out.txt", body);
}

Status EmitTransitive() {
  std::unordered_set<int> ids;
  std::string out;
  for (int id : ids) {  // expect(deterministic-iteration)
    out += std::to_string(id);
  }
  return ForwardToSink(out);
}

int CountOnly() {
  std::unordered_set<int> ids;
  int total = 0;
  for (int id : ids) total += id;  // off the sink path: not flagged
  return total;
}

Status EmitAllowed(const std::unordered_map<int, int>& histogram) {
  std::string out;
  // Order-insensitive aggregation, justified suppression:
  for (const auto& kv : histogram) {  // ssjoin-lint: allow(deterministic-iteration)
    out += std::to_string(kv.first + kv.second);
  }
  return WriteTextFile("out.txt", out);
}

}  // namespace fixture
