// detlint selftest fixture: every `unordered` violation here is
// deliberate, one per way a hash container can enter a TU; each sits on a
// line marked VIOLATION. This TU is never compiled by the main build.

#include <cstdint>
#include <unordered_set>  // VIOLATION: bare include

using SeenSet = std::unordered_set<std::uint64_t>;  // VIOLATION: alias

struct Cache {
  std::unordered_map<int, double> byKey;  // VIOLATION: member
};

inline std::size_t total(const std::unordered_multimap<int, int>& m) {  // VIOLATION: parameter
  std::unordered_multiset<int> local;  // VIOLATION: local
  return m.size() + local.size();
}
