#include "checks.h"

#include <array>
#include <map>

#include "graph/isomorphism.h"

namespace perfbench {

void Checker::Fail(const std::string& message) {
  ++failures_;
  if (messages_.size() < 16) messages_.push_back(message);
}

void CheckCount(const char* what, const std::string& id, uint64_t expected,
                uint64_t got, Checker* checker) {
  if (got == expected) return;
  checker->Fail(id + ": " + std::to_string(got) + " embeddings, " + what +
                " says " + std::to_string(expected));
}

void CheckVariantOrder(const std::vector<CountedQuery>& queries,
                       Checker* checker) {
  // pattern key -> {E, V, H} counts, -1 when the variant is absent.
  std::map<std::string, std::array<int64_t, 3>> by_pattern;
  for (const CountedQuery& q : queries) {
    auto [it, inserted] =
        by_pattern.try_emplace(q.pattern_key, std::array<int64_t, 3>{-1, -1, -1});
    it->second[static_cast<int>(q.variant)] = static_cast<int64_t>(q.count);
  }
  for (const auto& [key, c] : by_pattern) {
    const int64_t e = c[static_cast<int>(csce::MatchVariant::kEdgeInduced)];
    const int64_t v = c[static_cast<int>(csce::MatchVariant::kVertexInduced)];
    const int64_t h = c[static_cast<int>(csce::MatchVariant::kHomomorphic)];
    if (e < 0 || v < 0 || h < 0) continue;
    if (!(h >= e && e >= v)) {
      checker->Fail(key + ": variant order broken, H=" + std::to_string(h) +
                    " E=" + std::to_string(e) + " V=" + std::to_string(v));
    }
  }
}

void CheckAutomorphismDivisibility(const std::vector<CountedQuery>& queries,
                                   Checker* checker) {
  for (const CountedQuery& q : queries) {
    if (q.automorphisms == 0 ||
        q.variant == csce::MatchVariant::kHomomorphic) {
      continue;
    }
    if (q.count % q.automorphisms != 0) {
      checker->Fail(q.id + ": " + std::to_string(q.count) +
                    " embeddings, not a multiple of |Aut| = " +
                    std::to_string(q.automorphisms));
    }
  }
}

uint64_t CheapAutomorphismCount(const csce::Graph& p, uint64_t limit) {
  const uint64_t n = csce::EnumerateIsomorphisms(p, p, limit + 1).size();
  return n > limit ? 0 : n;
}

}  // namespace perfbench
