// Correctness checks of the end-to-end benchmark. Each check compares
// counts the engine reported against a reference that does not come
// from CSCE: the BacktrackingMatcher oracle, the variant order
// H >= E >= V, automorphism divisibility, or counts taken before an
// update. They are plain functions over counts so `perfbench selftest`
// can feed them wrong counts and show that each one fires.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/variant.h"

namespace perfbench {

/// Collects check failures; a run is correct iff none fired.
class Checker {
 public:
  void Fail(const std::string& message);
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }
  /// The first few messages (later ones are only counted).
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// `got` must equal `expected`; `what` names the reference.
void CheckCount(const char* what, const std::string& id, uint64_t expected,
                uint64_t got, Checker* checker);

/// One counted query for the cross-query property checks.
struct CountedQuery {
  std::string id;
  /// Identifies the pattern: queries with equal keys share it.
  std::string pattern_key;
  csce::MatchVariant variant = csce::MatchVariant::kEdgeInduced;
  uint64_t count = 0;
  /// Label-preserving automorphisms of the pattern; 0 = not computed.
  uint64_t automorphisms = 0;
};

/// count(H) >= count(E) >= count(V) for every pattern that appears in
/// all three variants.
void CheckVariantOrder(const std::vector<CountedQuery>& queries,
                       Checker* checker);

/// E and V counts are multiples of the pattern's automorphism count:
/// composing an embedding with an automorphism gives another one, and
/// the automorphism group acts freely on injective embeddings.
void CheckAutomorphismDivisibility(const std::vector<CountedQuery>& queries,
                                   Checker* checker);

/// |Aut(p)| when it is cheap to enumerate (at most `limit`
/// automorphisms), else 0.
uint64_t CheapAutomorphismCount(const csce::Graph& p, uint64_t limit = 4096);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
