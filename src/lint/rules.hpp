// Project-rule pack for ndnp_lint.
//
// Each rule encodes an invariant this repository actually depends on
// (docs/STATIC_ANALYSIS.md describes the rationale and the workflow):
//
//  - determinism-rand: libc / <random> entropy sources are banned on
//    simulation paths — every draw must flow through util::Rng seeded from
//    the per-run seed, or sweeps stop being byte-identical across --jobs.
//  - determinism-wallclock: wall-clock reads (std::chrono clocks, time(),
//    gettimeofday, ...) are banned on simulation paths; simulated time is
//    util::SimTime. Measured wall time for reporting carries an ALLOW.
//  - determinism-unordered-iteration: iterating a std::unordered_* container
//    observes implementation-defined order; on simulation paths that order
//    leaks into results. Declaring one is legal — iterating it is not.
//  - alloc-naked-new: naked new/delete/malloc on simulation paths bypasses
//    the Slab/ObjectPool substrates that keep the event core allocation-free
//    (docs/PERFORMANCE.md).
//  - macro-side-effect: NDNP_TRACE_EVENT arguments are evaluated only while
//    a tracer is bound, so a side effect there makes traced and untraced
//    runs differ; NDNP_INVARIANT_CHECK format arguments are evaluated only
//    on failure, and a mutation inside its condition hides a side effect
//    inside an assertion.
//  - header-pragma-once: every header carries `#pragma once`.
//  - header-using-namespace: `using namespace` in a header pollutes every
//    includer.
//
// Rules see a lexed file (lexer.hpp): comments stripped, literal contents
// blanked, so token matches are meaningful. Where a rule must over-reach
// (heuristics, not a parser), per-line NDNP-LINT-ALLOW suppressions carry
// the written justification.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace ndnp::lint {

/// One diagnostic. `line` is 1-based; `excerpt` is the trimmed code view of
/// the offending line (what the baseline hash is computed from).
struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::string message;
  std::string excerpt;
};

/// A lexed file plus the repo-relative path rules scope on.
struct SourceFile {
  std::string path;  // repo-relative, '/'-separated
  LexedFile lexed;
  /// The companion header of a .cpp (same stem, .hpp/.h/.hh), when one
  /// exists: declaration-tracking rules read member declarations from it.
  LexedFile companion;
  bool is_header = false;
};

class Rule {
 public:
  virtual ~Rule() = default;
  [[nodiscard]] virtual std::string_view id() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;
  virtual void check(const SourceFile& file, std::vector<Finding>& out) const = 0;
};

/// The full rule pack, in stable id order. Shared (not unique) pointers so
/// a LintConfig and tests can hold subsets without copying rules.
[[nodiscard]] std::vector<std::shared_ptr<const Rule>> make_default_rules();

}  // namespace ndnp::lint
