// Corpus: macro-side-effect positives (mutations inside macro arguments
// that run only while a tracer is bound, only on failure, or hidden inside
// an assertion) and the comparison negatives.
// Expected findings: macro-side-effect at the two marked lines.

// The corpus is scanned, never compiled, so stub the macro shapes.
#define NDNP_INVARIANT_CHECK(cond, what) ((void)0)
#define NDNP_TRACE_EVENT(...) ((void)0)

int check_counters(int n) {
  NDNP_INVARIANT_CHECK(++n > 0, "increment vanishes when invariants are off");  // finding
  NDNP_TRACE_EVENT(1, n = 5, "assignment vanishes when tracing is off");        // finding
  return n;
}

int comparisons_are_pure(int n) {
  NDNP_INVARIANT_CHECK(n == 5, "equality is a read");
  NDNP_INVARIANT_CHECK(n <= 5, "ordering is a read");
  NDNP_INVARIANT_CHECK(n != 0, "inequality is a read");
  NDNP_TRACE_EVENT(1, n >= 0, "still a read");
  return n;
}
