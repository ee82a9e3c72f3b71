#include "trace/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace ndnp::trace {

std::size_t Trace::distinct_names() const {
  // Sort-unique instead of a hash set: deterministic memory/iteration
  // behavior, and src/trace is kept free of unordered containers (enforced
  // by the determinism-guard test in tests/test_runner.cpp).
  std::vector<std::uint64_t> hashes;
  hashes.reserve(records.size());
  for (const TraceRecord& record : records) hashes.push_back(record.name.hash64());
  std::sort(hashes.begin(), hashes.end());
  return static_cast<std::size_t>(
      std::unique(hashes.begin(), hashes.end()) - hashes.begin());
}

Trace generate_trace(const TraceGenConfig& config) {
  if (config.num_users == 0 || config.num_objects == 0 || config.num_domains == 0)
    throw std::invalid_argument("generate_trace: counts must be positive");

  util::Rng rng(config.seed);
  util::Rng domain_rng = rng.fork();
  const util::ZipfSampler object_popularity(config.num_objects, config.zipf_exponent);
  // User activity is itself skewed (a few heavy users dominate proxy
  // traces); a gentle Zipf captures that.
  const util::ZipfSampler user_activity(config.num_users, 0.5);

  // Stable object -> domain assignment: popular objects land in popular
  // domains (Zipf over domains), giving realistic namespace correlation.
  std::vector<std::uint32_t> object_domain(config.num_objects);
  const util::ZipfSampler domain_popularity(config.num_domains, 0.9);
  for (auto& domain : object_domain)
    domain = static_cast<std::uint32_t>(domain_popularity.sample(domain_rng) - 1);

  Trace trace;
  trace.catalogue_size = config.num_objects;
  trace.records.reserve(config.num_requests);

  // Arrival process: uniform order statistics over the duration (a
  // homogeneous Poisson process conditioned on the count).
  std::vector<double> times(config.num_requests);
  for (double& t : times) t = rng.uniform(0.0, config.duration_s);
  std::sort(times.begin(), times.end());

  for (std::size_t i = 0; i < config.num_requests; ++i) {
    const auto user = static_cast<std::uint32_t>(user_activity.sample(rng) - 1);
    const std::size_t object = object_popularity.sample(rng) - 1;

    TraceRecord record;
    record.timestamp_s = times[i];
    record.user_id = user;
    record.name = ndn::Name{"web", "dom" + std::to_string(object_domain[object]),
                            "obj" + std::to_string(object)};
    record.size_bytes = kObjectSize;
    trace.records.push_back(std::move(record));
  }
  return trace;
}

}  // namespace ndnp::trace
