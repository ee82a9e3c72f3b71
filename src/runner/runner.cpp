#include "runner/runner.hpp"

#include <mutex>

#include "sim/trace_sinks.hpp"
#include "util/run_path.hpp"

namespace ndnp::runner {

void SweepTraceCapture::prepare(std::size_t num_runs) {
  if (runs.size() == num_runs) return;
  runs.clear();
  runs.reserve(num_runs);
  for (std::size_t i = 0; i < num_runs; ++i) {
    auto tracer = std::make_unique<util::Tracer>(kRingCapacity);
    tracer->set_filter(filter);
    runs.push_back(std::move(tracer));
  }
}

std::string SweepTraceCapture::run_path(std::size_t run_index) const {
  return util::run_path(out_path, run_index, runs.size());
}

void SweepTraceCapture::write_files() const {
  if (out_path.empty()) return;
  for (std::size_t i = 0; i < runs.size(); ++i)
    sim::write_trace_file(*runs[i], run_path(i));
}

std::uint64_t run_seed(std::uint64_t master_seed, std::size_t run_index) noexcept {
  // i-th state of SplitMix64(master_seed) by random access, then the
  // output function (same constants as util::SplitMix64::next()).
  std::uint64_t z = master_seed +
                    0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(run_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t resolve_jobs(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace detail {

void parallel_for(std::size_t num_tasks, std::size_t jobs,
                  const std::function<void(std::size_t)>& body) {
  jobs = resolve_jobs(jobs);
  if (jobs <= 1 || num_tasks <= 1) {
    for (std::size_t i = 0; i < num_tasks; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(std::min(jobs, num_tasks) - 1);
  for (std::size_t t = 1; t < std::min(jobs, num_tasks); ++t) pool.emplace_back(worker);
  worker();  // the calling thread participates
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace ndnp::runner
