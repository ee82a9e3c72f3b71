// Per-run output paths for sweeps that write one file per run.
#pragma once

#include <cstddef>
#include <string>

namespace ndnp::util {

/// The file run `run_index` of `runs` writes to: `path` itself when there is
/// one run, else `path` with ".runN" spliced in front of the file name's
/// extension (trace.jsonl -> trace.run3.jsonl, dir.d/trace -> dir.d/trace.run3),
/// so a writer that dispatches on the suffix still sees it.
[[nodiscard]] inline std::string run_path(const std::string& path, std::size_t run_index,
                                          std::size_t runs) {
  if (runs <= 1) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const std::string tag = ".run" + std::to_string(run_index);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

}  // namespace ndnp::util
