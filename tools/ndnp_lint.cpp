// ndnp_lint — the project-rule static analyzer (docs/STATIC_ANALYSIS.md).
//
// Scans .cpp/.hpp sources with the repository rule pack (src/lint): the
// determinism contract over the simulation tree, allocation hygiene
// outside the allocator layer, trace/invariant macro hygiene, and header
// hygiene. Findings are silenced per line with
// `// NDNP-LINT-ALLOW(rule): reason` or grandfathered in a baseline file.
//
// Usage:
//   ndnp_lint [options] <path>...
//     --root DIR            repo root paths are reported relative to (.)
//     --baseline FILE       grandfathered findings to subtract
//     --write-baseline FILE regenerate the baseline from current findings
//     --json                canonical JSON report instead of text
//     --list-rules          print the rule pack and exit
//
// Exit codes: 0 clean; 1 non-baselined findings; 2 stale baseline entries
// (the fix landed — shrink the baseline); 3 usage or I/O error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/engine.hpp"

namespace {

using namespace ndnp;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--baseline FILE] [--write-baseline FILE] [--json] "
               "[--list-rules] <path>...\n",
               argv0);
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  std::string write_baseline_path;
  bool json = false;
  bool list_rules = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ndnp_lint: %s needs a value\n", flag);
        std::exit(3);
      }
      return argv[++i];
    };
    if (arg == "--root")
      root = value("--root");
    else if (arg == "--baseline")
      baseline_path = value("--baseline");
    else if (arg == "--write-baseline")
      write_baseline_path = value("--write-baseline");
    else if (arg == "--json")
      json = true;
    else if (arg == "--list-rules")
      list_rules = true;
    else if (arg == "--help" || arg == "-h")
      return usage(argv[0]);
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ndnp_lint: unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }

  const lint::LintConfig config = lint::LintConfig::repo_default();

  if (list_rules) {
    for (const auto& rule : config.rules)
      std::printf("%-32s %s\n", std::string(rule->id()).c_str(),
                  std::string(rule->description()).c_str());
    std::printf("%-32s %s\n", "allow-missing-reason",
                "engine rule: NDNP-LINT-ALLOW markers must carry a written reason");
    return 0;
  }
  if (paths.empty()) return usage(argv[0]);

  try {
    lint::LintReport report = lint::lint_paths(root, paths, config);

    if (!write_baseline_path.empty()) {
      std::ofstream out(write_baseline_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "ndnp_lint: cannot write %s\n", write_baseline_path.c_str());
        return 3;
      }
      out << lint::Baseline::from_findings(report.findings).serialize();
      std::fprintf(stderr, "ndnp_lint: wrote %zu baseline entr%s to %s\n",
                   report.findings.size(), report.findings.size() == 1 ? "y" : "ies",
                   write_baseline_path.c_str());
      return 0;
    }

    if (!baseline_path.empty()) {
      std::ifstream in(baseline_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "ndnp_lint: cannot read baseline %s\n", baseline_path.c_str());
        return 3;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      lint::apply_baseline(report, lint::Baseline::parse(buffer.str()));
    }

    const std::string output = json ? report.to_json() + "\n" : report.to_text();
    std::fwrite(output.data(), 1, output.size(), stdout);

    if (!report.findings.empty()) return 1;
    if (!report.stale_baseline.empty()) return 2;
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ndnp_lint: %s\n", error.what());
    return 3;
  }
}
