// irbench: runs one workload of the repository's benchmark and prints, as
// the last line of standard output, one JSON object with the run's
// correctness, operation counts and every metric it measured.
//
//   irbench --workload oltp_mix|serve_tcp --seed N
//           --seconds S --trace 0|1 [--out-dir DIR]
//
// With --trace 1 the run rebuilds its connection stacks with timing
// decorators, reports per-layer metrics, and writes a Chrome trace and the
// per-layer JSON under DIR. Exits 1 when an output check fails, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  irbench::Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "irbench: %s needs a value\n", flag.c_str());
      return 2;
    }
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      std::fprintf(stderr, "irbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "irbench: --seconds must be positive\n");
    return 2;
  }

  irbench::Outcome out;
  if (opt.workload == "oltp_mix") {
    out = irbench::RunOltpMix(opt);
  } else if (opt.workload == "serve_tcp") {
    out = irbench::RunServeTcp(opt);
  } else {
    std::fprintf(stderr, "irbench: --workload must be oltp_mix or serve_tcp\n");
    return 2;
  }
  if (out.attempted < 1) out.Check(false, "no operation was attempted");
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "irbench: CHECK FAILED: %s\n", e.c_str());
  }
  if (opt.trace) irbench::WriteTraceFiles(opt, out);
  std::printf("%s\n", out.Json().c_str());
  return out.errors.empty() ? 0 : 1;
}
