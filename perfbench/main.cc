// End-to-end benchmark program for the SUDAF library.
//
//   sudaf_perfbench --workload <explore|scan|serve|append> --seed <n>
//                   --seconds <s> --trace <0|1> --scratch <dir>
//
// Runs one workload and prints, as its last line, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Diagnostics go to stderr. See README.md for the workloads and metrics.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: sudaf_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.seconds <= 0 ||
      options.scratch_dir.empty()) {
    return Usage();
  }
  perfbench::Outcome outcome;
  if (!perfbench::RunWorkload(options, &outcome)) return Usage();
  std::cout << perfbench::OutcomeJson(outcome) << std::endl;
  return 0;
}
