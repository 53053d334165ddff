// Benchmark driver. perfbench/run.py builds this binary next to the
// program and calls it twice per run:
//
//   emdbg_perfbench gen --workload=W --seed=N --dir=D [--tiny]
//   emdbg_perfbench W --dir=D --seed=N --seconds=S --trace=0|1
//                   [--bin=PROGRAM] [--spans-out=FILE] [--provenance=JSON]
//                   [--tiny] [--corrupt-expected]
//   emdbg_perfbench edit_session --dir=D --seed=N --replica=K
//
// The third form is edit_session's own: a fresh process that sets up like
// the timed session and replays the first K edits of the script (see
// workload_edit.cc).
//
// W is edit_session, batch_match or serve_explore. The last line of stdout is
// the JSON result; the exit code is nonzero on any correctness mismatch.

#include <cstdio>
#include <string>

#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "src/util/string_util.h"

using namespace perfbench;

namespace {

bool ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 2) return false;
  out->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    int64_t n = 0;
    if (key == "--dir") {
      out->dir = val;
    } else if (key == "--bin") {
      out->bin = val;
    } else if (key == "--workload") {
      out->workload = val;
    } else if (key == "--spans-out") {
      out->spans_out = val;
    } else if (key == "--provenance") {
      out->provenance = val;
    } else if (key == "--seed" && emdbg::ParseInt64(val, &n) && n >= 0) {
      out->seed = static_cast<uint64_t>(n);
    } else if (key == "--replica" && emdbg::ParseInt64(val, &n) && n >= 0) {
      out->replica = n;
    } else if (key == "--seconds" &&
               emdbg::ParseDouble(val, &out->seconds) && out->seconds > 0) {
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      out->trace = val == "1";
    } else if (arg == "--tiny") {
      out->tiny = true;
    } else if (arg == "--corrupt-expected") {
      out->corrupt_expected = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !out->dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: emdbg_perfbench gen|edit_session|batch_match|"
                 "serve_explore --dir=D [--seed=N] [--seconds=S] [--trace=0|1] "
                 "...\n");
    return 2;
  }
  if (args.command == "gen") return RunGen(args);
  if (args.command == "edit_session") return RunEditSession(args);
  if (args.command == "batch_match") return RunBatchMatch(args);
  if (args.command == "serve_explore") return RunServeExplore(args);
  std::fprintf(stderr, "unknown workload: %s\n", args.command.c_str());
  return 2;
}
