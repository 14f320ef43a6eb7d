//===--- perfbench/src/main.cpp - the repository benchmark ----------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload render|particles|serve|record --seed N
///             --seconds S --trace 0|1 --scratch-root DIR
///             [--smoke] [--corrupt-reference]
///
/// Runs one workload and prints, as its last line, one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
/// end-to-end metrics; traced runs (--trace 1) the per-layer ones, and
/// write their spans next to the scratch root. Exits 1 when any output
/// disagrees with its reference or any operation failed. perfbench/run.py
/// builds this binary and supplies --scratch-root.
///
//===----------------------------------------------------------------------===//

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "workloads.h"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

const char *const EndToEnd[] = {"setup_s", "op_cost", "peak_rss_mb"};

bool isEndToEnd(const std::string &Name) {
  for (const char *E : EndToEnd)
    if (Name == E)
      return true;
  return false;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "render|particles|serve|record --seed N --seconds S --trace "
               "0|1 --scratch-root DIR [--smoke] [--corrupt-reference]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string ScratchRoot;
  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    auto Value = [&]() -> std::string {
      return A + 1 < Argc ? Argv[++A] : "";
    };
    if (Arg == "--workload")
      O.Workload = Value();
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (Arg == "--trace")
      O.Trace = Value() == "1";
    else if (Arg == "--scratch-root")
      ScratchRoot = Value();
    else if (Arg == "--smoke")
      O.Smoke = true;
    else if (Arg == "--corrupt-reference")
      O.CorruptReference = true;
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (!knownWorkload(O.Workload))
    return usage("unknown workload");
  if (ScratchRoot.empty() || O.Seconds <= 0)
    return usage("--scratch-root and a positive --seconds are required");

  O.Nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (O.Nproc < 1)
    O.Nproc = 1;
  // Everything this run writes lives in a directory it owns: the compile
  // cache, the host compiler's temporaries (TMPDIR), and record bundles.
  O.Scratch = fs::absolute(ScratchRoot).string() + "/run-" +
              std::to_string(::getpid());
  fs::remove_all(O.Scratch);
  fs::create_directories(O.Scratch + "/tmp");
  ::setenv("TMPDIR", (O.Scratch + "/tmp").c_str(), 1);
  if (O.Trace) {
    tracer().enable();
    O.SpansOut = fs::absolute(ScratchRoot).string() + "/spans-" + O.Workload +
                 ".json";
  }

  Report R;
  runWorkload(O, R);
  if (O.Trace) {
    tracer().write(O.SpansOut);
    R.note("spans written to " + O.SpansOut);
  } else {
    R.set("peak_rss_mb", peakRssMb(), "MB");
  }
  for (auto It = R.Metrics.begin(); It != R.Metrics.end();)
    It = isEndToEnd(It->first) != O.Trace ? std::next(It) : R.Metrics.erase(It);
  std::error_code EC;
  fs::remove_all(O.Scratch, EC);

  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  if (R.Attempted == 0)
    R.Attempted = 1, R.Failed = 1, R.Correct = false;
  std::printf("%s\n", resultJson(R).c_str());
  std::fflush(stdout);
  return R.Correct && R.Failed == 0 ? 0 : 1;
}
