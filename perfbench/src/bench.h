//===--- perfbench/src/bench.h - timing, spans, stats and reporting -------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing shared by every workload of the repository benchmark: the run's
/// options, a monotonic clock, an in-memory span tracer (on only in traced
/// runs), order statistics, the process's peak RSS, the machine-speed
/// calibration loop, the run's private scratch directory, and the metric
/// table the result line is printed from.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny grids and a short window, for the self-test.
  bool Smoke = false;
  /// Perturb every baseline reference so each check must fail (self-test).
  bool CorruptReference = false;
  /// Directory the run owns (compile cache, TMPDIR, bundles); removed at
  /// exit.
  std::string Scratch;
  /// Where the traced run writes its spans.
  std::string SpansOut;
  int Nproc = 1;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
double now();

/// The process's start on the same clock (captured before main()).
double processStart();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded interval: a call into a layer made by the benchmark.
struct SpanRec {
  std::string Name;
  std::string Tag; ///< the program the call was made for, if any
  double Begin = 0, End = 0;
  int64_t Parent = -1; ///< index of the enclosing span on the same thread
};

/// Records spans when enabled; otherwise every call is a no-op, so the
/// untraced runs that give the end-to-end numbers pay one branch.
class Tracer {
public:
  void enable() { On = true; }
  bool enabled() const { return On; }
  int64_t open(const std::string &Name, const std::string &Tag);
  void close(int64_t Id);

  /// Per-operation cost of a layer: the median self time (span minus the
  /// time its children cover) of \p Name for each tag, summed over tags (a
  /// render round runs one frame per program, each tagged with its
  /// program), over the spans recorded between marks \p From and \p To.
  double perOp(const std::string &Name, size_t From, size_t To) const;
  /// Number of spans recorded so far: a position for perOp's range.
  size_t mark() const;
  /// Durations of every span named \p Name.
  std::vector<double> durations(const std::string &Name) const;
  /// Write all spans as a JSON array to \p Path.
  void write(const std::string &Path) const;

private:
  std::vector<std::pair<std::string, double>>
  taggedSelfTimes(const std::string &Name, size_t From, size_t To) const;

  bool On = false;
  mutable std::mutex Mu;
  std::vector<SpanRec> Spans;
};

Tracer &tracer();

/// RAII span around one call into a layer.
class Span {
public:
  explicit Span(const char *Name, const char *Tag = "");
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Id;
};

//===----------------------------------------------------------------------===//
// Statistics and process facts
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Linear-interpolated quantile \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double sum(const std::vector<double> &V);

/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();

/// Samples the machine's speed while a window runs: a thread that, every
/// 200 ms, times a fixed floating-point loop owned by the benchmark in its
/// own CPU time. CPU time leaves out waiting for a vCPU, so the samples
/// follow what the host's load does to every instruction (clock, shared
/// core), not how busy the benchmark keeps its own threads.
class SpeedProbe {
public:
  SpeedProbe();
  /// Stop sampling; the median sample in CPU seconds.
  double stop();
  size_t samples() const { return Samples.size(); }
  ~SpeedProbe();

private:
  std::atomic<bool> Done{false};
  std::vector<double> Samples;
  std::thread T;
};

/// CPU time the host has taken from this virtual machine so far, summed
/// over its vCPUs (the `steal` column of /proc/stat), in seconds; 0 where
/// the kernel does not report it.
double stealSeconds();

/// CPU time of this process so far, all threads, user and system: time
/// the host steals from the VM is not counted.
double processCpuSeconds();

/// 64-bit FNV-1a over the bytes of \p V.
uint64_t hashValues(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Everything one run reports.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> Metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Record a correctness failure that is not tied to one operation.
  void fail(const std::string &Why);
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string resultJson(const Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
