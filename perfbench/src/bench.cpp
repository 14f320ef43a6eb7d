//===--- perfbench/src/bench.cpp - timing, spans, stats and reporting -----===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <fstream>

#include <unistd.h>

namespace perfbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
const double StartStamp = now();
thread_local std::vector<int64_t> OpenSpans;
} // namespace

double processStart() { return StartStamp; }

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

Tracer &tracer() {
  static Tracer T;
  return T;
}

int64_t Tracer::open(const std::string &Name, const std::string &Tag) {
  if (!On)
    return -1;
  SpanRec S;
  S.Name = Name;
  S.Tag = Tag;
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  std::lock_guard<std::mutex> G(Mu);
  S.Begin = now();
  Spans.push_back(std::move(S));
  int64_t Id = static_cast<int64_t>(Spans.size()) - 1;
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::close(int64_t Id) {
  if (Id < 0)
    return;
  double T = now();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> G(Mu);
  Spans[static_cast<size_t>(Id)].End = T;
}

std::vector<double> Tracer::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<double> Out;
  for (const SpanRec &S : Spans)
    if (S.Name == Name)
      Out.push_back(S.End - S.Begin);
  return Out;
}

std::vector<std::pair<std::string, double>>
Tracer::taggedSelfTimes(const std::string &Name, size_t From,
                        size_t To) const {
  std::lock_guard<std::mutex> G(Mu);
  // Children of one span run on its thread, nested and in order, so their
  // intervals never overlap and the covered time is their summed length.
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      Covered[static_cast<size_t>(S.Parent)] += S.End - S.Begin;
  std::vector<std::pair<std::string, double>> Out;
  for (size_t I = From; I < std::min(To, Spans.size()); ++I)
    if (Spans[I].Name == Name)
      Out.emplace_back(Spans[I].Tag,
                       Spans[I].End - Spans[I].Begin - Covered[I]);
  return Out;
}

size_t Tracer::mark() const {
  std::lock_guard<std::mutex> G(Mu);
  return Spans.size();
}

double Tracer::perOp(const std::string &Name, size_t From, size_t To) const {
  std::map<std::string, std::vector<double>> ByTag;
  for (const auto &[Tag, S] : taggedSelfTimes(Name, From, To))
    ByTag[Tag].push_back(S);
  double Total = 0;
  for (auto &KV : ByTag)
    Total += median(KV.second);
  return Total;
}

void Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> G(Mu);
  std::ofstream Out(Path);
  if (!Out)
    return;
  Out << "[";
  char Buf[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"tag\":\"%s\","
                  "\"start\":%.9f,\"end\":%.9f,\"parent\":%lld}",
                  I ? "," : "", I, S.Name.c_str(), S.Tag.c_str(),
                  S.Begin - StartStamp,
                  S.End - StartStamp, static_cast<long long>(S.Parent));
    Out << Buf;
  }
  Out << "\n]\n";
}

Span::Span(const char *Name, const char *Tag) : Id(tracer().open(Name, Tag)) {}
Span::~Span() { tracer().close(Id); }

//===----------------------------------------------------------------------===//
// Statistics and process facts
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double F = Pos - static_cast<double>(Lo);
  return V[Lo] * (1 - F) + V[Hi] * F;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

namespace {

double threadCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

} // namespace

SpeedProbe::SpeedProbe()
    : T([this] {
        while (!Done.load()) {
          double T0 = threadCpuSeconds();
          volatile double Sink = 0;
          double X = 1.0;
          for (int I = 0; I < 2000000; ++I)
            X = X * 1.0000001 + 1e-9;
          Sink = X;
          (void)Sink;
          Samples.push_back(threadCpuSeconds() - T0);
          for (int Ms = 0; Ms < 200 && !Done.load(); Ms += 10)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }) {}

double SpeedProbe::stop() {
  if (T.joinable()) {
    Done = true;
    T.join();
  }
  return median(Samples);
}

SpeedProbe::~SpeedProbe() { stop(); }

double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double Field[8] = {};
  In >> Cpu;
  for (double &F : Field)
    In >> F;
  static const double Tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return Cpu == "cpu" && Tick > 0 ? Field[7] / Tick : 0;
}

double processCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

uint64_t hashValues(const std::vector<double> &V) {
  uint64_t H = 1469598103934665603ull;
  const unsigned char *P = reinterpret_cast<const unsigned char *>(V.data());
  for (size_t I = 0; I < V.size() * sizeof(double); ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Report::fail(const std::string &Why) {
  Correct = false;
  note("FAIL: " + Why);
}

std::string resultJson(const Report &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  char Buf[320];
  for (const auto &[Name, VU] : R.Metrics) {
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), V, VU.second.c_str());
    Out += Buf;
    First = false;
  }
  Out += "}}";
  return Out;
}

} // namespace perfbench
