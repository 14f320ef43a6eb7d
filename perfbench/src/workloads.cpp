//===--- perfbench/src/workloads.cpp - the four workloads -----------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>

#include "codegen/cache.h"
#include "driver/driver.h"
#include "driver/inputs.h"
#include "driver/record.h"
#include "http_client.h"
#include "nrrd/nrrd.h"
#include "programs.h"
#include "serve/daemon.h"

namespace fs = std::filesystem;
using namespace diderot;

namespace perfbench {

namespace {

//===----------------------------------------------------------------------===//
// Sizes
//===----------------------------------------------------------------------===//

/// Strand grids. `render` rounds and `particles` frames take about half a
/// second and a quarter second at 4 workers; serve jobs tens of
/// milliseconds at one worker; record grids keep one bundle in the tens of
/// MB. --smoke shrinks everything for the self-test.
struct Sizes {
  Grid Vr{200, 150}, Illust{200, 150}, Lic{320, 320};
  Grid Ridge{68, 0};
  Grid ServeVr{64, 48}, ServeLic{96, 96}, ServeRidge{24, 0};
  Grid RecVr{24, 18}, RecLic{48, 48}, RecRidge{12, 0};
};

Sizes sizesFor(bool Smoke) {
  Sizes S;
  if (Smoke) {
    S.Vr = {40, 30}, S.Illust = {40, 30}, S.Lic = {64, 64};
    S.Ridge = {16, 0};
    S.ServeVr = {32, 24}, S.ServeLic = {48, 48}, S.ServeRidge = {12, 0};
    S.RecVr = {16, 12}, S.RecLic = {32, 32}, S.RecRidge = {10, 0};
  }
  return S;
}

/// The once-per-run baseline check renders this smaller frame.
Grid reduced(Prog P, Grid G) {
  if (P == Prog::Ridge3d)
    return {std::max(10, G.U / 3), 0};
  return {std::max(16, G.U / 4), std::max(12, G.V / 4)};
}

std::string gridText(Prog P, Grid G) {
  return P == Prog::Ridge3d ? std::to_string(G.U) + "^3"
                            : std::to_string(G.U) + "x" + std::to_string(G.V);
}

struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One run's shared state.
struct Run {
  const Options &O;
  Report &R;
  Sizes S;
  std::string Cache;
  CompileOptions Opts;

  Run(const Options &O, Report &R) : O(O), R(R), S(sizesFor(O.Smoke)) {
    Cache = O.Scratch + "/cache";
    fs::create_directories(Cache);
    Opts.Eng = Engine::Native;
    Opts.WorkDir = Cache;
  }
  bool traced() const { return O.Trace; }

  std::mutex Mu;
  std::map<std::string, std::vector<double>> BundleBytes; ///< per program
};

rt::RunConfig runConfig(int Workers) {
  rt::RunConfig C;
  C.MaxSupersteps = 100000;
  C.NumWorkers = Workers;
  return C;
}

//===----------------------------------------------------------------------===//
// Compiling
//===----------------------------------------------------------------------===//

struct Compiled {
  Prog P = Prog::VrLite;
  std::string Source;
  std::optional<CompiledProgram> CP;
  double FrontendS = 0, EmitS = 0, FirstInstS = 0;
  double CppBytes = 0;
  std::string Error;
  const char *tag() const { return progName(P); }
};

/// Front end, then (traced runs only) a separate emit for the codegen
/// numbers, then the first instantiate(), which emits again and runs the
/// host compiler into the run's cache.
void compileOne(Run &X, Compiled &C) {
  double T0 = now();
  {
    Span S("frontend.compile", C.tag());
    Result<CompiledProgram> CP = compileString(C.Source, X.Opts, C.tag());
    if (!CP.isOk()) {
      C.Error = CP.message();
      return;
    }
    C.CP.emplace(CP.take());
  }
  double T1 = now();
  C.FrontendS = T1 - T0;
  if (X.traced()) {
    Span S("codegen.emit", C.tag());
    C.CppBytes = static_cast<double>(C.CP->emitCpp().size());
  }
  double T2 = now();
  C.EmitS = T2 - T1;
  Span S("codegen.first_instantiate", C.tag());
  Result<std::unique_ptr<rt::ProgramInstance>> I = C.CP->instantiate();
  if (!I.isOk())
    C.Error = I.message();
  C.FirstInstS = now() - T2;
}

/// Compile \p Ps cold, at most nproc host compiles at once.
std::vector<Compiled> compileAll(Run &X, const std::vector<Prog> &Ps) {
  std::vector<Compiled> Cs(Ps.size());
  for (size_t I = 0; I < Ps.size(); ++I) {
    Cs[I].P = Ps[I];
    Cs[I].Source = progSource(Ps[I]);
    if (Cs[I].Source.empty())
      throw Fatal(std::string("cannot read the source of ") + progName(Ps[I]));
  }
  size_t Batch = static_cast<size_t>(std::max(1, X.O.Nproc));
  for (size_t B = 0; B < Cs.size(); B += Batch) {
    std::vector<std::thread> Ts;
    for (size_t I = B; I < std::min(Cs.size(), B + Batch); ++I)
      Ts.emplace_back([&X, &C = Cs[I]] { compileOne(X, C); });
    for (std::thread &T : Ts)
      T.join();
  }
  for (const Compiled &C : Cs)
    if (!C.Error.empty())
      throw Fatal(std::string("compiling ") + C.tag() + ": " + C.Error);
  return Cs;
}

const Compiled &find(const std::vector<Compiled> &Cs, Prog P) {
  for (const Compiled &C : Cs)
    if (C.P == P)
      return C;
  throw Fatal(std::string("program not compiled: ") + progName(P));
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

struct Frame {
  std::string Err; ///< empty when the frame ran to convergence
  std::unique_ptr<rt::ProgramInstance> Inst;
  rt::RunStats Stats;
  double RunS = 0;
  std::vector<double> Out;
};

/// instantiate -> inputs -> initialize -> run -> getOutput. Inputs come
/// from \p D, or from the program's NAME=VALUE texts when \p D is null
/// (the form serve jobs and bundles carry).
Frame frame(const Compiled &C, Grid G, const Datasets *D,
            const rt::RunConfig &RC) {
  Frame F;
  const char *Tag = C.tag();
  {
    Span S("codegen.load", Tag);
    Result<std::unique_ptr<rt::ProgramInstance>> I = C.CP->instantiate();
    if (!I.isOk()) {
      F.Err = I.message();
      return F;
    }
    F.Inst = I.take();
  }
  Status St = Status::ok();
  {
    Span S("runtime.inputs", Tag);
    if (D)
      St = bindInputs(*F.Inst, C.P, G, *D);
    else
      for (const auto &[Name, Value] : textInputs(C.P, G))
        if (St.isOk())
          St = setInputFromText(*F.Inst, Name, Value);
  }
  if (St.isOk()) {
    Span S("runtime.initialize", Tag);
    St = F.Inst->initialize();
  }
  if (!St.isOk()) {
    F.Err = St.message();
    return F;
  }
  {
    Span S("runtime.run", Tag);
    double T0 = now();
    Result<rt::RunStats> R = F.Inst->run(RC);
    F.RunS = now() - T0;
    if (!R.isOk()) {
      F.Err = R.message();
      return F;
    }
    F.Stats = R.take();
  }
  if (F.Stats.Outcome != observe::RunOutcome::Converged) {
    F.Err = std::string("run ended ") +
            observe::runOutcomeName(F.Stats.Outcome);
    return F;
  }
  Span S("runtime.output", Tag);
  St = F.Inst->getOutput(progOutput(C.P), F.Out);
  if (!St.isOk())
    F.Err = St.message();
  return F;
}

std::vector<double> referenceFor(Run &X, Prog P, Grid G, const Datasets &D) {
  std::vector<double> Ref = reference(P, G, D);
  if (X.O.CorruptReference)
    corrupt(Ref);
  return Ref;
}

/// Once per run: a frame of \p C at \p G against the hand-written baseline.
bool checkBaseline(Run &X, const Compiled &C, Grid G, const Datasets *D,
                   int Workers) {
  Frame F = frame(C, G, D, runConfig(Workers));
  std::string Why = F.Err, Summary;
  if (Why.empty()) {
    Why = compareWithReference(C.P, G, F.Out,
                               referenceFor(X, C.P, G, D ? *D : textDatasets()),
                               &Summary);
    X.R.note(std::string("baseline check ") + C.tag() + " at " +
             gridText(C.P, G) + ": " + Summary);
  }
  if (!Why.empty()) {
    X.R.fail(std::string(C.tag()) + " at " + gridText(C.P, G) +
             " disagrees with its baseline: " + Why);
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The serve client
//===----------------------------------------------------------------------===//

struct JobKind {
  Prog P = Prog::VrLite;
  Grid G;
  std::string Source;
  std::vector<std::pair<std::string, std::string>> Headers;
  std::vector<double> Ref;
};

JobKind jobKind(Prog P, Grid G) {
  JobKind K;
  K.P = P;
  K.G = G;
  K.Source = progSource(P);
  // The program's name is part of the generated code, so it must match the
  // in-process compiles for the daemon to share their cached artifacts.
  K.Headers.emplace_back("X-Diderot-Program", progName(P));
  for (const auto &[Name, Value] : textInputs(P, G))
    K.Headers.emplace_back("X-Diderot-Input", Name + "=" + Value);
  return K;
}

/// The baseline at each job's size, which every job's output is checked
/// against (computed after setup, which it is not part of).
void addReferences(Run &X, std::vector<JobKind> &Kinds) {
  for (JobKind &K : Kinds)
    K.Ref = referenceFor(X, K.P, K.G, textDatasets());
}

struct ServeTally {
  std::mutex Mu;
  std::vector<std::vector<double>> Walls; ///< per kind, verified jobs only
  std::vector<double> All, Admit, Wait, Polls, Fetch, Bytes;
  std::map<std::string, std::vector<double>> JobSpans; ///< daemon job trace
  uint64_t Attempted = 0, Failed = 0;
};

std::string jsonString(const std::string &Body, const std::string &Key) {
  std::string Pat = "\"" + Key + "\":\"";
  size_t P = Body.find(Pat);
  if (P == std::string::npos)
    return "";
  P += Pat.size();
  return Body.substr(P, Body.find('"', P) - P);
}

/// Durations (s) of the daemon's coarse job spans, from GET /jobs/<id>/trace.
void addJobSpans(const std::string &Trace,
                 std::map<std::string, std::vector<double>> &Out) {
  for (const char *Name :
       {"queue-wait", "instantiate", "initialize", "run", "serialize-output"}) {
    std::string Pat = std::string("\"name\":\"") + Name + "\"";
    size_t P = Trace.find(Pat);
    if (P == std::string::npos)
      continue;
    size_t D = Trace.find("\"dur\":", P);
    if (D != std::string::npos)
      Out[Name].push_back(std::atof(Trace.c_str() + D + 6) / 1e6);
  }
}

/// One job as a client sees it: POST /run, poll until done, fetch the
/// output; then (untimed) decode it and compare it with the baseline.
void serveJob(Run &X, int Port, const JobKind &K, size_t KindIdx,
              ServeTally &T) {
  const char *Tag = progName(K.P);
  std::string Err;
  int Polls = 0;
  std::string Body;
  double T0 = now();
  HttpReply Sub;
  {
    Span S("serve.admit", Tag);
    Sub = httpRequest(Port, "POST", "/run", K.Headers, K.Source);
  }
  double T1 = now();
  std::string Id = Sub.header("X-Diderot-Job");
  if (Sub.Status != 202 || Id.empty())
    Err = "POST /run answered " + std::to_string(Sub.Status);
  if (Err.empty()) {
    Span S("serve.wait", Tag);
    for (;;) {
      HttpReply J = httpRequest(Port, "GET", "/jobs/" + Id);
      ++Polls;
      std::string State = jsonString(J.Body, "state");
      if (J.Status != 200) {
        Err = "GET /jobs/" + Id + " answered " + std::to_string(J.Status);
        break;
      }
      if (State == "done")
        break;
      if (State == "failed") {
        Err = "job failed: " + jsonString(J.Body, "error");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  double T2 = now();
  if (Err.empty()) {
    Span S("serve.output_fetch", Tag);
    HttpReply Out = httpRequest(Port, "GET", "/jobs/" + Id + "/output");
    if (Out.Status != 200)
      Err = "GET output answered " + std::to_string(Out.Status);
    Body = std::move(Out.Body);
  }
  double T3 = now();
  if (Err.empty()) {
    Result<Nrrd> N = nrrdParse(Body);
    if (!N.isOk()) {
      Err = "output is not NRRD: " + N.message();
    } else {
      std::vector<double> V(N->numSamples());
      for (size_t I = 0; I < V.size(); ++I)
        V[I] = N->sampleAsDouble(I);
      std::string Why = compareWithReference(K.P, K.G, V, K.Ref);
      if (!Why.empty())
        Err = std::string(Tag) + " job at " + gridText(K.P, K.G) +
              " disagrees with its baseline: " + Why;
    }
  }
  std::string Trace;
  if (Err.empty() && X.traced())
    Trace = httpRequest(Port, "GET", "/jobs/" + Id + "/trace").Body;

  std::lock_guard<std::mutex> G(T.Mu);
  ++T.Attempted;
  if (!Err.empty()) {
    ++T.Failed;
    if (T.Failed == 1)
      X.R.note("serve job failed: " + Err);
    return;
  }
  T.Walls[KindIdx].push_back(T3 - T0);
  T.All.push_back(T3 - T0);
  T.Admit.push_back(T1 - T0);
  T.Wait.push_back(T2 - T1);
  T.Polls.push_back(Polls);
  T.Fetch.push_back(T3 - T2);
  T.Bytes.push_back(static_cast<double>(Body.size()));
  addJobSpans(Trace, T.JobSpans);
}

/// nproc closed-loop clients: each sends its next job only after the
/// previous job's output arrived. Jobs follow \p Order (kind indices)
/// until \p End, or for \p MaxJobs jobs when it is positive.
void serveSession(Run &X, int Port, const std::vector<JobKind> &Kinds,
                  const std::vector<int> &Order, double End, int MaxJobs,
                  ServeTally &T) {
  T.Walls.resize(Kinds.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Clients;
  for (int C = 0; C < X.O.Nproc; ++C)
    Clients.emplace_back([&] {
      for (;;) {
        if (MaxJobs <= 0 && now() >= End)
          return;
        size_t N = Next.fetch_add(1);
        if (MaxJobs > 0 && N >= static_cast<size_t>(MaxJobs))
          return;
        size_t KI = static_cast<size_t>(Order[N % Order.size()]);
        serveJob(X, Port, Kinds[KI], KI, T);
      }
    });
  for (std::thread &C : Clients)
    C.join();
}

/// A fixed share of each kind (equal), in an order drawn from the seed.
std::vector<int> jobOrder(size_t NumKinds, uint64_t Seed) {
  std::vector<int> Order(64);
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = static_cast<int>(I % NumKinds);
  std::mt19937_64 Rng(Seed);
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

/// An in-process daemon: nproc job workers, one run worker per job, the
/// run's own compile cache; every kind's program compiled with POST
/// /compile (concurrently, one request per program).
int startDaemon(Run &X, serve::Daemon &D, const std::vector<JobKind> &Kinds) {
  serve::DaemonOptions DO;
  DO.JobWorkers = X.O.Nproc;
  DO.RunWorkers = 1;
  DO.HttpThreads = std::max(4, X.O.Nproc);
  DO.Compile = X.Opts;
  Status St = D.start(DO);
  if (!St.isOk())
    throw Fatal("daemon: " + St.message());
  int Port = D.port();
  std::vector<std::thread> Ts;
  std::vector<std::string> Errs(Kinds.size());
  for (size_t I = 0; I < Kinds.size(); ++I)
    Ts.emplace_back([&, I] {
      Span S("serve.compile", progName(Kinds[I].P));
      HttpReply R = httpRequest(Port, "POST", "/compile",
                                {{"X-Diderot-Program", progName(Kinds[I].P)}},
                                Kinds[I].Source);
      if (R.Status != 200)
        Errs[I] = "POST /compile answered " + std::to_string(R.Status) +
                  ": " + R.Body;
    });
  for (std::thread &T : Ts)
    T.join();
  for (const std::string &E : Errs)
    if (!E.empty())
      throw Fatal(E);
  return Port;
}

void serveLayerMetrics(Run &X, ServeTally &T, serve::Daemon &D) {
  Report &R = X.R;
  R.set("serve.admit_s", median(T.Admit), "s");
  R.set("serve.wait_s", median(T.Wait), "s");
  R.set("serve.polls_per_job",
        T.Polls.empty() ? 0 : sum(T.Polls) / T.Polls.size(), "count");
  R.set("serve.output_fetch_s", median(T.Fetch), "s");
  R.set("serve.output_bytes", median(T.Bytes), "B");
  R.set("serve.job_p95_s", quantile(T.All, 0.95), "s");
  R.set("serve.queue_wait_s", median(T.JobSpans["queue-wait"]), "s");
  R.set("serve.instantiate_s", median(T.JobSpans["instantiate"]), "s");
  R.set("serve.initialize_s", median(T.JobSpans["initialize"]), "s");
  R.set("serve.run_s", median(T.JobSpans["run"]), "s");
  R.set("serve.serialize_s", median(T.JobSpans["serialize-output"]), "s");
  serve::Daemon::Counters Cn = D.counters();
  R.set("serve.cache_hits", static_cast<double>(Cn.CacheHits), "count");
  R.set("serve.rejected", static_cast<double>(Cn.JobsRejected), "count");
}

//===----------------------------------------------------------------------===//
// Record -> replay
//===----------------------------------------------------------------------===//

double dirBytes(const std::string &Dir) {
  double B = 0;
  std::error_code EC;
  for (const auto &E : fs::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      B += static_cast<double>(E.file_size(EC));
  return B;
}

/// Removes a bundle directory however the round trip ends.
struct BundleGuard {
  std::string Dir;
  ~BundleGuard() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
};

/// One round trip: arm a FlightRecorder on a 1-worker run (digests and the
/// state log), write the bundle, replay it to MATCH, delete it.
std::string recordRoundTrip(Run &X, const Compiled &C, Grid G,
                            const std::string &Dir, uint64_t WantHash) {
  const char *Tag = C.tag();
  BundleGuard Guard{Dir};
  FlightRecorder Rec;
  Rec.begin(Dir, Tag, C.Source, X.Opts, C.CP->midModule());
  std::unique_ptr<rt::ProgramInstance> I;
  {
    Span S("codegen.load", Tag);
    Result<std::unique_ptr<rt::ProgramInstance>> IR = C.CP->instantiate();
    if (!IR.isOk())
      return IR.message();
    I = IR.take();
  }
  for (const auto &[Name, Value] : textInputs(C.P, G)) {
    Status St = setInputFromText(*I, Name, Value);
    if (St.isOk())
      St = Rec.addInput(Name, Value);
    if (!St.isOk())
      return St.message();
  }
  Status St = I->initialize();
  if (!St.isOk())
    return St.message();
  rt::RunConfig RC = runConfig(1);
  Rec.armConfig(RC);
  Result<rt::RunStats> Stats = Result<rt::RunStats>::error("not run");
  {
    Span S("observe.armed_run", Tag);
    Stats = I->run(RC);
  }
  if (!Stats.isOk())
    return Stats.message();
  std::vector<double> Out;
  St = I->getOutput(progOutput(C.P), Out);
  if (!St.isOk())
    return St.message();
  if (hashValues(Out) != WantHash)
    return std::string(Tag) + ": recorded run's output differs from the "
                              "checked frame";
  {
    Span S("observe.bundle_write", Tag);
    St = Rec.finish(*I, *Stats);
  }
  if (!St.isOk())
    return "finish: " + St.message();
  if (X.traced()) {
    std::lock_guard<std::mutex> G(X.Mu);
    X.BundleBytes[Tag].push_back(dirBytes(Dir));
  }
  std::string Err;
  {
    Span S("observe.replay", Tag);
    Result<ReplayReport> Rep = replayBundle(Dir, X.Cache);
    if (!Rep.isOk())
      Err = "replay: " + Rep.message();
    else if (!Rep->Match)
      Err = "replay verdict is not MATCH:\n" + Rep->Text;
  }
  return Err;
}

/// Plain 1-worker frame from text inputs, checked against the baseline;
/// its output hash is what every recorded run must reproduce.
uint64_t recordReference(Run &X, const Compiled &C, Grid G, bool &Ok) {
  Ok = checkBaseline(X, C, G, nullptr, 1);
  Frame F = frame(C, G, nullptr, runConfig(1));
  return hashValues(F.Out);
}

//===----------------------------------------------------------------------===//
// Traced-run layer numbers
//===----------------------------------------------------------------------===//

std::string passMetricName(std::string Pass) {
  std::string Out;
  for (char Ch : Pass)
    if (Ch == '(')
      Out += '_';
    else if (Ch != ')')
      Out += Ch;
  return "passes." + Out;
}

/// Front end, passes, emit, host compile and artifact sizes, summed over
/// the workload's programs.
void compileLayerMetrics(Run &X, const std::vector<Compiled> &Cs,
                         double HostCompileS) {
  Report &R = X.R;
  double Front = 0, Emit = 0, Cpp = 0, VnRemoved = 0;
  std::map<std::string, double> PassS, PassOps;
  for (const Compiled &C : Cs) {
    Front += C.FrontendS;
    Emit += C.EmitS;
    Cpp += C.CppBytes;
    for (const PassTiming &T : C.CP->passTimings()) {
      PassS[passMetricName(T.Pass) + "_s"] += T.Ns / 1e9;
      PassOps[passMetricName(T.Pass) + ".ops_after"] += T.OpsAfter;
    }
    // Paper section 5.4: the ops value numbering removes, as the
    // difference in final LowIR size with the pass switched off.
    CompileOptions NoVn = X.Opts;
    NoVn.EnableValueNumbering = false;
    Result<CompiledProgram> Plain = compileString(C.Source, NoVn, C.tag());
    if (Plain.isOk())
      VnRemoved += ir::countModuleOps(Plain->lowModule()) -
                   ir::countModuleOps(C.CP->lowModule());
  }
  R.set("frontend.compile_s", Front, "s");
  for (const auto &[N, V] : PassS)
    R.set(N, V, "s");
  for (const auto &[N, V] : PassOps)
    R.set(N, V, "count");
  R.set("passes.vn.ops_removed", VnRemoved, "count");
  R.set("codegen.emit_s", Emit, "s");
  R.set("codegen.cpp_bytes", Cpp, "B");
  R.set("codegen.host_compile_s", HostCompileS, "s");
  double So = 0;
  std::error_code EC;
  for (const auto &E : fs::recursive_directory_iterator(X.Cache, EC))
    if (E.is_regular_file(EC) && E.path().extension() == ".so")
      So += static_cast<double>(E.file_size(EC));
  R.set("codegen.so_bytes", So, "B");
}

double hostCompileSeconds(const std::vector<Compiled> &Cs) {
  double S = 0;
  for (const Compiled &C : Cs)
    S += C.FirstInstS - C.EmitS;
  return S;
}

/// Per-operation self time of the frame layers, from the spans recorded
/// between marks \p From and \p To (median per program, summed over
/// programs).
void frameLayerMetrics(Run &X, size_t From, size_t To) {
  Tracer &T = tracer();
  for (const char *Layer : {"codegen.load", "runtime.inputs",
                            "runtime.initialize", "runtime.run",
                            "runtime.output"})
    X.R.set(std::string(Layer) + "_s", T.perOp(Layer, From, To), "s");
}

/// Scheduler, profiler and paper-shape numbers for frames of each program
/// at \p Workers workers, summed over the programs. Workloads without
/// in-process frames of their own (\p FrameLayers) take the frame-layer
/// numbers from this function's plain frames.
void runtimeLayerMetrics(Run &X, const std::vector<Compiled> &Cs,
                         const std::vector<Grid> &Gs, const Datasets *D,
                         int Workers, bool FrameLayers) {
  double Steps = 0, Updates = 0, Busy = 0, Capacity = 0, Barrier = 0,
         MaxSum = 0, MeanSum = 0, Bsp = 0, Pooled = 0, Seq = 0, One = 0,
         Two = 0, N = 0, Teem = 0, Probes = 0, KEvals = 0;
  auto Must = [&](Frame F, const Compiled &C) {
    if (!F.Err.empty())
      throw Fatal(std::string(C.tag()) + ": " + F.Err);
    return F;
  };
  // Three plain frames per program first: the bsp reference below, and the
  // frame layers' spans when the workload has none of its own.
  std::vector<std::vector<double>> Plain(Cs.size());
  size_t From = tracer().mark();
  for (size_t I = 0; I < Cs.size(); ++I)
    for (int K = 0; K < 3; ++K)
      Plain[I].push_back(
          Must(frame(Cs[I], Gs[I], D, runConfig(Workers)), Cs[I]).RunS);
  if (FrameLayers)
    frameLayerMetrics(X, From, tracer().mark());
  for (size_t I = 0; I < Cs.size(); ++I) {
    const Compiled &C = Cs[I];
    Grid G = Gs[I];
    // One frame with per-worker, per-superstep telemetry, at nproc workers
    // whatever the workload's own count (one worker never waits).
    rt::RunConfig RC = runConfig(X.O.Nproc);
    RC.CollectStats = true;
    Frame F = Must(frame(C, G, D, RC), C);
    Steps += F.Stats.Steps;
    Updates += static_cast<double>(F.Stats.totalUpdated());
    size_t Rows = F.Stats.Workers.size();
    Capacity += static_cast<double>(Rows) * F.Stats.WallNs / 1e9;
    for (size_t S = 0; S < static_cast<size_t>(F.Stats.Steps); ++S) {
      double Max = 0, Total = 0, End = 0;
      size_t Count = 0;
      for (const auto &Row : F.Stats.Workers)
        if (S < Row.size())
          End = std::max(End, static_cast<double>(Row[S].EndNs));
      for (const auto &Row : F.Stats.Workers) {
        if (S >= Row.size())
          continue;
        double Dur = static_cast<double>(Row[S].EndNs - Row[S].BeginNs);
        Max = std::max(Max, Dur);
        Total += Dur;
        Barrier += (End - Row[S].EndNs) / 1e9 / Rows;
        ++Count;
      }
      Busy += Total / 1e9;
      MaxSum += Max;
      MeanSum += Count ? Total / Count : 0;
    }
    // bsp against pooled, three frames each.
    std::vector<double> B = Plain[I], P;
    rt::RunConfig PC = runConfig(Workers);
    PC.Sched = rt::Scheduler::Pooled;
    for (int K = 0; K < 3; ++K)
      P.push_back(Must(frame(C, G, D, PC), C).RunS);
    Bsp += median(B);
    Pooled += median(P);
    // The paper's Seq / 1P / 2P / nP columns.
    Seq += Must(frame(C, G, D, runConfig(0)), C).RunS;
    One += Must(frame(C, G, D, runConfig(1)), C).RunS;
    Two += Must(frame(C, G, D, runConfig(2)), C).RunS;
    N += Workers == X.O.Nproc
             ? median(B)
             : Must(frame(C, G, D, runConfig(X.O.Nproc)), C).RunS;
    // Probe and kernel-evaluation counts over the plain run time.
    rt::RunConfig Prof = runConfig(Workers);
    Prof.CollectProfile = true;
    Frame PF = Must(frame(C, G, D, Prof), C);
    for (const observe::ProfileLine &L : PF.Inst->profile().Lines) {
      Probes += L.Counts[static_cast<int>(observe::ProfClass::Probe)];
      KEvals += L.Counts[static_cast<int>(observe::ProfClass::KernelEval)];
    }
    // The hand-written Teem-style baseline on the same frame.
    double T0 = now();
    reference(C.P, G, D ? *D : textDatasets());
    Teem += now() - T0;
  }
  Report &R = X.R;
  R.set("runtime.supersteps", Steps, "count");
  R.set("runtime.updates", Updates, "count");
  R.set("runtime.worker_busy_frac", Capacity > 0 ? Busy / Capacity : 0,
        "ratio");
  R.set("runtime.barrier_wait_s", Barrier, "s");
  R.set("runtime.imbalance", MeanSum > 0 ? MaxSum / MeanSum : 0, "ratio");
  R.set("runtime.pooled_over_bsp", Bsp > 0 ? Pooled / Bsp : 0, "ratio");
  R.set("runtime.probes_per_s", Bsp > 0 ? Probes / Bsp : 0, "1/s");
  R.set("runtime.kernel_evals_per_s", Bsp > 0 ? KEvals / Bsp : 0, "1/s");
  R.set("runtime.seq_s", Seq, "s");
  R.set("runtime.run_1w_s", One, "s");
  R.set("runtime.run_2w_s", Two, "s");
  R.set("runtime.run_nw_s", N, "s");
  R.set("runtime.seq_over_1p", One > 0 ? Seq / One : 0, "ratio");
  R.set("baselines.teem_s", Teem, "s");
  R.set("baselines.teem_over_seq", Seq > 0 ? Teem / Seq : 0, "ratio");
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "paper shape (%zu program(s)): Teem %.3f s vs Diderot Seq "
                "%.3f s (Teem/Seq %.2f); Seq/1P %.2f; run at 1/2/%d workers "
                "%.3f/%.3f/%.3f s (speedup %.2fx); pooled/bsp %.2f",
                Cs.size(), Teem, Seq, Seq > 0 ? Teem / Seq : 0,
                One > 0 ? Seq / One : 0, X.O.Nproc, One, Two, N,
                N > 0 ? One / N : 0, Bsp > 0 ? Pooled / Bsp : 0);
  R.note(Buf);

  // Digests-only against plain, on the first program's frame.
  const Compiled &C0 = Cs[0];
  rt::RunConfig DC = runConfig(Workers);
  DC.CollectDigests = true;
  std::vector<double> Dig;
  for (int K = 0; K < 2; ++K)
    Dig.push_back(Must(frame(C0, Gs[0], D, DC), C0).RunS);
  double Overhead = median(Plain[0]) > 0 ? median(Dig) / median(Plain[0]) : 0;
  R.set("observe.digest_overhead", Overhead, "ratio");
  std::snprintf(Buf, sizeof(Buf),
                "observe.digest_overhead base: run() with CollectDigests over "
                "plain run(), %s at %s, %d worker(s): %.3f s / %.3f s",
                C0.tag(), gridText(C0.P, Gs[0]).c_str(), Workers,
                median(Dig), median(Plain[0]));
  R.note(Buf);
}

/// One round trip of each program: medians per program, summed.
void recordLayerMetrics(Run &X) {
  Tracer &T = tracer();
  size_t End = T.mark();
  X.R.set("observe.armed_run_s", T.perOp("observe.armed_run", 0, End), "s");
  X.R.set("observe.bundle_write_s", T.perOp("observe.bundle_write", 0, End),
          "s");
  X.R.set("observe.replay_s", T.perOp("observe.replay", 0, End), "s");
  double Bytes = 0;
  for (auto &KV : X.BundleBytes)
    Bytes += median(KV.second);
  X.R.set("observe.bundle_bytes", Bytes, "B");
}

/// Traced runs of workloads that do not serve: a short closed-loop session
/// against a daemon sharing the run's cache (so no new host compile).
void serveTour(Run &X, std::vector<JobKind> Kinds) {
  addReferences(X, Kinds);
  serve::Daemon D;
  int Port = startDaemon(X, D, Kinds);
  ServeTally T;
  serveSession(X, Port, Kinds, jobOrder(Kinds.size(), X.O.Seed), 0,
               4 * X.O.Nproc * static_cast<int>(Kinds.size()), T);
  if (T.Failed)
    X.R.fail("serve tour: " + std::to_string(T.Failed) + " job(s) failed");
  serveLayerMetrics(X, T, D);
  D.stop();
}

/// Traced runs of workloads that do not record: two round trips per
/// program.
void recordTour(Run &X, const std::vector<const Compiled *> &Cs,
                const std::vector<Grid> &Gs) {
  std::string Dir = X.O.Scratch + "/bundles";
  fs::create_directories(Dir);
  for (size_t I = 0; I < Cs.size(); ++I) {
    bool Ok = false;
    uint64_t Want = recordReference(X, *Cs[I], Gs[I], Ok);
    for (int K = 0; K < 2; ++K) {
      std::string Err = recordRoundTrip(
          X, *Cs[I], Gs[I], Dir + "/tour-" + std::to_string(I), Want);
      if (!Err.empty())
        X.R.fail("record tour: " + Err);
    }
  }
  recordLayerMetrics(X);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void setupDone(Run &X) { X.R.set("setup_s", now() - processStart(), "s"); }

/// A measured window: verified operations, their wall times per kind, and
/// the process's CPU time and the host's steal across it.
struct Window {
  double Begin = 0, CpuBegin = 0, StealBegin = 0;
  double Seconds = 0, CpuS = 0, StealS = 0;
  std::vector<std::vector<double>> Walls; ///< per kind, verified only
  /// Per-operation CPU time, where operations run one at a time.
  std::vector<double> OpCpu;
  double Good = 0;

  SpeedProbe Probe;
  double Calib = 0; ///< the probe's median sample
  size_t ProbeSamples = 0;

  explicit Window(size_t Kinds) : Walls(Kinds) {
    Begin = now();
    CpuBegin = processCpuSeconds();
    StealBegin = stealSeconds();
  }
  void close() {
    Seconds = now() - Begin;
    CpuS = processCpuSeconds() - CpuBegin;
    StealS = stealSeconds() - StealBegin;
    Calib = Probe.stop();
    ProbeSamples = Probe.samples();
  }
};

/// The window's metrics, shared by every workload. op_cpu_s is the
/// gated per-operation cost; the wall-clock numbers, which host steal moves
/// by a factor of two and more between minutes, are reported per layer.
void windowMetrics(Run &X, const Window &W) {
  // One operation at a time: the median over operations. Concurrent
  // operations share the process's CPU time, so there the window's mean.
  double OpCpu = !W.OpCpu.empty() ? median(W.OpCpu)
                 : W.Good > 0     ? W.CpuS / W.Good
                                  : 0;
  double OpWall = 0;
  for (const std::vector<double> &K : W.Walls)
    OpWall += median(K);
  double PerS = W.Seconds > 0 ? W.Good / W.Seconds : 0;
  double StealFrac = W.Seconds > 0 ? W.StealS / (X.O.Nproc * W.Seconds) : 0;
  double Cost = W.Calib > 0 ? OpCpu / W.Calib : 0;
  X.R.set("op_cost", Cost, "ratio");
  if (X.traced()) {
    X.R.set("bench.traced_op_cpu_s", OpCpu, "s");
    X.R.set("bench.op_wall_s", OpWall, "s");
    X.R.set("bench.ops_per_s", PerS, "1/s");
    X.R.set("host.steal_frac", StealFrac, "ratio");
    X.R.set("host.calib_s", W.Calib, "s");
  }
  char Buf[240];
  std::snprintf(Buf, sizeof(Buf),
                "window %.2f s: %.0f verified operations, %.4g CPU s each; "
                "wall: op %.4g s, %.4g ops/s; host steal took %.1f%% of "
                "vCPU time",
                W.Seconds, W.Good, OpCpu, OpWall, PerS, 100 * StealFrac);
  X.R.note(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "machine speed: the calibration loop took %.6f CPU s "
                "(median of %zu samples); op_cost %.6g",
                W.Calib, W.ProbeSamples, Cost);
  X.R.note(Buf);
}

/// `render` and `particles`: dense frames at nproc workers. One operation
/// runs one frame of every program in \p Ps.
void frameWorkload(Run &X, const std::vector<Prog> &Ps,
                   const std::vector<Grid> &Gs) {
  int W = X.O.Nproc;
  Datasets D(static_cast<uint32_t>(X.O.Seed));
  std::vector<Compiled> Cs = compileAll(X, Ps);
  setupDone(X);
  double HostCompileS = hostCompileSeconds(Cs);

  std::vector<bool> Ok(Cs.size());
  std::vector<uint64_t> Want(Cs.size());
  for (size_t I = 0; I < Cs.size(); ++I) {
    Ok[I] = checkBaseline(X, Cs[I], reduced(Cs[I].P, Gs[I]), &D, W);
    // The first full frame fixes the output every timed frame must hash to.
    Frame F = frame(Cs[I], Gs[I], &D, runConfig(W));
    if (!F.Err.empty())
      throw Fatal(std::string(Cs[I].tag()) + ": " + F.Err);
    Want[I] = hashValues(F.Out);
  }

  size_t WindowFrom = tracer().mark();
  Window Win(1);
  double End = Win.Begin + X.O.Seconds;
  while (now() < End) {
    Span Op("op");
    double T0 = now(), Cpu0 = processCpuSeconds();
    std::string Err;
    for (size_t I = 0; I < Cs.size(); ++I) {
      Frame F = frame(Cs[I], Gs[I], &D, runConfig(W));
      if (Err.empty() && !F.Err.empty())
        Err = F.Err;
      else if (Err.empty() && hashValues(F.Out) != Want[I])
        Err = std::string(Cs[I].tag()) + " differs from its first frame";
      else if (Err.empty() && !Ok[I])
        Err = std::string(Cs[I].tag()) + " failed its baseline check";
    }
    double Wall = now() - T0, Cpu = processCpuSeconds() - Cpu0;
    ++X.R.Attempted;
    if (Err.empty()) {
      Win.Walls[0].push_back(Wall);
      Win.OpCpu.push_back(Cpu);
      ++Win.Good;
    } else if (++X.R.Failed == 1) {
      X.R.note("operation failed: " + Err);
    }
  }
  Win.close();
  windowMetrics(X, Win);
  if (!X.traced())
    return;

  frameLayerMetrics(X, WindowFrom, tracer().mark());
  compileLayerMetrics(X, Cs, HostCompileS);
  runtimeLayerMetrics(X, Cs, Gs, &D, W, false);
  std::vector<JobKind> Kinds;
  std::vector<const Compiled *> RecProgs;
  std::vector<Grid> RecGrids;
  if (Ps[0] == Prog::Ridge3d) {
    Kinds.push_back(jobKind(Prog::Ridge3d, X.S.ServeRidge));
    RecProgs = {&find(Cs, Prog::Ridge3d)};
    RecGrids = {X.S.RecRidge};
  } else {
    Kinds.push_back(jobKind(Prog::VrLite, X.S.ServeVr));
    Kinds.push_back(jobKind(Prog::Lic2d, X.S.ServeLic));
    RecProgs = {&find(Cs, Prog::VrLite), &find(Cs, Prog::Lic2d)};
    RecGrids = {X.S.RecVr, X.S.RecLic};
  }
  serveTour(X, Kinds);
  recordTour(X, RecProgs, RecGrids);
}

void renderWorkload(Run &X) {
  frameWorkload(X, {Prog::VrLite, Prog::IllustVr, Prog::Lic2d},
                {X.S.Vr, X.S.Illust, X.S.Lic});
}

void particlesWorkload(Run &X) {
  frameWorkload(X, {Prog::Ridge3d}, {X.S.Ridge});
}

void serveWorkload(Run &X) {
    std::vector<JobKind> Kinds = {
      jobKind(Prog::VrLite, X.S.ServeVr),
      jobKind(Prog::Lic2d, X.S.ServeLic)};
  serve::Daemon D;
  int Port = startDaemon(X, D, Kinds);
  setupDone(X);
  addReferences(X, Kinds);

  std::vector<int> Order = jobOrder(Kinds.size(), X.O.Seed);
  ServeTally Warm;
  serveSession(X, Port, Kinds, Order, 0, 2 * X.O.Nproc, Warm);
  if (Warm.Failed)
    X.R.fail("warm-up jobs failed");

  ServeTally T;
  Window Win(Kinds.size());
  serveSession(X, Port, Kinds, Order, Win.Begin + X.O.Seconds, 0, T);
  Win.close();
  X.R.Attempted += T.Attempted;
  X.R.Failed += T.Failed;
  Win.Walls = T.Walls;
  Win.Good = static_cast<double>(T.Attempted - T.Failed);
  windowMetrics(X, Win);
  if (X.traced())
    serveLayerMetrics(X, T, D);
  D.stop();
  if (!X.traced())
    return;

  // The daemon compiled the programs; compile them again in process (a
  // cache hit, no host compile) for the front-end and pass numbers.
  double CompileRoundTrip = sum(tracer().durations("serve.compile"));
  std::vector<Compiled> Cs = compileAll(X, {Prog::VrLite, Prog::Lic2d});
  double HostCompileS = CompileRoundTrip;
  for (const Compiled &C : Cs)
    HostCompileS -= C.FrontendS + C.EmitS;
  compileLayerMetrics(X, Cs, HostCompileS);
  runtimeLayerMetrics(X, Cs, {X.S.ServeVr, X.S.ServeLic}, nullptr, 1, true);
  recordTour(X, {&Cs[0], &Cs[1]}, {X.S.RecVr, X.S.RecLic});
}

void recordWorkload(Run &X) {
  std::vector<Compiled> Cs = compileAll(X, {Prog::VrLite, Prog::Lic2d});
  setupDone(X);
  double HostCompileS = hostCompileSeconds(Cs);
  std::vector<Grid> Gs = {X.S.RecVr, X.S.RecLic};
  std::vector<bool> Ok(Cs.size());
  std::vector<uint64_t> Want(Cs.size());
  for (size_t I = 0; I < Cs.size(); ++I) {
    bool Good = false;
    Want[I] = recordReference(X, Cs[I], Gs[I], Good);
    Ok[I] = Good;
  }
  std::string Dir = X.O.Scratch + "/bundles";
  fs::create_directories(Dir);

  Window Win(Cs.size());
  std::mutex Mu;
  double End = Win.Begin + X.O.Seconds;
  std::vector<std::thread> Recorders;
  for (int T = 0; T < X.O.Nproc; ++T)
    Recorders.emplace_back([&, T] {
      // Each recorder alternates programs, starting where the seed says,
      // and stops only after whole pairs, so the window holds exactly as
      // many round trips of one program as of the other.
      size_t Next = static_cast<size_t>(X.O.Seed + T) % Cs.size();
      for (size_t N = 0; now() < End || N % Cs.size() != 0;
           ++N, Next = (Next + 1) % Cs.size()) {
        std::string Path =
            Dir + "/r" + std::to_string(T) + "-" + std::to_string(N);
        double T0 = now();
        std::string Err;
        {
          Span Op("op", Cs[Next].tag());
          Err = recordRoundTrip(X, Cs[Next], Gs[Next], Path, Want[Next]);
        }
        double Wall = now() - T0;
        if (Err.empty() && !Ok[Next])
          Err = std::string(Cs[Next].tag()) + " failed its baseline check";
        std::lock_guard<std::mutex> G(Mu);
        ++X.R.Attempted;
        if (Err.empty()) {
          Win.Walls[Next].push_back(Wall);
          ++Win.Good;
        } else if (++X.R.Failed == 1) {
          X.R.note("operation failed: " + Err);
        }
      }
    });
  for (std::thread &T : Recorders)
    T.join();
  Win.close();
  windowMetrics(X, Win);
  if (!X.traced())
    return;

  recordLayerMetrics(X);
  compileLayerMetrics(X, Cs, HostCompileS);
  runtimeLayerMetrics(X, Cs, Gs, nullptr, 1, true);
  serveTour(X, {jobKind(Prog::VrLite, X.S.ServeVr),
              jobKind(Prog::Lic2d, X.S.ServeLic)});
}

} // namespace

bool knownWorkload(const std::string &Name) {
  return Name == "render" || Name == "particles" || Name == "serve" ||
         Name == "record";
}

void runWorkload(const Options &O, Report &R) {
  Run X(O, R);
  size_t Programs = 0;
  try {
    if (O.Workload == "render") {
      renderWorkload(X);
      Programs = 3;
    } else if (O.Workload == "particles") {
      particlesWorkload(X);
      Programs = 1;
    } else if (O.Workload == "serve") {
      serveWorkload(X);
      Programs = 2;
    } else {
      recordWorkload(X);
      Programs = 2;
    }
  } catch (const std::exception &E) {
    R.fail(E.what());
    ++R.Attempted;
    ++R.Failed;
    return;
  }
  // Every program is host-compiled exactly once, into this run's own
  // cache: a second compile would mean a cache miss on the run's own
  // artifacts, and none would mean a cache that outlived its run.
  uint64_t HostCompiles = codegen::nativeCacheStats().HostCompiles;
  if (O.Trace)
    R.set("codegen.host_compiles", static_cast<double>(HostCompiles), "count");
  if (HostCompiles != Programs)
    R.fail(std::to_string(HostCompiles) + " host compiles for " +
           std::to_string(Programs) + " programs");
}

} // namespace perfbench
