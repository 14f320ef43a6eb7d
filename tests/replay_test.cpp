//===--- tests/replay_test.cpp - flight recorder record/replay ---------------===//
//
// The record/replay subsystem (docs/REPLAY.md) end to end: the ustar
// bundle archive, the manifest/digest/states.bin formats (including a
// malformed-input corpus and schema-1 refusal), cross-scheduler
// and cross-engine digest determinism, record -> replay fidelity (including
// fault-injection plans), first-divergence diagnosis with source-map field
// names, and the daemon's failure capture (--record-on-failure, GET
// /jobs/<id>/bundle, GET /recordings, LRU bounding, metrics).
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "driver/record.h"
#include "observe/fault.h"
#include "observe/replay.h"
#include "serve/daemon.h"
#include "support/tarball.h"

namespace diderot {
namespace {

namespace fs = std::filesystem;

/// Converges after four updates with real arithmetic in the loop, so every
/// superstep changes the digest.
const char *StepProgram = R"(
strand S (int i) {
  int it = 0;
  output real y = real(i);
  update {
    it += 1;
    y = (y + real(i)) / 3.0 + sqrt(y + 1.0);
    if (it == 4) stabilize;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)";

std::string tempDir(const char *Tag) {
  auto P = fs::temp_directory_path() /
           (std::string("diderot-replay-test-") + Tag + "-" +
            std::to_string(::getpid()));
  fs::create_directories(P);
  return P.string();
}

std::unique_ptr<rt::ProgramInstance> makeInstance(const CompiledProgram &CP) {
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP.instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  return I.isOk() ? std::move(*I) : nullptr;
}

Result<CompiledProgram> compileWith(Engine Eng, bool DoublePrec = false) {
  CompileOptions Opts;
  Opts.Eng = Eng;
  Opts.DoublePrecision = DoublePrec;
  return compileString(StepProgram, Opts, "replay_step");
}

/// Run StepProgram once under \p RC (digests armed) and return the digest
/// entries.
std::vector<support::Hash128> digestsUnder(const CompiledProgram &CP,
                                           rt::RunConfig RC) {
  std::unique_ptr<rt::ProgramInstance> I = makeInstance(CP);
  if (!I)
    return {};
  EXPECT_TRUE(I->initialize().isOk());
  RC.CollectDigests = true;
  Result<rt::RunStats> Run = I->run(RC);
  EXPECT_TRUE(Run.isOk()) << Run.message();
  const observe::DigestLog *L = I->digestLog();
  EXPECT_NE(L, nullptr);
  return L ? L->Entries : std::vector<support::Hash128>{};
}

//===----------------------------------------------------------------------===//
// Tarball
//===----------------------------------------------------------------------===//

TEST(Tarball, RoundTrip) {
  support::TarEntries In = {
      {"manifest.json", "{\"schema\":1}"},
      {"program.diderot", std::string("strand S () {}\n")},
      {"digests.tsv", std::string(4096, 'x')}, // multi-block payload
      {"empty", ""},
  };
  Result<std::string> Tar = support::tarSerialize(In);
  ASSERT_TRUE(Tar.isOk()) << Tar.message();
  EXPECT_EQ(Tar->size() % 512, 0u);
  Result<support::TarEntries> Out = support::tarParse(*Tar);
  ASSERT_TRUE(Out.isOk()) << Out.message();
  ASSERT_EQ(Out->size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ((*Out)[I].first, In[I].first);
    EXPECT_EQ((*Out)[I].second, In[I].second);
  }
}

TEST(Tarball, DirectoryRoundTripIsDeterministic) {
  std::string Dir = tempDir("tar");
  std::ofstream(Dir + "/b.txt") << "bee";
  std::ofstream(Dir + "/a.txt") << "ay";
  Result<std::string> T1 = support::tarDirectory(Dir);
  Result<std::string> T2 = support::tarDirectory(Dir);
  ASSERT_TRUE(T1.isOk()) << T1.message();
  EXPECT_EQ(*T1, *T2); // sorted names, zeroed mtimes: byte-identical
  std::string Out = Dir + "-out";
  ASSERT_TRUE(support::tarExtract(*T1, Out).isOk());
  std::ifstream A(Out + "/a.txt"), B(Out + "/b.txt");
  std::string SA, SB;
  A >> SA;
  B >> SB;
  EXPECT_EQ(SA, "ay");
  EXPECT_EQ(SB, "bee");
  fs::remove_all(Dir);
  fs::remove_all(Out);
}

TEST(Tarball, RejectsEscapingNames) {
  EXPECT_FALSE(support::tarSerialize({{"../escape", "x"}}).isOk());
  EXPECT_FALSE(support::tarSerialize({{std::string(120, 'n'), "x"}}).isOk());
  // An archive whose member name has a separator must not extract.
  Result<std::string> Tar = support::tarSerialize({{"ok.txt", "fine"}});
  ASSERT_TRUE(Tar.isOk());
  std::string Evil = *Tar;
  // Patch the name field in place ("ok.txt" -> "a/b.txt" fits).
  std::string Name = "a/b.txt";
  Evil.replace(0, Name.size() + 1, Name + '\0');
  std::string Dir = tempDir("tar-evil");
  EXPECT_FALSE(support::tarExtract(Evil, Dir).isOk());
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Wire formats
//===----------------------------------------------------------------------===//

observe::ReplayBundle sampleBundle() {
  observe::ReplayBundle B;
  B.Program = "sample";
  B.Source = "strand S () {}\n";
  B.AbiVersion = 7;
  B.CompilerId = "c++ 13";
  B.GitSha = "abc123";
  B.EngineNative = false;
  B.DoublePrecision = true;
  B.EnableContract = false;
  B.ExtraCxxFlags = "-ffp-contract=off";
  B.MaxSupersteps = 42;
  B.NumWorkers = 3;
  B.BlockSize = 16;
  B.SchedulerName = "pooled";
  B.DeadlineNs = 5000000;
  B.MaxFaults = 2;
  B.WatchdogSteps = 9;
  B.StrictFp = true;
  B.Plan.push_back({3, 1, static_cast<int>(observe::FaultKind::Injected)});
  B.Inputs.push_back({"ddro", "synth:portrait:48", false});
  B.Inputs.push_back({"img", "input-00ff.nrrd", true});
  B.SlotNames = {"param0", "pos[0]", "pos[1]", "f0"};
  B.Outcome = "fault-budget";
  B.Steps = 7;
  B.NumStrands = 144;
  B.OutputDigest = "deadbeefdeadbeefdeadbeefdeadbeef";
  return B;
}

TEST(ReplayFormat, ManifestRoundTrip) {
  observe::ReplayBundle B = sampleBundle();
  observe::ReplayBundle C;
  ASSERT_TRUE(observe::manifestFromJson(observe::manifestToJson(B), C).isOk());
  EXPECT_EQ(C.Program, B.Program);
  EXPECT_EQ(C.AbiVersion, B.AbiVersion);
  EXPECT_EQ(C.CompilerId, B.CompilerId);
  EXPECT_EQ(C.GitSha, B.GitSha);
  EXPECT_EQ(C.EngineNative, B.EngineNative);
  EXPECT_EQ(C.DoublePrecision, B.DoublePrecision);
  EXPECT_EQ(C.EnableContract, B.EnableContract);
  EXPECT_EQ(C.ExtraCxxFlags, B.ExtraCxxFlags);
  EXPECT_EQ(C.MaxSupersteps, B.MaxSupersteps);
  EXPECT_EQ(C.NumWorkers, B.NumWorkers);
  EXPECT_EQ(C.BlockSize, B.BlockSize);
  EXPECT_EQ(C.SchedulerName, B.SchedulerName);
  EXPECT_EQ(C.DeadlineNs, B.DeadlineNs);
  EXPECT_EQ(C.MaxFaults, B.MaxFaults);
  EXPECT_EQ(C.WatchdogSteps, B.WatchdogSteps);
  EXPECT_EQ(C.StrictFp, B.StrictFp);
  ASSERT_EQ(C.Plan.size(), 1u);
  EXPECT_EQ(C.Plan[0].Strand, 3u);
  EXPECT_EQ(C.Plan[0].Step, 1);
  ASSERT_EQ(C.Inputs.size(), 2u);
  EXPECT_EQ(C.Inputs[0].Name, "ddro");
  EXPECT_FALSE(C.Inputs[0].IsFile);
  EXPECT_TRUE(C.Inputs[1].IsFile);
  EXPECT_EQ(C.SlotNames, B.SlotNames);
  EXPECT_EQ(C.Outcome, B.Outcome);
  EXPECT_EQ(C.Steps, B.Steps);
  EXPECT_EQ(C.NumStrands, B.NumStrands);
  EXPECT_EQ(C.OutputDigest, B.OutputDigest);
}

TEST(ReplayFormat, ManifestRejectsBadSchema) {
  observe::ReplayBundle B;
  EXPECT_FALSE(observe::manifestFromJson("{\"schema\":99}", B).isOk());
  EXPECT_FALSE(observe::manifestFromJson("not json", B).isOk());
}

/// A 2-entry, 2-strand, 3-slot state log.
observe::DigestLog sampleStateLog() {
  observe::DigestLog L;
  L.NumStrands = 2;
  L.NumSlots = 3;
  L.HasStates = true;
  L.Entries = {{1, 2}, {0xffffffffffffffffull, 0}};
  L.Status = {0, 1, 2, 3};
  L.Slots.assign(12, 0);
  L.Slots[5] = 0x3ff0000000000000ull; // 1.0
  L.Slots[11] = 0x8000000000000001ull;
  return L;
}

TEST(ReplayFormat, DigestAndStateBinRoundTrip) {
  observe::DigestLog L = sampleStateLog();
  observe::DigestLog M;
  ASSERT_TRUE(observe::digestsFromTsv(observe::digestsToTsv(L), M).isOk());
  EXPECT_EQ(M.Entries, L.Entries);
  std::string Bin = observe::statesToBin(L);
  // 32-byte header, then 4 status bytes and 12 slot words.
  EXPECT_EQ(Bin.size(), 32u + 4u + 12u * 8u);
  EXPECT_EQ(Bin.substr(0, 8), "DDRSTATE");
  ASSERT_TRUE(observe::statesFromBin(Bin, M).isOk());
  EXPECT_TRUE(M.HasStates);
  EXPECT_EQ(M.NumStrands, L.NumStrands);
  EXPECT_EQ(M.NumSlots, L.NumSlots);
  EXPECT_EQ(M.Status, L.Status);
  EXPECT_EQ(M.Slots, L.Slots);
}

/// Overwrite header dimension \p Index (0 entries, 1 strands, 2 slots) of
/// a states.bin image with \p V, little-endian.
void setStateDim(std::string &Bin, int Index, uint64_t V) {
  for (int I = 0; I < 8; ++I, V >>= 8)
    Bin[static_cast<size_t>(8 + 8 * Index + I)] = static_cast<char>(V & 0xFF);
}

TEST(ReplayFormat, StateLogRejectsMalformed) {
  const std::string Good = observe::statesToBin(sampleStateLog());
  auto Parse = [](const std::string &Bin, size_t DigestEntries = 2) {
    observe::DigestLog M;
    M.Entries.resize(DigestEntries);
    Status S = observe::statesFromBin(Bin, M);
    return S.isOk() ? std::string("ok") : S.message();
  };
  auto Rejects = [&](const std::string &Bin, const char *Why,
                     size_t DigestEntries = 2) {
    std::string Msg = Parse(Bin, DigestEntries);
    EXPECT_NE(Msg.find(Why), std::string::npos)
        << "expected '" << Why << "', got: " << Msg;
  };
  ASSERT_EQ(Parse(Good), "ok");

  std::string BadMagic = Good;
  BadMagic[3] = 'x';
  Rejects(BadMagic, "bad magic");
  Rejects("", "bad magic");
  Rejects(Good.substr(0, 20), "truncated header");
  Rejects(Good.substr(0, Good.size() - 1), "truncated");
  Rejects(Good.substr(0, 32), "truncated");
  Rejects(Good + '\0', "past the end");

  // Dimensions whose product wraps 64 bits must not wrap into a size that
  // happens to match the file.
  std::string Wrap = Good;
  setStateDim(Wrap, 0, 1ull << 32);
  setStateDim(Wrap, 1, 1ull << 32);
  Rejects(Wrap, "overflow");
  Wrap = Good;
  setStateDim(Wrap, 2, 1ull << 61);
  Rejects(Wrap, "overflow");
  Wrap = Good;
  setStateDim(Wrap, 1, 1ull << 63);
  Rejects(Wrap, "overflow");
  Wrap = Good; // the status bytes alone overflow the header + size sum
  setStateDim(Wrap, 0, ~0ull);
  setStateDim(Wrap, 1, 1);
  setStateDim(Wrap, 2, 0);
  Rejects(Wrap, "overflow");

  // The state log must cover exactly the digest stream's entries.
  Rejects(Good, "digest stream", 3);
  Rejects(Good, "digest stream", 0);

  // Through a bundle on disk: a torn states.bin fails the read by name.
  std::string Dir = tempDir("torn");
  observe::ReplayBundle B = sampleBundle();
  B.Digests = sampleStateLog();
  ASSERT_TRUE(observe::writeBundle(Dir, B).isOk());
  ASSERT_TRUE(observe::readBundle(Dir).isOk());
  fs::path States = fs::path(Dir) / observe::bundleStatesFile();
  fs::resize_file(States, fs::file_size(States) - 8);
  Result<observe::ReplayBundle> Torn = observe::readBundle(Dir);
  ASSERT_FALSE(Torn.isOk());
  EXPECT_NE(Torn.message().find("states.bin"), std::string::npos)
      << Torn.message();
  fs::remove_all(Dir);
}

TEST(ReplayFormat, SchemaOneBundleRefused) {
  observe::ReplayBundle B;
  Status S = observe::manifestFromJson("{\"schema\": 1}", B);
  ASSERT_FALSE(S.isOk());
  EXPECT_NE(S.message().find("re-record"), std::string::npos) << S.message();

  // A whole schema-1 bundle directory (text state log) is refused too.
  std::string Dir = tempDir("schema1");
  B = sampleBundle();
  B.Digests.Entries = {{7, 8}};
  ASSERT_TRUE(observe::writeBundle(Dir, B).isOk());
  fs::path Manifest = fs::path(Dir) / observe::bundleManifestFile();
  std::string Json;
  {
    std::ifstream In(Manifest);
    Json.assign(std::istreambuf_iterator<char>(In),
                std::istreambuf_iterator<char>());
  }
  size_t At = Json.find("\"schema\": 2");
  ASSERT_NE(At, std::string::npos) << Json;
  Json.replace(At, 11, "\"schema\": 1");
  std::ofstream(Manifest) << Json;
  std::ofstream(fs::path(Dir) / "states.tsv") << "# 1 0 0\n";
  Result<observe::ReplayBundle> R = observe::readBundle(Dir);
  ASSERT_FALSE(R.isOk());
  EXPECT_NE(R.message().find("re-record"), std::string::npos) << R.message();
  fs::remove_all(Dir);
}

TEST(ReplayFormat, BundleDirectoryRoundTrip) {
  std::string Dir = tempDir("bundle");
  observe::ReplayBundle B = sampleBundle();
  B.Digests.Entries = {{7, 8}, {9, 10}};
  std::map<std::string, std::string> Files{{"input-00ff.nrrd", "NRRD0004\n"}};
  ASSERT_TRUE(observe::writeBundle(Dir, B, Files).isOk());
  // The manifest is the completion marker; every file must be present.
  EXPECT_TRUE(fs::exists(fs::path(Dir) / observe::bundleManifestFile()));
  EXPECT_TRUE(fs::exists(fs::path(Dir) / observe::bundleSourceFile()));
  EXPECT_TRUE(fs::exists(fs::path(Dir) / "input-00ff.nrrd"));
  Result<observe::ReplayBundle> C = observe::readBundle(Dir);
  ASSERT_TRUE(C.isOk()) << C.message();
  EXPECT_EQ(C->Source, B.Source);
  EXPECT_EQ(C->Digests.Entries, B.Digests.Entries);
  EXPECT_EQ(C->Outcome, "fault-budget");
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Determinism across schedulers and engines (the digest contract)
//===----------------------------------------------------------------------===//

TEST(ReplayDeterminism, SchedulersAgree) {
  Result<CompiledProgram> CP = compileWith(Engine::Interp);
  ASSERT_TRUE(CP.isOk()) << CP.message();
  rt::RunConfig Seq;
  Seq.MaxSupersteps = 100;
  Seq.NumWorkers = 0;
  rt::RunConfig Bsp = Seq;
  Bsp.NumWorkers = 3;
  Bsp.Sched = rt::Scheduler::Bsp;
  rt::RunConfig Pooled = Seq;
  Pooled.NumWorkers = 3;
  Pooled.Sched = rt::Scheduler::Pooled;
  std::vector<support::Hash128> A = digestsUnder(*CP, Seq);
  std::vector<support::Hash128> B = digestsUnder(*CP, Bsp);
  std::vector<support::Hash128> C = digestsUnder(*CP, Pooled);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B) << "sequential vs bsp digest streams differ";
  EXPECT_EQ(A, C) << "sequential vs pooled digest streams differ";
}

TEST(ReplayDeterminism, NativeDoubleMatchesInterp) {
  Result<CompiledProgram> CI = compileWith(Engine::Interp);
  ASSERT_TRUE(CI.isOk()) << CI.message();
  Result<CompiledProgram> CN = compileWith(Engine::Native, /*DoublePrec=*/true);
  ASSERT_TRUE(CN.isOk()) << CN.message();
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  std::vector<support::Hash128> A = digestsUnder(*CI, RC);
  std::vector<support::Hash128> B = digestsUnder(*CN, RC);
  ASSERT_FALSE(A.empty());
  ASSERT_FALSE(B.empty()) << "native digest capture missing (ABI < 7?)";
  EXPECT_EQ(A, B) << "interp vs native-double digest streams differ";
  // And across schedulers on the native side too.
  rt::RunConfig Pooled = RC;
  Pooled.NumWorkers = 3;
  Pooled.Sched = rt::Scheduler::Pooled;
  EXPECT_EQ(A, digestsUnder(*CN, Pooled));
}

/// Entry \p E's digest recomputed from the state log's retained words.
support::Hash128 rehashEntry(const observe::DigestLog &L, size_t E) {
  observe::StrandStateHasher H;
  size_t Strands = static_cast<size_t>(L.NumStrands);
  size_t Slots = static_cast<size_t>(L.NumSlots);
  for (size_t S = E * Strands; S < (E + 1) * Strands; ++S) {
    H.status(L.Status[S]);
    for (size_t K = 0; K < Slots; ++K)
      H.slotBits(L.Slots[S * Slots + K]);
  }
  return H.digest();
}

TEST(ReplayDeterminism, AnySingleStateChangeChangesTheDigest) {
  for (Engine Eng : {Engine::Interp, Engine::Native}) {
    Result<CompiledProgram> CP = compileWith(Eng, /*DoublePrec=*/true);
    ASSERT_TRUE(CP.isOk()) << CP.message();
    std::unique_ptr<rt::ProgramInstance> I = makeInstance(*CP);
    ASSERT_TRUE(I && I->initialize().isOk());
    rt::RunConfig RC;
    RC.MaxSupersteps = 100;
    RC.CollectStateLog = true;
    ASSERT_TRUE(I->run(RC).isOk());
    observe::DigestLog L = I->takeDigestLog();
    EXPECT_EQ(I->digestLog(), nullptr) << "takeDigestLog must move the log";
    ASSERT_TRUE(L.HasStates);
    ASSERT_GT(L.NumSlots, 0);
    size_t Strands = static_cast<size_t>(L.NumStrands);
    size_t Slots = static_cast<size_t>(L.NumSlots);
    size_t Flips = 0;
    for (size_t E = 0; E < L.entries(); ++E) {
      // The retained words are exactly what the engine hashed...
      ASSERT_TRUE(rehashEntry(L, E) == L.Entries[E]) << "entry " << E;
      // ...and flipping any one status bit or slot bit changes the digest.
      // Positions are sampled: every strand, every status bit, and every
      // slot bit of strands and slots picked by a fixed stride.
      for (size_t S = 0; S < Strands; ++S) {
        uint8_t &St = L.Status[E * Strands + S];
        for (int Bit = 0; Bit < 8; ++Bit, ++Flips) {
          St ^= static_cast<uint8_t>(1u << Bit);
          EXPECT_FALSE(rehashEntry(L, E) == L.Entries[E])
              << "entry " << E << " strand " << S << " status bit " << Bit;
          St ^= static_cast<uint8_t>(1u << Bit);
        }
        uint64_t &W = L.Slots[(E * Strands + S) * Slots + (S + E) % Slots];
        for (int Bit = 0; Bit < 64; ++Bit, ++Flips) {
          W ^= 1ull << Bit;
          EXPECT_FALSE(rehashEntry(L, E) == L.Entries[E])
              << "entry " << E << " strand " << S << " slot bit " << Bit;
          W ^= 1ull << Bit;
        }
      }
    }
    EXPECT_GT(Flips, 1000u);
  }
}

//===----------------------------------------------------------------------===//
// Record -> replay fidelity
//===----------------------------------------------------------------------===//

/// Record one interp run of StepProgram into \p Dir (state log included)
/// under \p RC and return the recorded bundle.
observe::ReplayBundle recordRun(const std::string &Dir, rt::RunConfig RC) {
  Result<CompiledProgram> CP = compileWith(Engine::Interp);
  EXPECT_TRUE(CP.isOk()) << CP.message();
  CompileOptions Opts;
  Opts.Eng = Engine::Interp;
  FlightRecorder Rec;
  Rec.begin(Dir, "replay_step", StepProgram, Opts, CP->midModule());
  std::unique_ptr<rt::ProgramInstance> I = makeInstance(*CP);
  EXPECT_TRUE(I->initialize().isOk());
  Rec.armConfig(RC);
  Result<rt::RunStats> Run = I->run(RC);
  EXPECT_TRUE(Run.isOk()) << Run.message();
  EXPECT_TRUE(Rec.finish(*I, *Run).isOk());
  return Rec.bundle();
}

TEST(ReplayFidelity, RecordReplayMatches) {
  std::string Dir = tempDir("fid");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  observe::ReplayBundle B = recordRun(Dir, RC);
  EXPECT_EQ(B.Outcome, "converged");
  EXPECT_EQ(B.Steps, 4);
  Result<ReplayReport> R = replayBundle(Dir);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_TRUE(R->Match) << R->Text;
  EXPECT_TRUE(R->DigestsCompared);
  EXPECT_FALSE(R->Div.Diverged) << R->Div.Summary;
  EXPECT_NE(R->Text.find("verdict: MATCH"), std::string::npos);
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, FaultPlanReplaysToSameOutcome) {
  std::string Dir = tempDir("fault");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.Policy.MaxFaults = 0; // first injected fault ends the run
  RC.Policy.Plan.at(3, 1, observe::FaultKind::Injected);
  observe::ReplayBundle B = recordRun(Dir, RC);
  EXPECT_EQ(B.Outcome, "fault-budget");
  ASSERT_EQ(B.Plan.size(), 1u) << "fault plan must ride in the bundle";
  Result<ReplayReport> R = replayBundle(Dir);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->ReplayedOutcome, "fault-budget");
  EXPECT_EQ(R->ReplayedSteps, B.Steps);
  EXPECT_TRUE(R->Match) << R->Text;
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, PerturbationPinpointedByStrandAndField) {
  std::string Dir = tempDir("perturb");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  recordRun(Dir, RC);
  // Tamper with the recording: strand 3's y at digest entry 2 gains one
  // ULP, and that entry's digest is bumped so the streams disagree there.
  Result<observe::ReplayBundle> BR = observe::readBundle(Dir);
  ASSERT_TRUE(BR.isOk()) << BR.message();
  observe::ReplayBundle B = *BR;
  ASSERT_TRUE(B.Digests.HasStates);
  auto YIt = std::find(B.SlotNames.begin(), B.SlotNames.end(), "y");
  ASSERT_NE(YIt, B.SlotNames.end());
  size_t YSlot = static_cast<size_t>(YIt - B.SlotNames.begin());
  size_t Strands = static_cast<size_t>(B.Digests.NumStrands);
  size_t Slots = static_cast<size_t>(B.Digests.NumSlots);
  constexpr size_t Entry = 2, Strand = 3;
  B.Digests.Slots[(Entry * Strands + Strand) * Slots + YSlot] ^= 1;
  B.Digests.Entries[Entry].Lo ^= 1;
  ASSERT_TRUE(observe::writeBundle(Dir, B).isOk());

  Result<ReplayReport> R = replayBundle(Dir);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_FALSE(R->Match);
  ASSERT_TRUE(R->Div.Diverged);
  EXPECT_EQ(R->Div.Superstep, 2);
  EXPECT_EQ(R->Div.Strand, 3);
  EXPECT_EQ(R->Div.SlotName, "y");
  EXPECT_NE(R->Text.find("field 'y'"), std::string::npos) << R->Text;
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, DumpStrandUsesSourceMapNames) {
  std::string Dir = tempDir("dump");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  observe::ReplayBundle B = recordRun(Dir, RC);
  Result<std::string> D = observe::dumpStrand(B, 3, 2);
  ASSERT_TRUE(D.isOk()) << D.message();
  EXPECT_NE(D->find("param0"), std::string::npos) << *D;
  EXPECT_NE(D->find("y"), std::string::npos) << *D;
  EXPECT_FALSE(observe::dumpStrand(B, 999, 2).isOk());
  EXPECT_FALSE(observe::dumpStrand(B, 3, 999).isOk());
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, ReplaysFromTarArchive) {
  std::string Dir = tempDir("tarrep");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  recordRun(Dir, RC);
  Result<std::string> Tar = support::tarDirectory(Dir);
  ASSERT_TRUE(Tar.isOk());
  std::string TarPath = Dir + ".tar";
  std::ofstream(TarPath, std::ios::binary) << *Tar;
  Result<ReplayReport> R = replayBundle(TarPath);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_TRUE(R->Match) << R->Text;
  fs::remove_all(Dir);
  fs::remove(TarPath);
}

//===----------------------------------------------------------------------===//
// Daemon failure capture
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)

struct Reply {
  int Code = 0;
  std::string Body;
};

Reply httpDo(int Port, const std::string &Method, const std::string &Path,
             const std::string &Body = "",
             const std::vector<std::pair<std::string, std::string>> &Headers =
                 {}) {
  Reply Out;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Out;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return Out;
  }
  std::string Wire = Method + " " + Path + " HTTP/1.1\r\n";
  for (const auto &[K, V] : Headers)
    Wire += K + ": " + V + "\r\n";
  Wire += "Content-Length: " + std::to_string(Body.size()) + "\r\n\r\n" + Body;
  size_t Off = 0;
  while (Off < Wire.size()) {
    ssize_t N = ::send(Fd, Wire.data() + Off, Wire.size() - Off, 0);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  char Buf[8192];
  ssize_t N;
  std::string Raw;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Raw.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  if (Raw.size() > 12)
    Out.Code = std::atoi(Raw.c_str() + 9);
  size_t HdrEnd = Raw.find("\r\n\r\n");
  if (HdrEnd != std::string::npos)
    Out.Body = Raw.substr(HdrEnd + 4);
  return Out;
}

/// Submit StepProgram with one injected fault and wait for the job to end.
/// Returns the job id.
std::string runFaultedJob(int Port) {
  Reply R = httpDo(Port, "POST", "/run", StepProgram,
                   {{"X-Diderot-Fault", "3@1"}});
  EXPECT_EQ(R.Code, 202) << R.Body;
  size_t P = R.Body.find("\"job\":\"");
  EXPECT_NE(P, std::string::npos);
  std::string Job = R.Body.substr(P + 7);
  Job = Job.substr(0, Job.find('"'));
  for (int I = 0; I < 500; ++I) {
    Reply Poll = httpDo(Port, "GET", "/jobs/" + Job);
    if (Poll.Body.find("\"state\":\"done\"") != std::string::npos ||
        Poll.Body.find("\"state\":\"failed\"") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Job;
}

serve::DaemonOptions recordingDaemonOptions(const std::string &Dir) {
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Interp;
  O.Compile.WorkDir = Dir;
  O.RecordOnFailure = true;
  O.TraceSampleN = 1; // every job sampled: the record span must appear
  return O;
}

TEST(DaemonRecord, FaultedJobBundleServedAndReplays) {
  std::string Dir = tempDir("daemon");
  serve::Daemon D;
  ASSERT_TRUE(D.start(recordingDaemonOptions(Dir)).isOk());
  std::string Job = runFaultedJob(D.port());
  D.waitIdle();

  // The job record says a bundle exists...
  Reply Poll = httpDo(D.port(), "GET", "/jobs/" + Job);
  EXPECT_NE(Poll.Body.find("\"bundle\":true"), std::string::npos) << Poll.Body;
  EXPECT_NE(Poll.Body.find("\"faulted\":1"), std::string::npos) << Poll.Body;
  EXPECT_EQ(D.counters().RecordingsTotal, 1u);

  // ...the recordings listing shows it...
  Reply List = httpDo(D.port(), "GET", "/recordings");
  EXPECT_EQ(List.Code, 200);
  EXPECT_NE(List.Body.find("\"id\":\"" + Job + "\""), std::string::npos)
      << List.Body;

  // ...the bundle is fetchable as a tar and replays to the same outcome...
  Reply Tar = httpDo(D.port(), "GET", "/jobs/" + Job + "/bundle");
  ASSERT_EQ(Tar.Code, 200);
  std::string TarPath = Dir + "/fetched.tar";
  std::ofstream(TarPath, std::ios::binary) << Tar.Body;
  Result<ReplayReport> R = replayBundle(TarPath);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_TRUE(R->Match) << R->Text;
  ASSERT_EQ(R->Bundle.Plan.size(), 1u); // the injected fault rode along
  EXPECT_EQ(R->Bundle.Plan[0].Strand, 3u);

  // ...the daemon's own replay verification agrees (and no divergence is
  // counted)...
  Reply Verify = httpDo(D.port(), "GET", "/recordings/" + Job + "/replay");
  EXPECT_EQ(Verify.Code, 200);
  EXPECT_NE(Verify.Body.find("verdict: MATCH"), std::string::npos)
      << Verify.Body;
  EXPECT_EQ(D.counters().ReplayDivergence, 0u);

  // ...and the sampled trace carries the record span.
  Reply Trace = httpDo(D.port(), "GET", "/jobs/" + Job + "/trace");
  EXPECT_NE(Trace.Body.find("\"record\""), std::string::npos) << Trace.Body;

  // Jobs without a bundle 404, unknown recordings 404, traversal rejected.
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/nope/bundle").Code, 404);
  EXPECT_EQ(httpDo(D.port(), "GET", "/recordings/nope").Code, 404);
  EXPECT_EQ(httpDo(D.port(), "GET", "/recordings/../cache").Code, 404);
  D.stop();
  fs::remove_all(Dir);
}

TEST(DaemonRecord, ConvergedJobRecordsNothing) {
  std::string Dir = tempDir("daemon-ok");
  serve::Daemon D;
  ASSERT_TRUE(D.start(recordingDaemonOptions(Dir)).isOk());
  Reply R = httpDo(D.port(), "POST", "/run", StepProgram);
  ASSERT_EQ(R.Code, 202);
  D.waitIdle();
  EXPECT_EQ(D.counters().RecordingsTotal, 0u);
  Reply List = httpDo(D.port(), "GET", "/recordings");
  EXPECT_NE(List.Body.find("\"recordings\":[]"), std::string::npos)
      << List.Body;
  D.stop();
  fs::remove_all(Dir);
}

TEST(DaemonRecord, RecordingsCapEvictsOldest) {
  std::string Dir = tempDir("daemon-cap");
  serve::DaemonOptions O = recordingDaemonOptions(Dir);
  O.RecordingsMaxBytes = 1; // every new bundle evicts all older ones
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  std::string J1 = runFaultedJob(D.port());
  D.waitIdle();
  std::string J2 = runFaultedJob(D.port());
  D.waitIdle();
  EXPECT_EQ(D.counters().RecordingsTotal, 2u);
  EXPECT_GE(D.counters().RecordingsEvicted, 1u);
  Reply List = httpDo(D.port(), "GET", "/recordings");
  EXPECT_EQ(List.Body.find("\"id\":\"" + J1 + "\""), std::string::npos)
      << List.Body;
  EXPECT_NE(List.Body.find("\"id\":\"" + J2 + "\""), std::string::npos)
      << List.Body;
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/" + J1 + "/bundle").Code, 404);
  D.stop();
  fs::remove_all(Dir);
}

TEST(DaemonRecord, MetricsExposeGaugesAndRecorderCounters) {
  std::string Dir = tempDir("daemon-metrics");
  serve::Daemon D;
  ASSERT_TRUE(D.start(recordingDaemonOptions(Dir)).isOk());
  runFaultedJob(D.port());
  D.waitIdle();
  Reply M = httpDo(D.port(), "GET", "/metrics");
  ASSERT_EQ(M.Code, 200);
  // The live load gauges (queue depth, jobs in flight) with gauge TYPE
  // lines, idle at scrape time.
  EXPECT_NE(M.Body.find("# TYPE diderot_daemon_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_queue_depth 0"), std::string::npos);
  EXPECT_NE(M.Body.find("# TYPE diderot_daemon_jobs_inflight gauge"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_jobs_inflight 0"), std::string::npos);
  // The flight-recorder counters.
  EXPECT_NE(M.Body.find("diderot_daemon_recordings_total 1"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_recordings_evicted_total 0"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_replay_divergence_total 0"),
            std::string::npos);
  D.stop();
  fs::remove_all(Dir);
}

#endif // unix

} // namespace
} // namespace diderot
