//===--- perfbench/src/programs.cpp - programs and references -------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "programs.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "baselines/baselines.h"
#include "synth/synth.h"

using namespace diderot;

namespace perfbench {

const char *progName(Prog P) {
  switch (P) {
  case Prog::VrLite:
    return "vr-lite";
  case Prog::IllustVr:
    return "illust-vr";
  case Prog::Lic2d:
    return "lic2d";
  case Prog::Ridge3d:
    return "ridge3d";
  }
  return "?";
}

std::string progSource(Prog P) {
  static const char *Files[] = {"vr_lite", "illust_vr", "lic2d", "ridge3d"};
  std::string Path = std::string(PERFBENCH_PROGRAM_DIR) + "/" +
                     Files[static_cast<int>(P)] + ".diderot";
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const char *progOutput(Prog P) {
  switch (P) {
  case Prog::VrLite:
    return "gray";
  case Prog::IllustVr:
    return "rgb";
  case Prog::Lic2d:
    return "sum";
  case Prog::Ridge3d:
    return "pos";
  }
  return "";
}

Datasets::Datasets(uint32_t NoiseSeed)
    : Hand(synth::ctHand(64)), Lung(synth::lungVessels(64)),
      Flow(synth::flow2d(256)), Noise(synth::noise2d(256, NoiseSeed)),
      Xfer(synth::curvatureColormap(64)) {}

const Datasets &textDatasets() {
  static const Datasets D(42);
  return D;
}

namespace {

baselines::VrParams vrParams(Grid G) {
  baselines::VrParams P;
  P.ResU = G.U;
  P.ResV = G.V;
  P.scaleToResolution();
  return P;
}

baselines::LicParams licParams(Grid G) {
  baselines::LicParams P;
  P.ResU = G.U;
  P.ResV = G.V;
  return P;
}

baselines::RidgeParams ridgeParams(Grid G) {
  baselines::RidgeParams P;
  P.Res = G.U;
  return P;
}

std::string vecText(const double *V) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%.17g,%.17g,%.17g", V[0], V[1], V[2]);
  return Buf;
}

Status bindCamera(rt::ProgramInstance &I, const baselines::VrParams &P) {
  for (Status S :
       {I.setInputInt("imgResU", P.ResU), I.setInputInt("imgResV", P.ResV),
        I.setInputReal("stepSz", P.StepSz), I.setInputReal("maxT", P.MaxT),
        I.setInputTensor("eye", {P.Eye[0], P.Eye[1], P.Eye[2]}),
        I.setInputTensor("orig", {P.Orig[0], P.Orig[1], P.Orig[2]}),
        I.setInputTensor("cVec", {P.CVec[0], P.CVec[1], P.CVec[2]}),
        I.setInputTensor("rVec", {P.RVec[0], P.RVec[1], P.RVec[2]})})
    if (!S.isOk())
      return S;
  return Status::ok();
}

} // namespace

Status bindInputs(rt::ProgramInstance &I, Prog P, Grid G, const Datasets &D) {
  switch (P) {
  case Prog::VrLite: {
    baselines::VrParams V = vrParams(G);
    for (Status S : {I.setInputImage("img", D.Hand), bindCamera(I, V),
                     I.setInputReal("opacMin", V.OpacMin),
                     I.setInputReal("opacMax", V.OpacMax)})
      if (!S.isOk())
        return S;
    return Status::ok();
  }
  case Prog::IllustVr: {
    baselines::VrParams V = vrParams(G);
    for (Status S :
         {I.setInputImage("img", D.Hand), I.setInputImage("xfer", D.Xfer),
          bindCamera(I, V),
          I.setInputReal("isoval", 0.5 * (V.OpacMin + V.OpacMax))})
      if (!S.isOk())
        return S;
    return Status::ok();
  }
  case Prog::Lic2d:
    for (Status S : {I.setInputImage("vecs", D.Flow),
                     I.setInputImage("rand", D.Noise),
                     I.setInputInt("resU", G.U), I.setInputInt("resV", G.V)})
      if (!S.isOk())
        return S;
    return Status::ok();
  case Prog::Ridge3d:
    for (Status S :
         {I.setInputImage("lung", D.Lung), I.setInputInt("res", G.U)})
      if (!S.isOk())
        return S;
    return Status::ok();
  }
  return Status::error("unknown program");
}

std::vector<std::pair<std::string, std::string>> textInputs(Prog P, Grid G) {
  switch (P) {
  case Prog::VrLite: {
    baselines::VrParams V = vrParams(G);
    return {{"img", "synth:hand:64"},
            {"imgResU", std::to_string(G.U)},
            {"imgResV", std::to_string(G.V)},
            {"cVec", vecText(V.CVec)},
            {"rVec", vecText(V.RVec)}};
  }
  case Prog::Lic2d:
    return {{"vecs", "synth:flow:256"},
            {"rand", "synth:noise:256"},
            {"resU", std::to_string(G.U)},
            {"resV", std::to_string(G.V)}};
  case Prog::Ridge3d:
    return {{"lung", "synth:vessels:64"}, {"res", std::to_string(G.U)}};
  case Prog::IllustVr:
    break; // its colormap has no synth: spec; never run from text
  }
  return {};
}

std::vector<double> reference(Prog P, Grid G, const Datasets &D) {
  switch (P) {
  case Prog::VrLite:
    return baselines::vrLite(D.Hand, vrParams(G)).Pix;
  case Prog::IllustVr: {
    baselines::VrParams V = vrParams(G);
    return baselines::illustVr(D.Hand, D.Xfer, V).Pix;
  }
  case Prog::Lic2d:
    return baselines::lic2d(D.Flow, D.Noise, licParams(G)).Pix;
  case Prog::Ridge3d: {
    std::vector<double> Flat;
    for (const auto &Pt : baselines::ridge3d(D.Lung, ridgeParams(G)))
      Flat.insert(Flat.end(), Pt.begin(), Pt.end());
    return Flat;
  }
  }
  return {};
}

void corrupt(std::vector<double> &Ref) {
  for (double &V : Ref)
    V += 0.25;
}

//===----------------------------------------------------------------------===//
// Tolerance
//
// The benchmark compiles every program in single precision (the paper's
// default); the baselines compute in double. Per sample, float rounding in
// a ray march of ~270 steps or a 12-step streamline moves a value by about
// 1e-5, far below the thresholds. Where a float sample lands on the other
// side of a branch (an opacity threshold, `inside`, a ridge-strength test)
// one sample can differ by a whole contribution, so the image checks bound
// the share of samples that differ visibly and the mean difference, not
// the maximum. lic2d is compared on the central half only: the baseline
// treats out-of-domain noise probes as 0 where Diderot clamps. perfbench/
// README.md records the differences measured at the benchmark's grids.
//===----------------------------------------------------------------------===//

namespace {

constexpr double VisibleDiff = 0.02;   ///< a sample differs "visibly"
constexpr double MaxVisibleShare = 0.002;
constexpr double MaxMeanAbsDiff = 1e-4;
constexpr double PointTol = 1e-3;      ///< ridge3d particle position, world
constexpr double MinMatchedShare = 0.98;

std::string compareImages(const std::vector<double> &Out,
                          const std::vector<double> &Ref, Grid G, int Comps,
                          bool CenterOnly, std::string *Summary) {
  if (Out.size() != Ref.size())
    return "size " + std::to_string(Out.size()) + " != reference " +
           std::to_string(Ref.size());
  int U0 = 0, U1 = G.U, V0 = 0, V1 = G.V;
  if (CenterOnly) {
    U0 = G.U / 4, U1 = 3 * G.U / 4, V0 = G.V / 4, V1 = 3 * G.V / 4;
  }
  double SumAbs = 0;
  size_t N = 0, Visible = 0;
  for (int V = V0; V < V1; ++V)
    for (int U = U0; U < U1; ++U)
      for (int C = 0; C < Comps; ++C) {
        size_t K = (static_cast<size_t>(V) * G.U + U) * Comps + C;
        double D = std::abs(Out[K] - Ref[K]);
        if (!(D == D))
          return "non-finite sample";
        SumAbs += D;
        Visible += D > VisibleDiff;
        ++N;
      }
  double Mean = N ? SumAbs / N : 0, Share = N ? double(Visible) / N : 0;
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "mean |out - baseline| %.3g (limit %.3g), visibly different "
                "%.3g%% (limit %.3g%%) of %zu samples",
                Mean, MaxMeanAbsDiff, 100 * Share, 100 * MaxVisibleShare, N);
  if (Summary)
    *Summary = Buf;
  return Mean > MaxMeanAbsDiff || Share > MaxVisibleShare ? Buf : "";
}

std::string compareParticles(const std::vector<double> &Out,
                             const std::vector<double> &Ref,
                             std::string *Summary) {
  size_t NO = Out.size() / 3, NR = Ref.size() / 3;
  if (NR == 0)
    return "baseline found no particles";
  size_t Matched = 0;
  for (size_t R = 0; R < NR; ++R) {
    for (size_t O = 0; O < NO; ++O) {
      double D2 = 0;
      for (int K = 0; K < 3; ++K) {
        double D = Out[3 * O + K] - Ref[3 * R + K];
        D2 += D * D;
      }
      if (D2 <= PointTol * PointTol) {
        ++Matched;
        break;
      }
    }
  }
  double Share = double(Matched) / NR;
  double CountRatio = double(NO) / NR;
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "%zu particles against the baseline's %zu; %.3g%% of the "
                "baseline's matched within %.0e",
                NO, NR, 100 * Share, PointTol);
  if (Summary)
    *Summary = Buf;
  return Share < MinMatchedShare || CountRatio < MinMatchedShare ||
                 CountRatio > 1 / MinMatchedShare
             ? Buf
             : "";
}

} // namespace

std::string compareWithReference(Prog P, Grid G, const std::vector<double> &Out,
                                 const std::vector<double> &Ref,
                                 std::string *Summary) {
  switch (P) {
  case Prog::VrLite:
    return compareImages(Out, Ref, G, 1, false, Summary);
  case Prog::IllustVr:
    return compareImages(Out, Ref, G, 3, false, Summary);
  case Prog::Lic2d:
    return compareImages(Out, Ref, G, 1, true, Summary);
  case Prog::Ridge3d:
    return compareParticles(Out, Ref, Summary);
  }
  return "unknown program";
}

} // namespace perfbench
