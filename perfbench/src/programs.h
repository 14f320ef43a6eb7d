//===--- perfbench/src/programs.h - programs and references ---------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four paper programs the workloads run (perfbench/programs/*.diderot),
/// how to bind their inputs — in process from synthesized images, or as the
/// NAME=VALUE texts a daemon job or a replay bundle carries — and how to
/// check an output against the hand-written baseline in src/baselines,
/// never against the compiler under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "image/image.h"
#include "runtime/host.h"
#include "support/result.h"

namespace perfbench {

enum class Prog { VrLite, IllustVr, Lic2d, Ridge3d };

const char *progName(Prog P);
/// The program's Diderot source text.
std::string progSource(Prog P);
/// The output every check reads.
const char *progOutput(Prog P);

/// Strand grid: U x V strands (ridge3d: U^3; V unused).
struct Grid {
  int U = 0, V = 0;
};

/// The synthesized input datasets. \p NoiseSeed seeds synth::noise2d; the
/// textual `synth:noise:N` spec a daemon job or bundle carries always uses
/// the generator's default seed (42).
struct Datasets {
  diderot::Image Hand, Lung, Flow, Noise, Xfer;
  explicit Datasets(uint32_t NoiseSeed);
};

/// The datasets the NAME=VALUE texts name (noise at the generator's
/// default seed), synthesized once.
const Datasets &textDatasets();

/// Bind every input of \p I for a frame of \p P at \p G.
diderot::Status bindInputs(diderot::rt::ProgramInstance &I, Prog P, Grid G,
                           const Datasets &D);

/// The same frame as NAME=VALUE texts (images as synth: specs).
std::vector<std::pair<std::string, std::string>> textInputs(Prog P, Grid G);

/// The baseline's output for a frame of \p P at \p G, in the layout
/// getOutput(progOutput(P)) uses.
std::vector<double> reference(Prog P, Grid G, const Datasets &D);

/// Deliberately wrong reference (the self-test's corrupted mode).
void corrupt(std::vector<double> &Ref);

/// Compare \p Out with \p Ref. Empty when they agree within the documented
/// single-precision tolerance; otherwise a one-line reason. \p Summary,
/// when given, receives the measured difference either way.
std::string compareWithReference(Prog P, Grid G,
                                 const std::vector<double> &Out,
                                 const std::vector<double> &Ref,
                                 std::string *Summary = nullptr);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
