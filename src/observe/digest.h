//===--- observe/digest.h - canonical superstep state digests ----------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical form both engines hash when a run is recorded for replay
/// (docs/REPLAY.md). Per superstep, a 128-bit digest is taken over every
/// strand in index order: the status byte (zero-extended to a word), then
/// each state slot as the bit pattern of its value converted to double
/// (NaNs collapsed to one quiet-NaN pattern so an interp/native pair that
/// both produce NaN — with possibly different payload bits — still digest
/// equal). Ints and bools are cast to double before hashing, matching the
/// native engine's scalar slot layout, so the interpreter's RtVal
/// flattening and the generated code's strandSlotValue() produce
/// bit-identical word streams.
///
/// Entry 0 is the post-initialize() state (divergence there means inputs or
/// strand creation differ); entry k (k >= 1) is the state after superstep
/// k. A separate final-output digest covers getOutput() of every output.
///
/// Deliberately STL-only and header-only: generated native translation
/// units include it through runtime/native_prelude.h (same constraint as
/// observe/recorder.h). The bundle reader/writer lives host-side in
/// observe/replay.h.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_DIGEST_H
#define DIDEROT_OBSERVE_DIGEST_H

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/hash.h"

namespace diderot::observe {

/// The bit pattern hashed for one double value. All NaNs collapse to the
/// standard quiet NaN; -0.0 and +0.0 keep distinct patterns (both engines
/// compute them the same way, and the distinction is real signal).
inline uint64_t canonicalBits(double V) {
  if (std::isnan(V))
    return 0x7FF8000000000000ULL;
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Streaming hasher for one superstep's canonical form. Per strand, in
/// strand-index order: status(<byte>) once, then slot(<value>) for every
/// state slot in slot order. Both engines drive this class (through
/// DigestEntryWriter) so the word stream — and therefore the digest — is
/// identical by construction.
///
/// Each 64-bit word is mixed as H = (H ^ W) * P mod 2^128, with the FNV-128
/// offset basis and prime. For a fixed state, xor-ing a word is a bijection
/// of H and multiplying by the odd P is a bijection too, so two streams
/// that differ in exactly one word always produce different digests. Not
/// cryptographic, like support::Fnv128, which hashes byte-wise (one multiply
/// per byte instead of per word) and keys the compile caches.
class StrandStateHasher {
public:
  void status(uint8_t S) { mix(S); }
  void slot(double V) { mix(canonicalBits(V)); }
  /// A slot already in canonicalBits() form.
  void slotBits(uint64_t B) { mix(B); }
  support::Hash128 digest() const {
    return {static_cast<uint64_t>(H >> 64), static_cast<uint64_t>(H)};
  }

private:
  using U128 = unsigned __int128;
  static constexpr U128 Prime = (static_cast<U128>(1) << 88) + 0x13B;
  void mix(uint64_t W) { H = (H ^ W) * Prime; }

  U128 H = (static_cast<U128>(0x6C62272E07BB0142ULL) << 64) |
           0x62B821756295C58DULL;
};

/// Everything a digest-armed run captures. Entries[0] = post-init,
/// Entries[k] = after superstep k. When the state log is armed too
/// (HasStates), Status and Slots hold the full canonicalized per-strand
/// state for every entry — Status[e * NumStrands + s] and
/// Slots[(e * NumStrands + s) * NumSlots + k] — powering first-divergent-
/// strand diagnosis and --dump-strand. This in-memory layout is also the
/// layout of a bundle's states.bin (observe/replay.h) and of the
/// ddr_digest_read copy out of a native .so.
struct DigestLog {
  int64_t NumStrands = 0;
  int64_t NumSlots = 0;
  std::vector<support::Hash128> Entries;
  bool HasStates = false;
  std::vector<uint8_t> Status; ///< per-entry per-strand status bytes
  std::vector<uint64_t> Slots; ///< per-entry per-strand canonical slot bits

  void clear() {
    NumStrands = NumSlots = 0;
    Entries.clear();
    HasStates = false;
    Status.clear();
    Slots.clear();
  }
  size_t entries() const { return Entries.size(); }
};

/// Appends one digest entry to a DigestLog: feed every strand's status and
/// slots in canonical order, then finish(). With the state log armed, the
/// canonical status bytes and slot words are retained as they are hashed.
/// The one capture path of both engines.
class DigestEntryWriter {
public:
  explicit DigestEntryWriter(DigestLog &L) : L(L) {}
  void status(uint8_t S) {
    H.status(S);
    if (L.HasStates)
      L.Status.push_back(S);
  }
  void slot(double V) {
    uint64_t B = canonicalBits(V);
    H.slotBits(B);
    if (L.HasStates)
      L.Slots.push_back(B);
  }
  void finish() { L.Entries.push_back(H.digest()); }

private:
  DigestLog &L;
  StrandStateHasher H;
};

} // namespace diderot::observe

#endif // DIDEROT_OBSERVE_DIGEST_H
