#ifndef SKNN_CORE_PROTOCOL_CONFIG_H_
#define SKNN_CORE_PROTOCOL_CONFIG_H_

#include <cstdint>
#include <string>

#include "bgv/params.h"
#include "common/status.h"
#include "common/statusor.h"

// Public configuration of the secure k-NN protocol. Everything here is
// known to all parties (including the adversary); secrets are only the
// keys, the data, the query, the masking polynomial and the permutation.
//
// Cost knobs at a glance: query time is linear in n (points), d (dims),
// k, and poly_degree; communication is linear in n and k. coord_bits
// enters the masking coefficient budget — raising it shrinks the room
// for mask randomness at fixed plain_bits, so plain_bits may need to
// grow with it (MaskingPolynomial::Sample enforces the budget).

namespace sknn {
namespace core {

// Ciphertext layout used by Party A (see DESIGN.md §3.4):
//  - kPerPoint: one ciphertext per database point (the paper's layout;
//    uniform permutation over all points, O(n) ciphertexts on the wire).
//  - kPacked: many points per ciphertext (slot packing); faster and far
//    smaller, at the cost of a permutation that only mixes ciphertext
//    blocks and block rotations (Party B additionally learns which masked
//    distances co-reside in a block).
enum class Layout {
  kPerPoint,
  kPacked,
};

const char* LayoutName(Layout layout);

struct ProtocolConfig {
  // Number of neighbours to return. Drives the O(n·k) indicator round:
  // both B's encryption count and the dominant B->A byte volume.
  size_t k = 5;
  // Degree D of the order-preserving masking polynomial m(x). Higher D
  // hardens B's distance-guessing problem (paper §4.2) at the cost of
  // D-1 extra ciphertext multiplies per unit and a steeper coefficient
  // budget. D=1 is accepted for ablation only — an affine mask preserves
  // order but leaks distance ratios to B.
  size_t poly_degree = 2;
  // Bound: every coordinate of data and query lies in [0, 2^coord_bits).
  // This is a protocol precondition, not a hint — out-of-range inputs are
  // rejected at encryption time because they would overflow the masking
  // budget and break order preservation.
  int coord_bits = 4;
  // Data dimensionality.
  size_t dims = 2;
  // Ciphertext layout.
  Layout layout = Layout::kPacked;
  // Lattice parameter preset and chain length.
  bgv::SecurityPreset preset = bgv::SecurityPreset::kBench;
  size_t levels = 4;
  int plain_bits = 33;
  // Level at which Party B encrypts indicator vectors (they undergo one
  // multiplication and one switch before returning to the client).
  size_t indicator_level = 1;
  // Worker threads of each party's pool, which spreads a query's
  // ciphertexts across cores: Party A's distance units and Party B's
  // indicator rows (0 = one per core, 1 = inline on the caller).
  size_t threads = 0;

  // Smallest level count supporting the distance/masking pipeline for this
  // layout and polynomial degree.
  size_t MinimumLevels() const;

  // Builds the BGV parameter set implied by this config.
  StatusOr<bgv::BgvParams> MakeBgvParams() const;

  // Validates internal consistency (degree vs plaintext budget is checked
  // later against the actual modulus by MaskingPolynomial::Sample).
  Status Validate() const;

  // Names every field except `threads`, which is per-process. The
  // deployment handshake fingerprint hashes it (core/deployment.h), so a
  // new field that changes what the parties derive must appear here.
  std::string DebugString() const;
};

}  // namespace core
}  // namespace sknn

#endif  // SKNN_CORE_PROTOCOL_CONFIG_H_
