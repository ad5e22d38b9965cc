#pragma once
// The benchmark's own answer key, computed apart from the serving path.
//
// For every source row it asks the trained ml::Bagging for each member's
// P(malware) (after the detector's input scaler, for the linear models)
// and derives every ScoreResult column itself: votes, prediction,
// confidence, vote / soft / expected entropy, mutual information,
// variation ratio, max probability, score and trusted. Nothing here goes
// through the flat engines, an artifact, the JIT, the registry or the
// server, so a served answer is checked against an independent reference,
// not against a saved copy of the program's own output.

#include <cstdint>
#include <string>
#include <vector>

#include "api/score.h"
#include "common/matrix.h"
#include "core/hmd.h"

namespace pb {

struct OracleRow {
  std::int32_t prediction = 0;
  std::int32_t votes = 0;
  double confidence = 0.0;
  double vote_entropy = 0.0;
  double soft_entropy = 0.0;
  double expected_entropy = 0.0;
  double mutual_information = 0.0;
  double variation_ratio = 0.0;
  double max_probability = 0.0;
  double score = 0.0;
  std::uint8_t trusted = 0;
};

/// Tolerances of the comparison. Exact tier: the engines promise bit
/// parity with the member-by-member path; the oracle re-derives the
/// columns with its own code, so a few ULP (or 1e-14 absolute, for
/// cancelling mutual information) is allowed. Fast tier: the documented
/// band of the vectorised kernels, 8 ULP or 1e-12 absolute.
inline constexpr std::uint64_t kExactUlps = 4;
inline constexpr double kExactAbs = 1e-14;
inline constexpr std::uint64_t kFastUlps = 8;
inline constexpr double kFastAbs = 1e-12;

class Oracle {
 public:
  /// Reference answers for every row of `x` from `fitted`'s ensemble.
  Oracle(const hmd::core::TrustedHmd& fitted, const hmd::Matrix& x);

  std::size_t rows() const { return rows_.size(); }
  const OracleRow& operator[](std::size_t r) const { return rows_[r]; }
  int n_members() const { return n_members_; }
  double threshold() const { return threshold_; }

 private:
  std::vector<OracleRow> rows_;
  int n_members_ = 0;
  double threshold_ = 0.0;
};

/// Largest deviations from the oracle seen so far, per tier (reported in
/// the run record).
struct Deviation {
  double exact_abs = 0.0;
  double fast_abs = 0.0;
  std::uint64_t exact_ulps = 0;
  std::uint64_t fast_ulps = 0;
};
const Deviation& observed_deviation();

/// Check rows [offset, offset + n) of `got` (columns selected by `mask`,
/// scored at `tier`) against oracle rows [oracle_row, oracle_row + n), and
/// check the per-row properties: entropies in [0, ln 2], mutual
/// information >= -tolerance, prediction agrees with the votes, trusted
/// holds exactly when score <= the threshold. Returns "" when every check
/// passes, else a description of the first failure.
std::string check_rows(const hmd::api::ScoreResult& got, std::size_t offset,
                       hmd::api::OutputMask mask, hmd::core::Accuracy tier,
                       const Oracle& oracle, std::size_t oracle_row,
                       std::size_t n);

}  // namespace pb
