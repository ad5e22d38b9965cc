#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/thread_pool.h"

namespace pb {

namespace {

using hmd::api::ScoreResult;
namespace api = hmd::api;

double entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
}

double score_under(hmd::core::UncertaintyMode mode, const OracleRow& row) {
  using hmd::core::UncertaintyMode;
  switch (mode) {
    case UncertaintyMode::kVoteEntropy: return row.vote_entropy;
    case UncertaintyMode::kSoftEntropy: return row.soft_entropy;
    case UncertaintyMode::kExpectedEntropy: return row.expected_entropy;
    case UncertaintyMode::kMutualInformation: return row.mutual_information;
    case UncertaintyMode::kVariationRatio: return row.variation_ratio;
    case UncertaintyMode::kMaxProbability: return row.max_probability;
  }
  return row.vote_entropy;
}

/// Total-order rank of a double, so ULP distance is a subtraction.
std::uint64_t rank_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) ? ~bits : (bits | 0x8000000000000000ull);
}

Deviation g_deviation;

bool close_enough(double got, double want, bool fast) {
  const double abs_diff = std::abs(got - want);
  const std::uint64_t a = rank_of(got), b = rank_of(want);
  const std::uint64_t ulps = a > b ? a - b : b - a;
  if (fast) {
    g_deviation.fast_abs = std::max(g_deviation.fast_abs, abs_diff);
    g_deviation.fast_ulps = std::max(g_deviation.fast_ulps, ulps);
    // The fast band is defined against the exact value; the oracle may
    // itself sit kExactUlps away from it.
    return ulps <= kFastUlps + kExactUlps || abs_diff <= kFastAbs;
  }
  g_deviation.exact_abs = std::max(g_deviation.exact_abs, abs_diff);
  g_deviation.exact_ulps = std::max(g_deviation.exact_ulps, ulps);
  return ulps <= kExactUlps || abs_diff <= kExactAbs;
}

}  // namespace

Oracle::Oracle(const hmd::core::TrustedHmd& fitted, const hmd::Matrix& x)
    : n_members_(fitted.config().n_members),
      threshold_(fitted.config().entropy_threshold) {
  const hmd::ml::Bagging& ensemble = fitted.ensemble();
  const hmd::ml::StandardScaler& scaler = fitted.input_scaler();
  const bool scale =
      fitted.config().model != hmd::core::ModelKind::kRandomForest;
  const hmd::core::UncertaintyMode mode = fitted.config().mode;
  const double m = static_cast<double>(n_members_);
  rows_.resize(x.rows());

  auto body = [&](std::size_t begin, std::size_t end) {
    std::vector<double> scaled, probabilities;
    for (std::size_t r = begin; r < end; ++r) {
      hmd::RowView row = x.row(r);
      if (scale) {
        scaler.transform_row(row, scaled);
        row = hmd::RowView(scaled.data(), scaled.size());
      }
      ensemble.member_probabilities(row, probabilities);
      std::int32_t votes = 0;
      double sum_p1 = 0.0, sum_entropy = 0.0;
      for (const double p : probabilities) {
        votes += p > 0.5 ? 1 : 0;
        sum_p1 += p;
        sum_entropy += entropy(p);
      }
      OracleRow& out = rows_[r];
      const double p1 = sum_p1 / m;
      out.votes = votes;
      out.prediction = 2 * votes > n_members_ ? 1 : 0;
      out.confidence = out.prediction == 1 ? p1 : 1.0 - p1;
      out.vote_entropy = entropy(static_cast<double>(votes) / m);
      out.soft_entropy = entropy(p1);
      out.expected_entropy = sum_entropy / m;
      out.mutual_information = out.soft_entropy - out.expected_entropy;
      const double v = static_cast<double>(votes);
      out.variation_ratio = 1.0 - std::max(v, m - v) / m;
      out.max_probability = 1.0 - std::max(p1, 1.0 - p1);
      out.score = score_under(mode, out);
      out.trusted = out.score <= threshold_ ? 1 : 0;
    }
  };
  hmd::core::ThreadPool pool(0);
  pool.parallel_for(x.rows(), body);
}

const Deviation& observed_deviation() { return g_deviation; }

std::string check_rows(const ScoreResult& got, std::size_t offset,
                       api::OutputMask mask, hmd::core::Accuracy tier,
                       const Oracle& oracle, std::size_t oracle_row,
                       std::size_t n) {
  const bool fast = tier == hmd::core::Accuracy::kFast;
  const double ln2 = std::log(2.0);
  const double tol = fast ? kFastAbs : kExactAbs;
  if (got.rows < offset + n) return "result has fewer rows than requested";
  if (oracle_row + n > oracle.rows()) return "oracle row out of range";

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = offset + i;
    const OracleRow& want = oracle[oracle_row + i];
    auto fail = [&](const char* what) {
      return std::string(what) + " differs at oracle row " +
             std::to_string(oracle_row + i);
    };
    auto dcheck = [&](api::Output bit, const std::vector<double>& column,
                      double expect, const char* what, bool entropy_like) {
      if (!(mask & bit)) return std::string();
      const double value = column[r];
      if (!close_enough(value, expect, fast)) return fail(what);
      if (entropy_like && !(value >= -tol && value <= ln2 + tol)) {
        return std::string(what) + " outside [0, ln 2]";
      }
      return std::string();
    };
    if ((mask & api::kOutPrediction) && got.prediction[r] != want.prediction) {
      return fail("prediction");
    }
    if ((mask & api::kOutVotes) && got.votes[r] != want.votes) {
      return fail("votes");
    }
    if ((mask & api::kOutTrusted) && got.trusted[r] != want.trusted) {
      return fail("trusted");
    }
    for (const std::string& why :
         {dcheck(api::kOutConfidence, got.confidence, want.confidence,
                 "confidence", false),
          dcheck(api::kOutVoteEntropy, got.vote_entropy, want.vote_entropy,
                 "vote_entropy", true),
          dcheck(api::kOutSoftEntropy, got.soft_entropy, want.soft_entropy,
                 "soft_entropy", true),
          dcheck(api::kOutExpectedEntropy, got.expected_entropy,
                 want.expected_entropy, "expected_entropy", true),
          dcheck(api::kOutMutualInformation, got.mutual_information,
                 want.mutual_information, "mutual_information", false),
          dcheck(api::kOutVariationRatio, got.variation_ratio,
                 want.variation_ratio, "variation_ratio", false),
          dcheck(api::kOutMaxProbability, got.max_probability,
                 want.max_probability, "max_probability", false),
          dcheck(api::kOutScore, got.score, want.score, "score", false)}) {
      if (!why.empty()) return why;
    }
    if ((mask & api::kOutMutualInformation) &&
        got.mutual_information[r] < -tol) {
      return "mutual information below zero";
    }
    if ((mask & api::kOutPrediction) && (mask & api::kOutVotes) &&
        got.prediction[r] != (2 * got.votes[r] > oracle.n_members() ? 1 : 0)) {
      return "prediction disagrees with votes";
    }
    if ((mask & api::kOutScore) && (mask & api::kOutTrusted) &&
        got.trusted[r] != (got.score[r] <= oracle.threshold() ? 1 : 0)) {
      return "trusted disagrees with score";
    }
  }
  return std::string();
}

}  // namespace pb
