#include "enkf/verification.hpp"

#include <algorithm>

#include "linalg/cholesky.hpp"
#include "linalg/covariance.hpp"
#include "linalg/ops.hpp"

namespace senkf::enkf {

InnovationStats innovation_statistics(
    const std::vector<grid::Field>& ensemble,
    const obs::ObservationSet& observations) {
  SENKF_REQUIRE(ensemble.size() >= 2,
                "innovation_statistics: need >= 2 members");
  const Index m = observations.size();
  const Index n_members = ensemble.size();
  SENKF_REQUIRE(m > 0, "innovation_statistics: need observations");

  // Ensemble predictions HX in observation space (columns are members),
  // centred below into the anomalies Ŷ.
  linalg::Matrix anomalies(m, n_members);
  for (Index k = 0; k < n_members; ++k) {
    for (Index r = 0; r < m; ++r) {
      anomalies(r, k) = observations.components()[r].apply(ensemble[k]);
    }
  }

  // Innovation d = y − H x̄, anomalies Ŷ = HX − H x̄ 1ᵀ and diagonal R⁻¹.
  const linalg::Vector mean = linalg::ensemble_mean(anomalies);
  linalg::Vector innovation(m);
  linalg::Vector rinv(m);
  double bias = 0.0;
  for (Index r = 0; r < m; ++r) {
    for (Index k = 0; k < n_members; ++k) anomalies(r, k) -= mean[r];
    innovation[r] = observations.values()[r] - mean[r];
    bias += innovation[r];
    const double std_dev = observations.components()[r].error_std;
    rinv[r] = 1.0 / (std_dev * std_dev);
  }

  // S = R + ŶŶᵀ/(N−1) is diagonal plus rank N−1, so by Woodbury
  // S⁻¹d = R⁻¹(d − Ŷz) with ((N−1)I + ŶᵀR⁻¹Ŷ) z = ŶᵀR⁻¹d: an N×N solve
  // instead of an m×m one.
  linalg::Matrix weighted = anomalies;
  linalg::row_scale(rinv, weighted);
  linalg::Matrix core = linalg::multiply_at_b(anomalies, weighted);
  const double dof = static_cast<double>(n_members - 1);
  for (Index k = 0; k < n_members; ++k) core(k, k) += dof;
  const linalg::Vector rhs = linalg::multiply_at(weighted, innovation);
  const linalg::Vector z = linalg::CholeskyFactor(core).solve(rhs);

  // With e = d − Ŷz, dᵀS⁻¹d = eᵀR⁻¹e + (N−1)zᵀz: two non-negative terms,
  // so no cancellation (DESIGN.md §6).
  const linalg::Vector residual =
      linalg::subtract(innovation, linalg::multiply(anomalies, z));
  double chi2 = dof * linalg::dot(z, z);
  for (Index r = 0; r < m; ++r) chi2 += residual[r] * residual[r] * rinv[r];

  InnovationStats stats;
  stats.observations = m;
  stats.mean_innovation = bias / static_cast<double>(m);
  stats.chi2 = chi2;
  return stats;
}

std::vector<std::size_t> rank_histogram(
    const std::vector<grid::Field>& ensemble,
    const obs::ObservationSet& observations, Rng& rng) {
  SENKF_REQUIRE(ensemble.size() >= 2, "rank_histogram: need >= 2 members");
  const Index n_members = ensemble.size();
  std::vector<std::size_t> counts(n_members + 1, 0);

  std::vector<double> predictions(n_members);
  for (Index r = 0; r < observations.size(); ++r) {
    const auto& component = observations.components()[r];
    for (Index k = 0; k < n_members; ++k) {
      // Perturb predictions by the observation error so the ensemble and
      // the observation live in the same (noisy) space.
      predictions[k] = component.apply(ensemble[k]) +
                       rng.normal(0.0, component.error_std);
    }
    std::sort(predictions.begin(), predictions.end());
    const double value = observations.values()[r];
    const std::size_t rank =
        std::lower_bound(predictions.begin(), predictions.end(), value) -
        predictions.begin();
    ++counts[rank];
  }
  return counts;
}

double histogram_flatness_chi2(const std::vector<std::size_t>& counts) {
  SENKF_REQUIRE(!counts.empty(), "histogram_flatness_chi2: empty histogram");
  double total = 0.0;
  for (const std::size_t c : counts) total += static_cast<double>(c);
  SENKF_REQUIRE(total > 0.0, "histogram_flatness_chi2: no samples");
  const double expected = total / static_cast<double>(counts.size());
  double chi2 = 0.0;
  for (const std::size_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

}  // namespace senkf::enkf
