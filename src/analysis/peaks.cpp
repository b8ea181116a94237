#include "analysis/peaks.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/regression.hpp"
#include "common/stats.hpp"
#include "obs/span.hpp"

namespace biosens::analysis {
namespace {

struct Branch {
  std::span<const double> e;
  std::span<const double> i;
  std::size_t offset = 0;  ///< index of branch start in the voltammogram
};

/// True when every potential of the branch is the same: a sweep that
/// does not sweep, which no line fit can detrend.
bool is_flat(std::span<const double> e) {
  return std::adjacent_find(e.begin(), e.end(), std::not_equal_to<>()) ==
         e.end();
}

/// Splits the voltammogram into its two sweep branches.
Expected<std::pair<Branch, Branch>> try_split(
    const electrochem::Voltammogram& vg) {
  if (auto v = vg.try_validate(); !v) {
    return ctx("split sweep",
               Expected<std::pair<Branch, Branch>>(v.error()));
  }
  BIOSENS_EXPECT(vg.size() >= 8, ErrorCode::kAnalysis, Layer::kAnalysis,
                 "split sweep", "voltammogram too short");
  BIOSENS_EXPECT(vg.turning_index > 2 && vg.turning_index < vg.size() - 2,
                 ErrorCode::kAnalysis, Layer::kAnalysis, "split sweep",
                 "voltammogram turning index out of range");
  const std::size_t t = vg.turning_index;
  Branch first{std::span(vg.potential_v).subspan(0, t),
               std::span(vg.current_a).subspan(0, t), 0};
  Branch second{std::span(vg.potential_v).subspan(t),
                std::span(vg.current_a).subspan(t), t};
  BIOSENS_EXPECT(!is_flat(first.e) && !is_flat(second.e),
                 ErrorCode::kAnalysis, Layer::kAnalysis, "split sweep",
                 "voltammogram branch potentials do not vary");
  return std::pair<Branch, Branch>{first, second};
}

/// True when the branch sweeps toward negative potentials.
bool is_cathodic(const Branch& b) { return b.e.back() < b.e.front(); }

/// Extracts the extreme peak of a branch. `sign` = -1 finds dips
/// (cathodic), +1 finds bumps (anodic).
///
/// The peak is located as the extremum of the current *detrended by a
/// whole-branch line fit* (robust against sloped capacitive/resistive
/// backgrounds), over the branch interior — the first 10% (switch-on
/// transient) and last 15% (approach to the vertex / re-entry into
/// interferent oxidation) are excluded. Its height is then measured
/// against a baseline fitted on a short window just before the peak
/// onset ([4w, 6w] before the peak, w = RT/F, where the Laviron bell
/// flank has decayed to a few percent). The local window makes the
/// height immune to curved backgrounds elsewhere in the sweep (e.g. the
/// ascorbate oxidation tail in serum samples), which any long-range
/// baseline would fold in.
std::optional<Peak> extreme_peak(const Branch& b, double sign) {
  const std::size_t n = b.e.size();
  if (n < 16) return std::nullopt;
  const std::size_t k_lo = n / 10;
  const std::size_t k_hi = static_cast<std::size_t>(0.85 * n);

  const LinearFit trend = fit_ols(b.e, b.i);
  std::size_t best_idx = k_lo;
  double best_dev = sign * (b.i[k_lo] - trend.predict(b.e[k_lo]));
  for (std::size_t k = k_lo; k < k_hi; ++k) {
    const double dev = sign * (b.i[k] - trend.predict(b.e[k]));
    if (dev > best_dev) {
      best_dev = dev;
      best_idx = k;
    }
  }

  // Local pre-peak baseline window.
  constexpr double kBellScaleV = 0.0257;  // RT/F at room temperature
  const double e_peak = b.e[best_idx];
  const double toward_start = b.e.front() > b.e.back() ? +1.0 : -1.0;
  const double lo = e_peak + toward_start * 4.0 * kBellScaleV;
  const double hi = e_peak + toward_start * 6.0 * kBellScaleV;
  std::vector<double> we, wi;
  for (std::size_t k = 0; k < best_idx; ++k) {
    const double e = b.e[k];
    if ((e - lo) * (e - hi) <= 0.0) {
      we.push_back(e);
      wi.push_back(b.i[k]);
    }
  }
  if (we.size() < 5 || is_flat(we)) {
    // Peak too close to the branch start (or the window holds a single
    // potential) to establish a baseline.
    return std::nullopt;
  }
  const LinearFit baseline = fit_ols(we, wi);
  std::vector<double> residuals;
  residuals.reserve(we.size());
  for (std::size_t k = 0; k < we.size(); ++k) {
    residuals.push_back(wi[k] - baseline.predict(we[k]));
  }
  const double spread = sample_stddev(residuals);

  const double height = sign * (b.i[best_idx] - baseline.predict(e_peak));
  if (height <= 3.0 * spread) return std::nullopt;

  Peak p;
  p.potential_v = e_peak;
  p.height_a = height;
  p.baseline_a = baseline.predict(e_peak);
  p.index = b.offset + best_idx;
  return p;
}

/// Finds the branch sweeping in the requested direction; a structured
/// error for a malformed voltammogram, nullopt when neither branch
/// sweeps that way.
Expected<std::optional<Branch>> try_branch_with_direction(
    const electrochem::Voltammogram& vg, bool cathodic) {
  auto branches = try_split(vg);
  if (!branches) return branches.error();
  const auto& [first, second] = branches.value();
  if (is_cathodic(first) == cathodic) return std::optional<Branch>(first);
  if (is_cathodic(second) == cathodic) return std::optional<Branch>(second);
  return std::optional<Branch>{};
}

}  // namespace

Expected<std::optional<Peak>> try_find_cathodic_peak(
    const electrochem::Voltammogram& vg) {
  obs::ObsSpan span(Layer::kAnalysis, "peak-detect");
  return span.watch(
      try_branch_with_direction(vg, /*cathodic=*/true)
          .map([](const std::optional<Branch>& branch) {
            return branch.has_value() ? extreme_peak(*branch, -1.0)
                                      : std::optional<Peak>{};
          }));
}

Expected<std::optional<Peak>> try_find_anodic_peak(
    const electrochem::Voltammogram& vg) {
  return try_branch_with_direction(vg, /*cathodic=*/false)
      .map([](const std::optional<Branch>& branch) {
        return branch.has_value() ? extreme_peak(*branch, +1.0)
                                  : std::optional<Peak>{};
      });
}

Expected<double> try_hysteresis_area(const electrochem::Voltammogram& vg) {
  // Shoelace integral over the closed E-i loop.
  const std::size_t n = vg.size();
  BIOSENS_EXPECT(n >= 3, ErrorCode::kAnalysis, Layer::kAnalysis,
                 "hysteresis area", "voltammogram too short");
  double area = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t next = (k + 1) % n;
    area += vg.potential_v[k] * vg.current_a[next] -
            vg.potential_v[next] * vg.current_a[k];
  }
  return std::abs(0.5 * area);
}

std::optional<Potential> peak_separation(
    const electrochem::Voltammogram& vg) {
  const auto anodic = try_find_anodic_peak(vg).value();
  const auto cathodic = try_find_cathodic_peak(vg).value();
  if (!anodic.has_value() || !cathodic.has_value()) return std::nullopt;
  return Potential::volts(
      std::abs(anodic->potential_v - cathodic->potential_v));
}

std::optional<Peak> find_dpv_peak(const electrochem::DpvTrace& trace) {
  const obs::ObsSpan span(Layer::kAnalysis, "dpv-peak-detect");
  const std::size_t n = trace.size();
  if (n < 16) return std::nullopt;
  // Skip the staircase head: the switch-on region carries the
  // interferent-onset differential edge in real (serum) samples.
  const std::size_t k_lo = static_cast<std::size_t>(0.15 * n);
  const std::size_t base_n =
      std::max<std::size_t>(static_cast<std::size_t>(0.30 * n), k_lo + 3);

  const double base = median(std::span(trace.delta_current_a)
                                 .subspan(k_lo, base_n - k_lo));
  std::vector<double> residuals;
  residuals.reserve(base_n - k_lo);
  for (std::size_t k = k_lo; k < base_n; ++k) {
    residuals.push_back(trace.delta_current_a[k] - base);
  }
  const double spread = sample_stddev(residuals);

  std::size_t best_idx = base_n;
  for (std::size_t k = base_n; k < n; ++k) {
    if (trace.delta_current_a[k] < trace.delta_current_a[best_idx]) {
      best_idx = k;
    }
  }
  const double height = base - trace.delta_current_a[best_idx];
  if (height <= 3.0 * spread) return std::nullopt;

  Peak p;
  p.potential_v = trace.potential_v[best_idx];
  p.height_a = height;
  p.baseline_a = base;
  p.index = best_idx;
  return p;
}

}  // namespace biosens::analysis
