// The AVMEM membership-predicate family (paper Section 2).
//
// A membership predicate decides M(x, y) — "should y be in x's list" — via
//
//   M(x, y)  ≡  H(id(x), id(y)) ≤ f(av(x), av(y))            (eq. 1)
//
// with f composed of a *horizontal* sub-predicate (applied when
// |av(x) - av(y)| < eps) and a *vertical* sub-predicate (otherwise):
//
//   f(ax, ay) = hs(ax, ay, p)   if |ax - ay| < eps
//             = vs(ax, ay, p)   otherwise
//
// This header implements every sub-predicate the paper defines (I.A, I.B,
// I.C, II.A, II.B), the composite, and the consistent-random baseline used
// in Figure 10. All are pure functions of (availabilities, PDF, N*):
// randomization comes from H, consistency from having no other inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/availability_pdf.hpp"

namespace avmem::core {

/// Branch-free admission mask over a contiguous hash array:
/// mask[i] = (hashes[i] <= threshold); returns the admitted count. The
/// compare is a straight-line vectorizable loop, and the returned count
/// lets scan consumers (the candidate feed's pre-filter) skip the
/// per-entry emission pass entirely when nothing qualified — the common
/// case for the low thresholds eq. 1 produces at scale. Requires
/// mask.size() >= hashes.size().
[[nodiscard]] inline std::size_t admissionMask(
    std::span<const double> hashes, double threshold,
    std::span<std::uint8_t> mask) noexcept {
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    const std::uint8_t in = hashes[i] <= threshold ? 1 : 0;
    mask[i] = in;
    admitted += in;
  }
  return admitted;
}

/// Which sliver a peer falls into relative to a node.
enum class SliverKind : std::uint8_t {
  kHorizontal,  ///< |av(x) - av(y)| < eps
  kVertical,    ///< otherwise
};

/// Which neighbor lists an operation uses (paper Section 3.2 variants).
enum class SliverSet : std::uint8_t {
  kHsOnly,
  kVsOnly,
  kHsAndVs,
};

[[nodiscard]] constexpr const char* toString(SliverSet s) noexcept {
  switch (s) {
    case SliverSet::kHsOnly:
      return "HS-only";
    case SliverSet::kVsOnly:
      return "VS-only";
    case SliverSet::kHsAndVs:
      return "HS+VS";
  }
  return "?";
}

/// The vertical half of f: a rule over both availabilities.
class VerticalSubPredicate {
 public:
  virtual ~VerticalSubPredicate() = default;

  /// The sub-predicate value in [0, 1]; `ax` = av(x) (list owner),
  /// `ay` = av(y) (candidate).
  [[nodiscard]] virtual double value(double ax, double ay,
                                     const AvailabilityPdf& pdf) const = 0;

  /// Identifier used in logs and bench output.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The horizontal half of f. The paper defines II.A and II.B over av(x)
/// alone — av(y) only decides, through eps, that this half applies — so
/// the value is a function of the list owner and the PDF.
class HorizontalSubPredicate {
 public:
  virtual ~HorizontalSubPredicate() = default;

  /// The sub-predicate value in [0, 1]; `ax` = av(x) (list owner).
  [[nodiscard]] virtual double value(double ax,
                                     const AvailabilityPdf& pdf) const = 0;

  /// Identifier used in logs and bench output.
  [[nodiscard]] virtual std::string name() const = 0;
};

// ---------------------------------------------------------------------------
// Vertical sub-predicates.
// ---------------------------------------------------------------------------

/// I.A — Constant Vertical Sliver: vs = d1, "d1 = O(log N*)".
///
/// The paper's d1 is an expected neighbor *count* although f must lie in
/// [0, 1]; we resolve the ambiguity by accepting the expected count and
/// normalizing by the candidate population N*: f = min(d1 / N*, 1). Under
/// a uniform availability PDF this is exactly "each of the ~N* candidates
/// accepted with equal probability, d1 expected picks". A raw
/// constant-fraction variant is available via `ConstantFractionSub`.
class ConstantVerticalSub final : public VerticalSubPredicate {
 public:
  /// `expectedCount` = d1. Pass c * log(N*) for the paper's sizing.
  explicit ConstantVerticalSub(double expectedCount)
      : expectedCount_(expectedCount) {}

  [[nodiscard]] double value(double, double,
                             const AvailabilityPdf& pdf) const override {
    return std::clamp(expectedCount_ / pdf.nStar(), 0.0, 1.0);
  }

  [[nodiscard]] std::string name() const override {
    return "vs-constant(d1=" + std::to_string(expectedCount_) + ")";
  }

 private:
  double expectedCount_;
};

/// I.B — Logarithmic Vertical Sliver:
///   vs = min(c1 * log(N*) / (N* * p(av(y))), 1)
///
/// Guarantees uniform coverage of the availability space (Theorem 1): the
/// expected number of vertical neighbors in any width-da interval is
/// c1*log(N*)*da, independent of where the interval lies. Empty PDF bins
/// (p = 0) saturate to 1 — there are no such nodes in expectation, and any
/// stray one is maximally valuable for coverage.
class LogarithmicVerticalSub final : public VerticalSubPredicate {
 public:
  explicit LogarithmicVerticalSub(double c1) : c1_(c1) {}

  [[nodiscard]] double value(double, double ay,
                             const AvailabilityPdf& pdf) const override {
    const double density = pdf.density(ay);
    if (density <= 0.0) return 1.0;
    return std::clamp(c1_ * pdf.logNStar() / (pdf.nStar() * density), 0.0,
                      1.0);
  }

  [[nodiscard]] std::string name() const override {
    return "vs-logarithmic(c1=" + std::to_string(c1_) + ")";
  }

 private:
  double c1_;
};

/// I.C — Logarithmic-Decreasing Vertical Sliver:
///   vs = min(c1 * log(N*) / (N* * p(av(y)) * |av(y) - av(x)|), 1)
///
/// Density of vertical neighbors decays with availability distance,
/// yielding exponentially-spaced "fingers" akin to Chord/Pastry routing
/// entries (Corollary 1.1). Distances below one PDF bin saturate to 1.
class LogarithmicDecreasingVerticalSub final : public VerticalSubPredicate {
 public:
  explicit LogarithmicDecreasingVerticalSub(double c1) : c1_(c1) {}

  [[nodiscard]] double value(double ax, double ay,
                             const AvailabilityPdf& pdf) const override {
    const double density = pdf.density(ay);
    const double dist = std::abs(ay - ax);
    if (density <= 0.0 || dist <= 0.0) return 1.0;
    return std::clamp(
        c1_ * pdf.logNStar() / (pdf.nStar() * density * dist), 0.0, 1.0);
  }

  [[nodiscard]] std::string name() const override {
    return "vs-log-decreasing(c1=" + std::to_string(c1_) + ")";
  }

 private:
  double c1_;
};

// ---------------------------------------------------------------------------
// Horizontal sub-predicates.
// ---------------------------------------------------------------------------

/// II.A — Constant Horizontal Sliver: hs = d2, "d2 = O(log N*)".
///
/// Same count-vs-fraction ambiguity as I.A, resolved the same way but
/// normalized by the *in-range* candidate population N*_av(x):
/// f = min(d2 / N*_av(x), 1).
class ConstantHorizontalSub final : public HorizontalSubPredicate {
 public:
  ConstantHorizontalSub(double expectedCount, double epsilon)
      : expectedCount_(expectedCount), epsilon_(epsilon) {}

  [[nodiscard]] double value(double ax,
                             const AvailabilityPdf& pdf) const override {
    const double candidates = pdf.nStarAv(ax, epsilon_);
    if (candidates <= 0.0) return 1.0;
    return std::clamp(expectedCount_ / candidates, 0.0, 1.0);
  }

  [[nodiscard]] std::string name() const override {
    return "hs-constant(d2=" + std::to_string(expectedCount_) + ")";
  }

 private:
  double expectedCount_;
  double epsilon_;
};

/// II.B — Logarithmic-Constant Horizontal Sliver:
///   hs = min(c2 * log(N*_av(x)) / N*min_av(x), 1)
///
/// The paper's default. Ensures the sub-overlay of nodes within +-eps of
/// av(x) is connected w.h.p. (Theorem 2) while keeping the expected list
/// size O(log N*) when the PDF is not too skewed (Theorem 3). The log
/// argument is floored at 2 so that nearly-empty regions saturate toward
/// accepting every candidate instead of collapsing to f = 0.
class LogConstantHorizontalSub final : public HorizontalSubPredicate {
 public:
  LogConstantHorizontalSub(double c2, double epsilon)
      : c2_(c2), epsilon_(epsilon) {}

  [[nodiscard]] double value(double ax,
                             const AvailabilityPdf& pdf) const override {
    const double nAv = std::max(pdf.nStarAv(ax, epsilon_), 2.0);
    const double nMin = pdf.nStarMinAv(ax, epsilon_);
    if (nMin <= 0.0) return 1.0;
    return std::clamp(c2_ * std::log(nAv) / nMin, 0.0, 1.0);
  }

  [[nodiscard]] std::string name() const override {
    return "hs-log-constant(c2=" + std::to_string(c2_) + ")";
  }

 private:
  double c2_;
  double epsilon_;
};

// ---------------------------------------------------------------------------
// Baseline.
// ---------------------------------------------------------------------------

/// f = p regardless of availabilities: the consistent-random overlay the
/// paper compares against in Figure 10 ("a random overlay graph similar to
/// those created by ... SCAMP, CYCLON, T-MAN"), with AVMEM's added
/// consistency. Usable on either side of the composite.
class ConstantFractionSub final : public HorizontalSubPredicate,
                                  public VerticalSubPredicate {
 public:
  explicit ConstantFractionSub(double p) : p_(std::clamp(p, 0.0, 1.0)) {}

  [[nodiscard]] double value(double, const AvailabilityPdf&) const override {
    return p_;
  }
  [[nodiscard]] double value(double, double,
                             const AvailabilityPdf&) const override {
    return p_;
  }

  [[nodiscard]] std::string name() const override {
    return "constant-fraction(p=" + std::to_string(p_) + ")";
  }

 private:
  double p_;
};

// ---------------------------------------------------------------------------
// The composite predicate.
// ---------------------------------------------------------------------------

/// f(ax, ay) with the horizontal/vertical split at eps, plus the shared
/// PDF. This object is immutable and shared by every node — it *is* the
/// application-specified AVMEM predicate.
///
/// A list owner evaluating a round's candidates binds the predicate to
/// its own availability with at(ax) and asks the returned row, which
/// holds the horizontal value. The scalar f/evaluate forms serve one-off
/// pairs and compute only the half that applies. Both go through one
/// definition of the split (split()).
class AvmemPredicate {
 public:
  /// eq. 1 bound to one list owner x: holds av(x) and the horizontal
  /// value, computed once when the row is built. A plain value, cheap to
  /// copy, that must not outlive its predicate; nothing in it changes
  /// after construction, so rows on any number of threads are
  /// independent.
  class Row {
   public:
    /// Horizontal iff |av(x) - ay| < eps.
    [[nodiscard]] SliverKind classify(double ay) const noexcept {
      return pred_->classify(ax_, ay);
    }

    /// The threshold f(av(x), ay) the pair hash is compared against.
    [[nodiscard]] double f(double ay) const {
      return pred_->split(ax_, ay, [this] { return hs_; });
    }

    /// Evaluate M(x, y) given the (already computed) pair hash;
    /// `cushion` relaxes the threshold for receiver-side verification
    /// (Figures 5-6).
    [[nodiscard]] bool evaluate(double pairHash, double ay,
                                double cushion = 0.0) const {
      return pairHash <= f(ay) + cushion;
    }

    /// kinds[i] = classify(ays[i]). Requires kinds.size() >= ays.size().
    void classifyMany(std::span<const double> ays,
                      std::span<SliverKind> kinds) const noexcept {
      pred_->classifyMany(ax_, ays, kinds);
    }

    /// out[i] = evaluate(pairHashes[i], ays[i], cushion), element by
    /// element the scalar form. Requires out.size() >= ays.size() and
    /// pairHashes.size() >= ays.size().
    void evaluateMany(std::span<const double> pairHashes,
                      std::span<const double> ays, double cushion,
                      std::span<std::uint8_t> out) const {
      for (std::size_t i = 0; i < ays.size(); ++i) {
        out[i] = evaluate(pairHashes[i], ays[i], cushion) ? 1 : 0;
      }
    }

   private:
    friend class AvmemPredicate;
    Row(const AvmemPredicate& pred, double ax)
        : pred_(&pred), ax_(ax), hs_(pred.hs_->value(ax, pred.pdf_)) {}

    const AvmemPredicate* pred_;
    double ax_;
    double hs_;  ///< the horizontal sub-predicate at ax_
  };

  AvmemPredicate(std::shared_ptr<const HorizontalSubPredicate> horizontal,
                 std::shared_ptr<const VerticalSubPredicate> vertical,
                 double epsilon, AvailabilityPdf pdf)
      : hs_(std::move(horizontal)),
        vs_(std::move(vertical)),
        epsilon_(epsilon),
        pdf_(std::move(pdf)) {}

  /// The predicate bound to list owner availability `ax`.
  [[nodiscard]] Row at(double ax) const { return Row(*this, ax); }

  /// Horizontal iff |ax - ay| < eps (paper eq. for f).
  [[nodiscard]] SliverKind classify(double ax, double ay) const noexcept {
    return std::abs(ax - ay) < epsilon_ ? SliverKind::kHorizontal
                                        : SliverKind::kVertical;
  }

  /// The threshold f(av(x), av(y)) for one pair: at(ax).f(ay), without
  /// the horizontal term when the pair is vertical.
  [[nodiscard]] double f(double ax, double ay) const {
    return split(ax, ay, [&] { return hs_->value(ax, pdf_); });
  }

  /// Evaluate M(x, y) for one pair: at(ax).evaluate(pairHash, ay, cushion).
  [[nodiscard]] bool evaluate(double pairHash, double ax, double ay,
                              double cushion = 0.0) const {
    return pairHash <= f(ax, ay) + cushion;
  }

  /// Batch classify() over a contiguous availability array:
  /// kinds[i] = classify(ax, ays[i]). A branch-free compare loop — the
  /// reclassify half of the sliver refresh scan. Requires
  /// kinds.size() >= ays.size().
  void classifyMany(double ax, std::span<const double> ays,
                    std::span<SliverKind> kinds) const noexcept {
    for (std::size_t i = 0; i < ays.size(); ++i) {
      kinds[i] = classify(ax, ays[i]);
    }
  }

  /// at(ax).evaluateMany(pairHashes, ays, cushion, out): one row per
  /// call, the horizontal term computed once for the whole array.
  void evaluateMany(std::span<const double> pairHashes, double ax,
                    std::span<const double> ays, double cushion,
                    std::span<std::uint8_t> out) const {
    at(ax).evaluateMany(pairHashes, ays, cushion, out);
  }

  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  [[nodiscard]] const AvailabilityPdf& pdf() const noexcept { return pdf_; }

  [[nodiscard]] std::string name() const {
    return hs_->name() + " + " + vs_->name() + " (eps=" +
           std::to_string(epsilon_) + ")";
  }

 private:
  /// f's one definition: the eps split, with the horizontal value taken
  /// from `horizontal()` — a row's stored value or a fresh sub-predicate
  /// call.
  template <class Horizontal>
  [[nodiscard]] double split(double ax, double ay,
                             Horizontal horizontal) const {
    return classify(ax, ay) == SliverKind::kHorizontal
               ? horizontal()
               : vs_->value(ax, ay, pdf_);
  }

  std::shared_ptr<const HorizontalSubPredicate> hs_;
  std::shared_ptr<const VerticalSubPredicate> vs_;
  double epsilon_;
  AvailabilityPdf pdf_;
};

// ---------------------------------------------------------------------------
// Factories for the configurations the paper evaluates.
// ---------------------------------------------------------------------------

/// The paper's default overlay: Logarithmic Vertical (I.B) + Logarithmic-
/// Constant Horizontal (II.B).
[[nodiscard]] inline AvmemPredicate makePaperDefaultPredicate(
    AvailabilityPdf pdf, double epsilon = 0.1, double c1 = 1.0,
    double c2 = 1.0) {
  return AvmemPredicate(
      std::make_shared<LogConstantHorizontalSub>(c2, epsilon),
      std::make_shared<LogarithmicVerticalSub>(c1), epsilon, std::move(pdf));
}

/// The Figure-10 baseline: consistent-random overlay with edge
/// probability `p` on both sides of the split.
[[nodiscard]] inline AvmemPredicate makeRandomOverlayPredicate(
    AvailabilityPdf pdf, double p, double epsilon = 0.1) {
  auto sub = std::make_shared<ConstantFractionSub>(p);
  return AvmemPredicate(sub, sub, epsilon, std::move(pdf));
}

/// I.C + II.B: the exponential-finger variant (defined but not evaluated
/// in the paper; exercised by our ablation bench).
[[nodiscard]] inline AvmemPredicate makeLogDecreasingPredicate(
    AvailabilityPdf pdf, double epsilon = 0.1, double c1 = 1.0,
    double c2 = 1.0) {
  return AvmemPredicate(
      std::make_shared<LogConstantHorizontalSub>(c2, epsilon),
      std::make_shared<LogarithmicDecreasingVerticalSub>(c1), epsilon,
      std::move(pdf));
}

/// I.A + II.A: the constant-sliver variant.
[[nodiscard]] inline AvmemPredicate makeConstantSliversPredicate(
    AvailabilityPdf pdf, double d1, double d2, double epsilon = 0.1) {
  return AvmemPredicate(std::make_shared<ConstantHorizontalSub>(d2, epsilon),
                        std::make_shared<ConstantVerticalSub>(d1), epsilon,
                        std::move(pdf));
}

}  // namespace avmem::core
