"""Moment-level machinery: the forced moment recursion, Beta recovery,
sequence classification, and the affine-predictive (Diaconis-Ylvisaker
style) checks.

Decomposability forces a rational recursion on the moments mu_n of the
mixing law: with

    f(x, y, z) = 2x^2 z - x y^2 - x^2 y      and
    g(x, y, z) = z x - 2y^2 + y z,

every decomposable sequence satisfies mu_{n+1} g(mu_n, mu_{n-1}, mu_{n-2})
= f(mu_n, mu_{n-1}, mu_{n-2}) for n >= 2, and f, g never vanish together on
the open region S = {0 < x < y < z < 1} that genuine non-deterministic
moment triples (mu_n, mu_{n-1}, mu_{n-2}) inhabit. Combined with the fact
that a first/second moment pair inside the admissible region pins down a
unique Beta law, the recursion reduces classification to finitely many
exact comparisons per order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .engine import Triple, Verdict, check_decomposable
from .errors import (
    IndexRangeError,
    InternalError,
    MomentRegionError,
    ParameterRangeError,
    ZeroDenominatorError,
)
from .measures import DeFinettiMeasure

# Seed for the reproducible sampling of the moment region S; override per call.
DEFAULT_REGION_SEED = 1729


class ClassificationKind(Enum):
    IID = "IID"
    POLYA = "POLYA"
    NOT_DECOMPOSABLE = "NOT_DECOMPOSABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


Witness = Union[Triple, int]


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying a mixing measure.

    Exactly the fields matching the kind are populated. ``witness`` is a
    residual triple (n, u, z) or a failing moment order n. ``verified_order``
    is the largest moment order actually compared; IID/POLYA verdicts are
    certified only up to it.
    """

    kind: ClassificationKind
    iid_p: Optional[Fraction] = None
    polya_alpha: Optional[Fraction] = None
    polya_beta: Optional[Fraction] = None
    witness: Optional[Witness] = None
    verified_order: int = 0

    def __post_init__(self):
        kind = self.kind
        if kind is ClassificationKind.IID:
            valid = self.iid_p is not None and 0 < self.iid_p < 1
        elif kind is ClassificationKind.POLYA:
            valid = (
                self.polya_alpha is not None
                and self.polya_alpha > 0
                and self.polya_beta is not None
                and self.polya_beta > 0
            )
        elif kind is ClassificationKind.NOT_DECOMPOSABLE:
            valid = self.witness is not None
        else:
            valid = True
        if not valid:
            raise InternalError(f"inconsistent {kind.value} classification: {self}")


def moment_polynomials(x, y, z) -> tuple[Fraction, Fraction]:
    """Evaluate (f, g) at a point, exactly."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    f = 2 * x * x * z - x * y * y - x * x * y
    g = z * x - 2 * y * y + y * z
    return f, g


def moment_recursion_residual(measure: DeFinettiMeasure, n: int) -> Fraction:
    """mu_{n+1} g(mu_n, mu_{n-1}, mu_{n-2}) - f(...); zero is necessary for
    decomposability at every n >= 2."""
    if n < 2:
        raise IndexRangeError("n must be at least 2")
    f, g = moment_polynomials(
        measure.moment(n), measure.moment(n - 1), measure.moment(n - 2)
    )
    return measure.moment(n + 1) * g - f


def next_moment(x, y, z) -> Fraction:
    """The unique continuation f/g forced by decomposability, given the last
    three moments (mu_n, mu_{n-1}, mu_{n-2}) = (x, y, z).

    The point must satisfy 0 < x < y < z <= 1; the z = 1 boundary is the
    first usable triple (mu_2, mu_1, mu_0), whose last entry is the zeroth
    moment.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if not 0 < x < y < z <= 1:
        raise MomentRegionError(
            "moment triple must satisfy 0 < x < y < z <= 1"
        )
    f, g = moment_polynomials(x, y, z)
    if g == 0:
        raise ZeroDenominatorError(
            "g vanishes at this point; the moments already violate the "
            "decomposability recursion degenerately"
        )
    return f / g


def recover_beta(c1, c2) -> tuple[Fraction, Fraction]:
    """The unique Beta parameters with first moment c1 and second moment c2.

    Solves alpha/(alpha+beta) = c1, alpha(alpha+1)/((alpha+beta)(alpha+beta+1)) = c2
    exactly:

        alpha = c1 (c1 - c2) / (c2 - c1^2),
        beta  = (1 - c1) (c1 - c2) / (c2 - c1^2),

    and verifies the result against the defining system by substitution.
    Requires 0 < c1^2 < c2 < c1 < 1; equality c2 = c1^2 is the point-mass
    boundary where no Beta law exists.
    """
    c1, c2 = Fraction(c1), Fraction(c2)
    if not (0 < c1 < 1 and c1 * c1 < c2 < c1):
        raise MomentRegionError(
            "need 0 < c1^2 < c2 < c1 < 1 for a Beta law to exist"
        )
    gap = c2 - c1 * c1
    alpha = c1 * (c1 - c2) / gap
    beta = (1 - c1) * (c1 - c2) / gap
    # mandatory self-check: substitute back into the defining moment system
    total = alpha + beta
    if alpha / total != c1 or alpha * (alpha + 1) / (total * (total + 1)) != c2:
        raise InternalError(f"Beta({alpha}, {beta}) does not reproduce ({c1}, {c2})")
    return alpha, beta


def is_urn_integer_eligible(c1, c2) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether the Beta parameters recovered from (c1, c2) are integers.

    Integer parameters are exactly the case where decomposability coincides
    with being a reinforcement urn process with integer initial composition.
    """
    alpha, beta = recover_beta(c1, c2)
    if alpha.denominator == 1 and beta.denominator == 1:
        return True, (int(alpha), int(beta))
    return False, None


def predictive_affinity_residual(measure: DeFinettiMeasure, n: int, p: int) -> Fraction:
    """Second difference in p of the predictive probabilities at order n.

    Vanishing for all 0 <= p <= n-2 says the map p -> P(next is 1 | p zeros)
    is affine at that n; Beta and point-mass measures satisfy it at every
    order.
    """
    if n < 2:
        raise IndexRangeError("n must be at least 2")
    if not 0 <= p <= n - 2:
        raise IndexRangeError(f"need 0 <= p <= n-2, got p={p} n={n}")
    pp = measure.predictive_probability
    return pp(n, p + 2) - 2 * pp(n, p + 1) + pp(n, p)


def fit_predictive_affine(measure: DeFinettiMeasure, n: int) -> tuple[Fraction, Fraction]:
    """Exact (slope, intercept) of the predictive map fitted at p = 0, 1.

    The fit is meaningful when ``predictive_affinity_residual`` vanishes for
    all p at this n; no sign constraint is imposed on either coefficient
    (in zero-count coordinates the slope of a Polya sequence is negative).
    """
    if n < 1:
        raise IndexRangeError("n must be at least 1")
    at0 = measure.predictive_probability(n, 0)
    at1 = measure.predictive_probability(n, 1)
    return at1 - at0, at0


def affine_predictive_coefficients(a, b, n: int) -> tuple[Fraction, Fraction]:
    """Closed-form affine predictive family (a_n, b_n) = (1, b) / (1 + a(n-1)).

    The two-parameter family realized by sequences whose predictive
    probabilities are affine at every order, for a > 0, b > 0, a + b < 1.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0 or a + b >= 1:
        raise ParameterRangeError("need a > 0, b > 0 and a + b < 1")
    if n < 1:
        raise IndexRangeError("n must be at least 1")
    denominator = 1 + a * (n - 1)
    return Fraction(1) / denominator, b / denominator


def sample_moment_region(
    count: int,
    seed: int = DEFAULT_REGION_SEED,
    max_denominator: int = 10**6,
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Pseudo-random rational triples in S = {0 < x < y < z < 1}.

    Denominators are bounded to keep downstream exact arithmetic fast; the
    draw is deterministic in the seed. The default bound is large enough
    that samples land on the zero sets of the recursion polynomials only
    with negligible probability (small bounds make exact hits routine).
    """
    if count < 0:
        raise IndexRangeError("count must be non-negative")
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        draws = set()
        while len(draws) < 3:
            den = rng.randint(2, max_denominator)
            num = rng.randint(1, den - 1)
            draws.add(Fraction(num, den))
        x, y, z = sorted(draws)
        triples.append((x, y, z))
    return triples


def classify(measure: DeFinettiMeasure, n_max: int) -> Classification:
    """Decide whether the measure is i.i.d., Polya, or neither, up to n_max.

    A first/second moment pair on the point-mass boundary (mu_2 = mu_1^2)
    proposes an i.i.d. law; otherwise the unique Beta candidate is
    recovered and all available moments are compared exactly, followed by
    the decomposability residual scan. Truncated moment sequences too short
    to complete the verification return INCONCLUSIVE rather than a verdict.
    """
    if n_max < 3:
        raise IndexRangeError("n_max must be at least 3")
    cap = measure.max_order
    nondet_order = 2 * n_max - 1 if cap is None else min(2 * n_max - 1, cap)
    measure.require_nondeterministic(nondet_order)

    moment_order = n_max if cap is None else min(n_max, cap)
    mu1, mu2 = measure.moment(1), measure.moment(2)

    if mu2 == mu1 * mu1:
        for n in range(3, moment_order + 1):
            if measure.moment(n) != mu1**n:
                return Classification(
                    ClassificationKind.NOT_DECOMPOSABLE,
                    witness=n,
                    verified_order=n,
                )
        if moment_order < n_max:
            return Classification(
                ClassificationKind.INCONCLUSIVE, verified_order=moment_order
            )
        return Classification(
            ClassificationKind.IID, iid_p=mu1, verified_order=n_max
        )

    if mu2 < mu1 * mu1:
        # impossible for a genuine mixing law; only truncated pseudo-moment
        # sequences reach here, and they cannot extend to any measure
        return Classification(
            ClassificationKind.NOT_DECOMPOSABLE, witness=2, verified_order=2
        )

    alpha, beta = recover_beta(mu1, mu2)
    reference = DeFinettiMeasure.beta(alpha, beta)
    for n in range(3, moment_order + 1):
        if measure.moment(n) != reference.moment(n):
            return Classification(
                ClassificationKind.NOT_DECOMPOSABLE, witness=n, verified_order=n
            )

    decomp_order = n_max if cap is None else min(n_max, (cap + 1) // 2)
    if decomp_order >= 2:
        report = check_decomposable(measure, decomp_order)
        if report.verdict is Verdict.NOT_DECOMPOSABLE:
            return Classification(
                ClassificationKind.NOT_DECOMPOSABLE,
                witness=report.witness,
                verified_order=moment_order,
            )
    if moment_order < n_max or decomp_order < n_max:
        return Classification(
            ClassificationKind.INCONCLUSIVE, verified_order=moment_order
        )
    return Classification(
        ClassificationKind.POLYA,
        polya_alpha=alpha,
        polya_beta=beta,
        verified_order=n_max,
    )
