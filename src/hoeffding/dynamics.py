"""Moment-level machinery: the forced moment recursion, Beta recovery and
sequence classification.

Decomposability forces a rational recursion on the moments mu_n of the
mixing law: with

    f(x, y, z) = 2x^2 z - x y^2 - x^2 y      and
    g(x, y, z) = z x - 2y^2 + y z,

every decomposable sequence satisfies mu_{n+1} g(mu_n, mu_{n-1}, mu_{n-2})
= f(mu_n, mu_{n-1}, mu_{n-2}) for n >= 2, and f, g never vanish together on
the open region S = {0 < x < y < z < 1} that genuine non-deterministic
moment triples (mu_n, mu_{n-1}, mu_{n-2}) inhabit. The first two moments
pin down one candidate law (a point mass, a Beta law, or below the
point-mass boundary a formal Beta law with negative parameters), so
classification reduces to finitely many exact comparisons per order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    IndexRangeError,
    InternalError,
    MomentRegionError,
    ZeroDenominatorError,
)
from .measures import DeFinettiMeasure


class ClassificationKind(Enum):
    IID = "IID"
    POLYA = "POLYA"
    NOT_DECOMPOSABLE = "NOT_DECOMPOSABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


Witness = Union[tuple[int, int, int], int]


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


def classify(measure: DeFinettiMeasure, n_max: int) -> Classification:
    """Decide whether the measure is i.i.d., Polya, or neither, up to n_max.

    A non-deterministic decomposable sequence is i.i.d. or Polya, and
    mu_1, mu_2 leave one candidate law. With c = mu_1 - mu_2 = P_2(1) > 0
    and gap = mu_2 - mu_1^2, its moments are the running product of

        (mu_1 c + i gap) / (c + i gap),    i = 0, 1, ...

    that is mu_1 for the point mass (gap = 0), (alpha+i)/(alpha+beta+i)
    for the Beta law (gap > 0), and the same with both parameters negative
    (gap < 0): the formal law of draws without replacement from a finite
    urn, which is no mixing law. The product is compared with the moments
    on integers, by cross-multiplication.

    The moments stand in for the residual scan up to d = min(n_max,
    (cap+1)//2). A residual (n, u, z) is a rational function of (alpha,
    beta) with configuration probabilities P_n(j) as denominators, zero
    for all alpha, beta > 0 by the theorem, so zero for the candidate
    wherever those are nonzero. It reads moments up to n+u-1 only, so with
    M = min(n_max, cap), comparing moments up to max(M, 2d-1) settles
    every residual of the scan:

    * all moments equal: every residual is the candidate's, which is zero;
    * first mismatch at m <= M: the witness is the moment order m;
    * first mismatch at m > M: every triple before (m//2 + 1, ceil(m/2), 0)
      in scan order reads only moments below m, so its residual is zero,
      and that triple, certified on both routes, is the scan's witness.

    The last triple's residual is never zero. At z = 0 only k = 0 enters,
    so with n + u - 1 = m it is sum_j (-1)^j C(u,j) P_m(j) / P_n(j). Every
    moment below m is the candidate's, so P_n is, and P_m(j) is the
    candidate's plus (-1)^j delta, delta = mu_m - ref_m != 0. The
    candidate's residual is zero, so the residual is delta sum_j C(u,j) /
    P_n(j), and every term is positive (non-determinism is checked up to
    order m before). A zero there raises ``InternalError``. A factor can
    vanish only when gap < 0; every compared moment is positive, so a zero
    factor reads as a mismatch, and the certified residual decides it.

    If every compared moment matches, the verdict is IID (gap = 0) or
    POLYA (gap > 0), but INCONCLUSIVE when the moments are too short for
    the scan (d < n_max, which M < n_max implies) or when gap < 0: then
    every residual of the scan is zero, yet the law, a finite urn's among
    them, is no mixture of i.i.d. laws.
    """
    if n_max < 3:
        raise IndexRangeError("n_max must be at least 3")
    cap = measure.max_order
    nondet_order = 2 * n_max - 1 if cap is None else min(2 * n_max - 1, cap)
    measure.require_nondeterministic(nondet_order)

    moment_order = n_max if cap is None else min(n_max, cap)
    decomp_order = n_max if cap is None else min(n_max, (cap + 1) // 2)
    mu1, mu2 = measure.moment(1), measure.moment(2)
    # with mu_1 = p/q and mu_2 = r/s, a, b and gap are mu_1 c, c and gap
    # times q^2 s, so the factor of order i is (a + i gap) / (b + i gap)
    p, q, r, s = mu1.numerator, mu1.denominator, mu2.numerator, mu2.denominator
    gap = r * q * q - p * p * s
    a, b = p * (p * s - r * q), q * (p * s - r * q)
    top = bottom = 1
    mismatch = None
    for m in range(1, max(moment_order, 2 * decomp_order - 1) + 1):
        top *= a + (m - 1) * gap
        bottom *= b + (m - 1) * gap
        mu = measure.moment(m)
        if mu.numerator * bottom != mu.denominator * top:
            mismatch = m
            break
    if mismatch is not None and mismatch <= moment_order:
        return Classification(
            ClassificationKind.NOT_DECOMPOSABLE, witness=mismatch, verified_order=mismatch
        )
    if mismatch is not None:
        # the scan's layers load only for a witness past the moments
        from .engine import _certified_residual

        # the first triple in scan order that reads moment `mismatch`
        witness = (mismatch // 2 + 1, (mismatch + 1) // 2, 0)
        if _certified_residual(measure, *witness) == 0:
            raise InternalError(
                f"residual at {witness} vanishes, but moment {mismatch} "
                "departs from the candidate law"
            )
        return Classification(
            ClassificationKind.NOT_DECOMPOSABLE, witness=witness, verified_order=moment_order
        )
    if gap < 0 or decomp_order < n_max:
        return Classification(ClassificationKind.INCONCLUSIVE, verified_order=moment_order)
    if gap == 0:
        return Classification(ClassificationKind.IID, iid_p=mu1, verified_order=n_max)
    alpha, beta = recover_beta(mu1, mu2)
    return Classification(
        ClassificationKind.POLYA, polya_alpha=alpha, polya_beta=beta, verified_order=n_max
    )
