"""Mixing measures of exchangeable binary sequences, in exact arithmetic.

An infinite exchangeable sequence of {0,1}-valued observations is a mixture
of i.i.d. Bernoulli sequences; the mixing law on [0,1] determines everything.
:class:`DeFinettiMeasure` carries that law in one of three representations:

``BETA``
    Beta(alpha, beta) with positive rational parameters; moments come from
    the rational product ``mu_n = prod_{i<n} (alpha+i)/(alpha+beta+i)``,
    one factor per order on top of the cached ``mu_{n-1}``.
``DISCRETE``
    A finite mixture of point masses at rational locations in [0,1];
    a single atom gives an i.i.d. sequence. Moments are ``sum_i w_i x_i^n``
    on one common denominator, over cached integer powers of the atoms,
    one factor per atom per order.
``MOMENTS``
    A truncated moment sequence ``mu_0..mu_M`` whose configuration rows are
    non-negative up to order ``M``: the moments of an exchangeable law on
    {0,1}^M (Diaconis and Freedman 1980), which need not extend to a
    mixture of i.i.d. laws. Every operation fails loudly past order ``M``.

The kinds differ only in their moments. Every derived quantity comes from
the configuration probabilities ``P_n(j)``, the probability that a fixed
length-n configuration contains exactly j zeros, and these are built one
row ``P_n(0..n)`` at a time by the marginalisation identity

    P_n(0) = mu_n,    P_n(j+1) = P_{n-1}(j) - P_n(j)

(a length-(n-1) configuration extends by a one or a zero). The identity
``P_{n-1}(j) = P_n(j) + P_n(j+1)`` also means a positive row n makes every
lower row positive, so non-determinism up to order n is a test of row n
alone, and once row n has passed every order up to n is answered without
a scan.

The rows are built and cached as integers. The integer row
``(ints, D_n)`` has ``D_n`` the lcm of the row's denominators and
``ints[j] = P_n(j) * D_n``. Row n puts row n-1 and ``mu_n`` over
``D_n = lcm(D_{n-1}, den mu_n)`` and takes one integer subtraction per
entry. That is already the least common denominator of row n, so no gcd
is taken: ``mu_n = P_n(0)`` and each ``P_{n-1}(j) = P_n(j) + P_n(j+1)``
have denominators that divide the least one, which is therefore a
multiple of ``D_{n-1}`` and of ``den mu_n``. By induction ``D_n`` is the
lcm of the denominators of ``mu_0..mu_n``. Each new row is checked
against total probability, ``sum_j C(n,j) ints[j] == D_n``, which
catches a wrong scale or sign and raises ``InternalError``. Two forms
are derived from the integer row:

* the reciprocal row ``(r, L_n)``: ``L_n`` is the lcm of the row's
  numerators and ``r[i] / L_n = 1 / P_n(i)``;
* on demand, the ``Fraction`` row behind
  :meth:`~DeFinettiMeasure.config_probability`.

Sums over configuration probabilities then run as integer dot products
with one ``Fraction`` per result. Every cache is a pure function of the
moments, so concurrent fills store equal values (the non-determinism
order stores only orders that were verified), and instances are safe to
share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import Optional

from .errors import (
    DeterministicMeasureError,
    IndexRangeError,
    InternalError,
    InvalidMomentSequenceError,
    OrderExceededError,
    ParseError,
)
from .rationals import binom, format_rational, parse_rational

# Largest moment order of a measure document: ``check --max-n 32`` reads
# orders up to 2 * 32 - 1. Parsing costs roughly the cube of the order; on a
# 2-vCPU Linux machine order 63 takes about 5 ms and order 400 about 0.4 s.
MAX_MOMENT_ORDER = 63


class MeasureKind(Enum):
    BETA = "beta"
    DISCRETE = "discrete"
    MOMENTS = "moments"


@dataclass(frozen=True)
class DeFinettiMeasure:
    """The mixing law of an exchangeable binary sequence.

    Build instances through :meth:`beta`, :meth:`discrete`, :meth:`dirac`,
    :meth:`from_moments` or :meth:`truncated_uniform` rather than the raw
    constructor; the factories validate their inputs.
    """

    kind: MeasureKind
    beta_alpha: Optional[Fraction] = None
    beta_beta: Optional[Fraction] = None
    atoms: Optional[tuple[tuple[Fraction, Fraction], ...]] = None
    moment_values: Optional[tuple[Fraction, ...]] = None
    _moments: dict = field(default_factory=dict, compare=False, repr=False)
    _atom_powers: dict = field(default_factory=dict, compare=False, repr=False)
    _rows: dict = field(default_factory=dict, compare=False, repr=False)
    _int_rows: dict = field(default_factory=dict, compare=False, repr=False)
    _reciprocal_rows: dict = field(default_factory=dict, compare=False, repr=False)
    # highest order whose row was found all positive (-1: none yet)
    _positive_order: list = field(default_factory=lambda: [-1], compare=False, repr=False)

    # -- factories -------------------------------------------------------

    @classmethod
    def beta(cls, alpha, beta) -> "DeFinettiMeasure":
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha <= 0 or beta <= 0:
            raise ParseError("beta parameters must be positive")
        return cls(kind=MeasureKind.BETA, beta_alpha=alpha, beta_beta=beta)

    @classmethod
    def discrete(cls, atoms) -> "DeFinettiMeasure":
        """Finite mixture; atoms is a sequence of (location, weight) pairs."""
        parsed = tuple((Fraction(loc), Fraction(w)) for loc, w in atoms)
        if not parsed:
            raise ParseError("a discrete measure needs at least one atom")
        for loc, w in parsed:
            if not 0 <= loc <= 1:
                raise ParseError(f"atom location {format_rational(loc)} outside [0, 1]")
            if w <= 0:
                raise ParseError("atom weights must be positive")
        if sum(w for _, w in parsed) != 1:
            raise ParseError("atom weights must sum to 1")
        return cls(kind=MeasureKind.DISCRETE, atoms=parsed)

    @classmethod
    def dirac(cls, location) -> "DeFinettiMeasure":
        """Point mass at ``location``: the i.i.d. Bernoulli(location) sequence."""
        return cls.discrete([(Fraction(location), Fraction(1))])

    @classmethod
    def from_moments(cls, values) -> "DeFinettiMeasure":
        """Truncated moment sequence mu_0..mu_M, checked for non-negative
        configuration rows up to order M."""
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ParseError("a moment sequence needs at least mu_0")
        if vals[0] != 1:
            raise InvalidMomentSequenceError(0, 0)
        measure = cls(kind=MeasureKind.MOMENTS, moment_values=vals)
        for n in range(len(vals)):
            ints, _ = measure._int_row(n)
            for j, x in enumerate(ints):
                if x < 0:
                    raise InvalidMomentSequenceError(n, j)
        return measure

    @classmethod
    def truncated_uniform(cls, epsilon, order: int) -> "DeFinettiMeasure":
        """Uniform law on (0, epsilon) as its exact moments mu_n = eps^n/(n+1).

        The canonical example of a mixture that is neither i.i.d. nor Polya;
        represented as a MOMENTS measure truncated at the given order.
        """
        epsilon = Fraction(epsilon)
        if not 0 < epsilon <= 1:
            raise ParseError("epsilon must lie in (0, 1]")
        if order < 0:
            raise ParseError("order must be non-negative")
        return cls.from_moments([epsilon**n / (n + 1) for n in range(order + 1)])

    # -- structural helpers ----------------------------------------------

    @property
    def max_order(self) -> Optional[int]:
        """Largest usable moment order; None means unbounded."""
        if self.kind is MeasureKind.MOMENTS:
            return len(self.moment_values) - 1
        return None

    def _require_order(self, n: int) -> None:
        cap = self.max_order
        if cap is not None and n > cap:
            raise OrderExceededError(n, cap)

    def describe(self) -> str:
        """Stable one-line identification, used in report digests."""
        if self.kind is MeasureKind.BETA:
            return f"beta({format_rational(self.beta_alpha)},{format_rational(self.beta_beta)})"
        if self.kind is MeasureKind.DISCRETE:
            inner = ",".join(
                f"({format_rational(l)},{format_rational(w)})" for l, w in self.atoms
            )
            return f"discrete[{inner}]"
        vals = ",".join(format_rational(v) for v in self.moment_values)
        return f"moments[{vals}]"

    # -- moments and configuration probabilities -------------------------

    def moment(self, n: int) -> Fraction:
        """The n-th moment of the mixing law, exactly."""
        if n < 0:
            raise IndexRangeError("moment order must be non-negative")
        self._require_order(n)
        cached = self._moments.get(n)
        if cached is not None:
            return cached
        if self.kind is MeasureKind.BETA:
            return self._beta_moment(n)
        if self.kind is MeasureKind.DISCRETE:
            return self._discrete_moment(n)
        value = self.moment_values[n]
        self._moments[n] = value
        return value

    def _beta_moment(self, n: int) -> Fraction:
        """mu_n = mu_{n-1} (alpha+n-1)/(alpha+beta+n-1), extending the cached
        moments up to order n.

        With alpha = p/q and beta = r/s the factor of order m is the
        quotient of integers (p + (m-1) q) s / (p s + r q + (m-1) q s), so
        each new order costs two integer products and one ``Fraction``.
        """
        start = n
        while start > 0 and start - 1 not in self._moments:
            start -= 1
        value = self._moments[start - 1] if start else Fraction(1)
        p, q = self.beta_alpha.numerator, self.beta_alpha.denominator
        r, s = self.beta_beta.numerator, self.beta_beta.denominator
        for m in range(start, n + 1):
            if m:
                value = Fraction(
                    value.numerator * (p + (m - 1) * q) * s,
                    value.denominator * (p * s + r * q + (m - 1) * q * s),
                )
            value = self._moments.setdefault(m, value)
        return value

    def _discrete_moment(self, n: int) -> Fraction:
        """mu_n = sum_i w_i x_i^n on one common denominator, extending the
        cached per-atom powers up to order n.

        With w_i = c_i/d_i and x_i = a_i/b_i, order m caches the integer
        pairs (c_i a_i^m, d_i b_i^m): one integer factor per atom per new
        order, and one ``Fraction`` per moment.
        """
        powers = self._atom_powers
        start = n
        while start > 0 and start - 1 not in powers:
            start -= 1
        if start:
            numerators, denominators = powers[start - 1]
        else:
            numerators = tuple(w.numerator for _, w in self.atoms)
            denominators = tuple(w.denominator for _, w in self.atoms)
        for m in range(start, n + 1):
            if m:
                numerators = tuple(c * x.numerator for c, (x, _) in zip(numerators, self.atoms))
                denominators = tuple(d * x.denominator for d, (x, _) in zip(denominators, self.atoms))
            numerators, denominators = powers.setdefault(m, (numerators, denominators))
            common = math.lcm(*denominators)
            total = sum(c * (common // d) for c, d in zip(numerators, denominators))
            value = self._moments.setdefault(m, Fraction(total, common))
        return value

    def config_probability(self, n: int, zeros: int) -> Fraction:
        """P(a fixed length-n configuration with the given zero count).

        Read from the ``Fraction`` row of order n, which is derived from the
        integer row on the first such call and cached.
        """
        if n < 0 or not 0 <= zeros <= n:
            raise IndexRangeError(f"need 0 <= zeros <= n, got n={n} zeros={zeros}")
        self._require_order(n)
        return self._row(n)[zeros]

    def _row(self, n: int) -> tuple[Fraction, ...]:
        """``(P_n(0), ..., P_n(n))`` as ``Fraction``s, from the integer row."""
        row = self._rows.get(n)
        if row is not None:
            return row
        ints, common = self._int_row(n)
        return self._rows.setdefault(n, tuple(Fraction(x, common) for x in ints))

    def _int_row(self, n: int) -> tuple[tuple[int, ...], int]:
        """``(ints, D_n)`` with ``ints[j] / D_n == P_n(j)`` and ``D_n`` the lcm
        of the row's denominators, extending the cached rows up to order n.

        Each new row m is the marginalisation identity on integers over
        ``D_m = lcm(D_{m-1}, den mu_m)``, checked against total probability
        (see the module docstring).
        """
        rows = self._int_rows
        cached = rows.get(n)
        if cached is not None:
            return cached
        if n < 0:
            raise IndexRangeError("order must be non-negative")
        self._require_order(n)
        start = n
        while start > 0 and start - 1 not in rows:
            start -= 1
        ints, common = rows[start - 1] if start else ((), 1)
        for m in range(start, n + 1):
            mu = self.moment(m)
            denominator = math.lcm(common, mu.denominator)
            step = denominator // common
            entry = mu.numerator * (denominator // mu.denominator)
            current = [entry]
            for x in ints:
                entry = x * step - entry
                current.append(entry)
            total = sum(map(int.__mul__, map(math.comb, repeat(m), range(m + 1)), current))
            if total != denominator:
                raise InternalError(
                    f"configuration row {m} has total probability {total}/{denominator}, not 1"
                )
            ints, common = rows.setdefault(m, (tuple(current), denominator))
        return ints, common

    def _reciprocal_row(self, n: int) -> tuple[tuple[int, ...], int]:
        """``(r, L_n)`` with ``r[i] / L_n == 1 / P_n(i)`` and ``L_n`` the lcm of
        the row's numerators, read from the integer row: one gcd per entry
        puts ``P_n(i) = ints[i] / D_n`` in lowest terms."""
        cached = self._reciprocal_rows.get(n)
        if cached is not None:
            return cached
        ints, common = self._int_row(n)
        numerators, denominators = [], []
        for i, x in enumerate(ints):
            if x == 0:
                raise DeterministicMeasureError(
                    f"conditioning event has probability zero (n={n}, zeros={i})"
                )
            g = math.gcd(x, common)
            numerators.append(x // g)
            denominators.append(common // g)
        least = math.lcm(*numerators)
        r = tuple(d * (least // p) for p, d in zip(numerators, denominators))
        return self._reciprocal_rows.setdefault(n, (r, least))

    # -- conditional and predictive probabilities ------------------------

    def conditional_zero_count(self, n: int, v: int, a: int, b: int) -> Fraction:
        """P(b zeros among the first n+v | a zeros among the first n).

        Equals ``C(v, b-a) * P_{n+v}(b zeros) / P_n(a zeros)``.
        """
        if v < 1:
            raise IndexRangeError("v must be at least 1")
        if not 0 <= a <= n:
            raise IndexRangeError(f"need 0 <= a <= n, got n={n} a={a}")
        if not a <= b <= a + v:
            raise IndexRangeError(f"need a <= b <= a+v, got a={a} b={b} v={v}")
        denominator = self.config_probability(n, a)
        if denominator == 0:
            raise DeterministicMeasureError(
                f"conditioning event has probability zero (n={n}, zeros={a})"
            )
        return binom(v, b - a) * self.config_probability(n + v, b) / denominator

    def predictive_probability(self, n: int, p: int) -> Fraction:
        """P(the next observation is 1 | p zeros among the first n)."""
        if not 0 <= p <= n:
            raise IndexRangeError(f"need 0 <= p <= n, got n={n} p={p}")
        return self.conditional_zero_count(n, 1, p, p)

    def is_nondeterministic(self, n_max: int) -> bool:
        """True iff every configuration probability up to order n_max is positive.

        Equivalent to the mixing law's support not being contained in {0, 1},
        once n_max >= 2. Row n_max alone decides it: each lower entry is the
        sum of two entries of the row above. So the highest order found
        positive is remembered, and every order up to it answers at once.
        """
        if n_max < 0:
            raise IndexRangeError("n_max must be non-negative")
        verified = self._positive_order
        # a verified order has passed the order check
        if n_max <= verified[0]:
            return True
        self._require_order(n_max)
        ints, _ = self._int_row(n_max)
        if min(ints) <= 0:
            return False
        # a racing store may leave a lower verified order in place, which
        # costs a later rescan and never a wrong answer
        if n_max > verified[0]:
            verified[0] = n_max
        return True

    def require_nondeterministic(self, n_max: int) -> None:
        if not self.is_nondeterministic(n_max):
            raise DeterministicMeasureError(
                f"measure is deterministic at order {n_max}: {self.describe()}"
            )


def parse_measure_spec(document: str) -> DeFinettiMeasure:
    """Parse a JSON measure document.

    Accepted forms::

        {"type": "beta", "alpha": "3/2", "beta": "2"}
        {"type": "discrete", "atoms": [["1/3", "1/2"], ["2/3", "1/2"]]}
        {"type": "moments", "values": ["1", "1/4", "1/12", "1/32"]}
        {"type": "truncated_uniform", "epsilon": "1/2", "order": 12}

    Rationals are ``"p/q"`` or ``"p"`` text. Moment sequences must have
    non-negative configuration rows up to their order. Orders above
    ``MAX_MOMENT_ORDER`` are refused before any moment is computed.
    """
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("measure document must be a JSON object")
    kind = payload.get("type")
    if kind == "beta":
        _require_keys(payload, {"type", "alpha", "beta"})
        return DeFinettiMeasure.beta(
            parse_rational(payload["alpha"]), parse_rational(payload["beta"])
        )
    if kind == "discrete":
        _require_keys(payload, {"type", "atoms"})
        raw = payload["atoms"]
        if not isinstance(raw, list):
            raise ParseError("atoms must be a list of [location, weight] pairs")
        atoms = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ParseError("each atom must be a [location, weight] pair")
            atoms.append((parse_rational(entry[0]), parse_rational(entry[1])))
        return DeFinettiMeasure.discrete(atoms)
    if kind == "moments":
        _require_keys(payload, {"type", "values"})
        raw = payload["values"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("values must be a non-empty list of rationals")
        _require_order_bound(len(raw) - 1)
        return DeFinettiMeasure.from_moments([parse_rational(v) for v in raw])
    if kind == "truncated_uniform":
        _require_keys(payload, {"type", "epsilon", "order"})
        order = payload["order"]
        if not isinstance(order, int) or isinstance(order, bool):
            raise ParseError("order must be an integer")
        _require_order_bound(order)
        return DeFinettiMeasure.truncated_uniform(parse_rational(payload["epsilon"]), order)
    raise ParseError(f"unknown measure type: {kind!r}")


def _require_keys(payload: dict, expected: set) -> None:
    extra = set(payload) - expected
    missing = expected - set(payload)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    if extra:
        raise ParseError(f"unexpected keys: {sorted(extra)}")


def _require_order_bound(order: int) -> None:
    if order > MAX_MOMENT_ORDER:
        raise ParseError(f"measure order must be at most {MAX_MOMENT_ORDER}, got {order}")
