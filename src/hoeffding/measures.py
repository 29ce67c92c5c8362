"""Mixing measures of exchangeable binary sequences, in exact arithmetic.

An infinite exchangeable sequence of {0,1}-valued observations is a mixture
of i.i.d. Bernoulli sequences; the mixing law on [0,1] determines everything.
:class:`DeFinettiMeasure` carries that law in one of three representations:

``BETA``
    Beta(alpha, beta) with positive rational parameters; moments come from
    the rational product ``mu_n = prod_{i<n} (alpha+i)/(alpha+beta+i)``,
    one factor per order on top of ``mu_{n-1}``.
``DISCRETE``
    A finite mixture of point masses at rational locations in [0,1];
    a single atom gives an i.i.d. sequence. Moments are ``sum_i w_i x_i^n``,
    summed on integers over one running common denominator, with one
    ``Fraction`` per order.
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
alone.

A measure keeps one table, order n -> ``(mu_n, ints, D_n, positive)``,
filled one order at a time from the highest cached order. The integer
row ``(ints, D_n)`` has ``D_n`` the lcm of the row's denominators and
``ints[j] = P_n(j) * D_n``. Row n puts row n-1 and ``mu_n`` over
``D_n = lcm(D_{n-1}, den mu_n)`` and takes one integer subtraction per
entry. That is already the least common denominator of row n, so no gcd
is taken: ``mu_n = P_n(0)`` and each ``P_{n-1}(j) = P_n(j) + P_n(j+1)``
have denominators that divide the least one, which is therefore a
multiple of ``D_{n-1}`` and of ``den mu_n``. By induction ``D_n`` is the
lcm of the denominators of ``mu_0..mu_n``. Each new row is checked
against total probability, ``sum_j C(n,j) ints[j] == D_n``, which
catches a wrong scale or sign and raises ``InternalError``, and
``positive`` records whether every entry of row n is positive.
:meth:`~DeFinettiMeasure.config_probability` builds one ``Fraction`` per
call from the integer row; sums over configuration probabilities run as
integer dot products with one ``Fraction`` per result.

Every record is a pure function of the moments, so concurrent fills store
equal values, and instances are safe to share across threads.
"""

from __future__ import annotations

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
from .rationals import (
    as_rational,
    binom,
    format_rational,
    load_json,
    parse_rational,
    rational_pairs,
)

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
    # order n -> (mu_n, ints, D_n, positive), see the module docstring
    _orders: dict = field(default_factory=dict, compare=False, repr=False)

    # -- factories -------------------------------------------------------

    @classmethod
    def beta(cls, alpha, beta) -> "DeFinettiMeasure":
        alpha, beta = as_rational(alpha, "alpha"), as_rational(beta, "beta")
        if alpha <= 0 or beta <= 0:
            raise ParseError("beta parameters must be positive")
        return cls(kind=MeasureKind.BETA, beta_alpha=alpha, beta_beta=beta)

    @classmethod
    def discrete(cls, atoms) -> "DeFinettiMeasure":
        """Finite mixture; atoms is a sequence of (location, weight) pairs."""
        parsed = rational_pairs(atoms, "atom (location, weight)")
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
        return cls.discrete([(as_rational(location, "location"), Fraction(1))])

    @classmethod
    def from_moments(cls, values) -> "DeFinettiMeasure":
        """Truncated moment sequence mu_0..mu_M, checked for non-negative
        configuration rows up to order M."""
        vals = tuple(as_rational(v, "each moment") for v in values)
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
        epsilon = as_rational(epsilon, "epsilon")
        if not 0 < epsilon <= 1:
            raise ParseError("epsilon must lie in (0, 1]")
        if not isinstance(order, int) or isinstance(order, bool):
            raise ParseError(f"order must be an integer, got {order!r}")
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
        return self._order(n)[0]

    def config_probability(self, n: int, zeros: int) -> Fraction:
        """P(a fixed length-n configuration with the given zero count),
        read from the integer row of order n."""
        if n < 0 or not 0 <= zeros <= n:
            raise IndexRangeError(f"need 0 <= zeros <= n, got n={n} zeros={zeros}")
        _, ints, common, _ = self._order(n)
        return Fraction(ints[zeros], common)

    def _int_row(self, n: int) -> tuple[tuple[int, ...], int]:
        """``(ints, D_n)`` with ``ints[j] / D_n == P_n(j)`` and ``D_n`` the lcm
        of the row's denominators."""
        _, ints, common, _ = self._order(n)
        return ints, common

    def _order(self, n: int) -> tuple[Fraction, tuple[int, ...], int, bool]:
        """The record ``(mu_n, ints, D_n, positive)`` of order n, extending
        the cached records up to order n.

        Each new order m takes mu_m from the kind's step, builds its row by
        the marginalisation identity on integers over
        ``D_m = lcm(D_{m-1}, den mu_m)``, checks the row against total
        probability and notes whether every entry is positive (see the
        module docstring).
        """
        orders = self._orders
        record = orders.get(n)
        if record is not None:
            return record
        if n < 0:
            raise IndexRangeError("order must be non-negative")
        self._require_order(n)
        start = n
        while start > 0 and start - 1 not in orders:
            start -= 1
        mu, ints, common, _ = orders[start - 1] if start else (None, (), 1, True)
        for m in range(start, n + 1):
            mu = self._next_moment(m, mu)
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
            record = (mu, tuple(current), denominator, min(current) > 0)
            mu, ints, common, _ = record = orders.setdefault(m, record)
        return record

    def _next_moment(self, m: int, previous: Optional[Fraction]) -> Fraction:
        """mu_m, given mu_{m-1} (None when m is 0).

        * Beta: mu_m = mu_{m-1} (alpha+m-1)/(alpha+beta+m-1). With
          alpha = p/q and beta = r/s the factor is the quotient of integers
          (p + (m-1) q) s / (p s + r q + (m-1) q s), so each order costs two
          integer products and one ``Fraction``.
        * Discrete: with w_i = c_i/d_i and x_i = a_i/b_i,
          mu_m = sum_i c_i a_i^m / (d_i b_i^m), summed on integers over one
          running denominator, the lcm of the d_i b_i^m so far, and
          reduced once into one ``Fraction``.
        * Moments: the stored value.
        """
        if self.kind is MeasureKind.BETA:
            if not m:
                return Fraction(1)
            p, q = self.beta_alpha.numerator, self.beta_alpha.denominator
            r, s = self.beta_beta.numerator, self.beta_beta.denominator
            return Fraction(
                previous.numerator * (p + (m - 1) * q) * s,
                previous.denominator * (p * s + r * q + (m - 1) * q * s),
            )
        if self.kind is MeasureKind.DISCRETE:
            numerator, denominator = 0, 1
            for x, w in self.atoms:
                d = w.denominator * x.denominator**m
                common = math.lcm(denominator, d)
                numerator = numerator * (common // denominator) + (
                    w.numerator * x.numerator**m * (common // d)
                )
                denominator = common
            return Fraction(numerator, denominator)
        return self.moment_values[m]

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
        sum of two entries of the row above, and the record of order n_max
        notes whether that row is positive.
        """
        if n_max < 0:
            raise IndexRangeError("n_max must be non-negative")
        return self._order(n_max)[3]

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
    payload = load_json(document)
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
