"""Seeded samplers and statistical cross-validation of the exact core.

This is the only module that touches floating point, and it does so after
the exact work is finished: per-state predictive probabilities are computed
as rationals and converted once (round-to-nearest) before the sampling
loop, and exact expected cell probabilities are converted once per
comparison row.

Randomness contract
-------------------
All samplers are deterministic functions of (inputs, seed). Trial i of a
report draws from its own stream so trials can run in any order or in
parallel: the stream state is the first 8 bytes (big-endian) of
SHA-256("<seed>/<i>") feeding a SplitMix64 generator. Both pieces are
fixed algorithms specified here, independent of interpreter version, and
stable across releases.

No sampler draws a floating-point variate: every bit, and every atom pick,
is one integer-threshold test on a SplitMix64 word. A Beta mixture is
sampled as its Polya urn, the same law by de Finetti's theorem, so
``sample_mixture`` of Beta(alpha, beta) draws exactly the bits of
``sample_polya(alpha, beta)`` for the same n and seed.

A bit is 1 when its uniform ``u = (w >> 11) * 2**-53`` is below the bit's
float probability ``p``. The samplers compare integers instead: before
the bits are drawn they turn each ``p`` into ``ceil(p * 2**53)``, and
they test ``(w >> 11) < ceil(p * 2**53)``. Both products are exact, because
``w >> 11`` has at most 53 bits and scaling a float by a power of two only
moves its exponent, so for an integer ``k`` the test ``k * 2**-53 < p``
holds exactly when ``k < p * 2**53``, that is when ``k < ceil(p * 2**53)``.
The two comparisons therefore draw the same bits. For a discrete mixing
law the first word of a trial picks the atom by the same rule, against the
running float sum of the weights in atom order.

Lane packing
------------
The histograms run up to ``_LANES`` trials at once in one Python integer:
trial j of a chunk owns the 128-bit lane at bits 128j to 128j + 127, and
its SplitMix64 state sits in the low 64 bits of the lane. Each generator
step acts on the whole integer: it adds the increment, repeated in every
lane, xor-shifts, and multiplies by each finalizer constant. No lane
carries into or borrows from its neighbour: a 64-bit state plus the 64-bit
increment, and a 64-bit value times a 64-bit constant, both fit in 128
bits, and after every add, xor-shift and multiply each lane is masked back
to its low 64 bits, which also drops the bits a right shift brings down
from the lane above. So every lane holds exactly the words of its trial's
own stream. The test ``w < L`` puts a guard bit at bit 64 of each lane:
``(L + 2**64 - 1) - w`` lies in [0, 2**65) in every lane, so it borrows
nothing, and its bit 64 is set exactly when ``w <= L - 1``. The kernel
therefore draws the same bits as a loop over the trials one at a time.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Optional, Sequence

from .errors import (
    InternalError,
    ParameterRangeError,
    ParseError,
    ReinforcementRangeError,
    UnsamplableKindError,
)
from .measures import DeFinettiMeasure, MeasureKind
from .rationals import as_rational, load_json, parse_rational, rational_pairs

_MASK64 = (1 << 64) - 1
_MASK53 = (1 << 53) - 1
# SplitMix64 increment and finalizer multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Counter-based 64-bit generator (Steele-Lea-Vigna constants).

    Tiny, stateful, and exactly reproducible: each ``next_word`` advances
    the state by the golden-ratio increment and finalizes with two
    xor-shift-multiply rounds.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def next_word(self) -> int:
        self.state = z = (self.state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


# (seed, sha256 of "<seed>/") of the latest experiment. The pair is replaced
# whole and the hash is never updated: each trial hashes on from a copy.
_seed_prefix: tuple = (object(), None)


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """The independent stream assigned to one trial of one experiment: the
    first 8 bytes of sha256("<seed>/<trial>")."""
    global _seed_prefix
    held, prefix = _seed_prefix
    if held != seed or type(held) is not type(seed):
        prefix = hashlib.sha256(f"{seed}/".encode("ascii"))
        _seed_prefix = (seed, prefix)
    digest = prefix.copy()
    digest.update(str(trial).encode("ascii"))
    return SplitMix64(int.from_bytes(digest.digest()[:8], "big"))


# ---------------------------------------------------------------------------
# urn specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReinforcementFunction:
    """A map from urn proportion to next-draw probability: the
    piecewise-linear interpolant of its knots, exact on rationals.

    Every map is a table of knots ``(x, y)`` whose abscissae start at 0,
    end at 1 and increase strictly, with ordinates in [0, 1]. The two
    exchangeable urns (Hill, Lane and Sudderth 1987) are two-knot tables:
    :meth:`identity`, the knots (0, 0) and (1, 1), is the Polya urn, and
    :meth:`constant`, the knots (0, c) and (1, c), draws i.i.d.
    Bernoulli(c) bits. On two knots the interpolation returns exactly the
    proportion and exactly c.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def identity(cls) -> "ReinforcementFunction":
        return cls.table([(0, 0), (1, 1)])

    @classmethod
    def constant(cls, value) -> "ReinforcementFunction":
        value = as_rational(value, "constant reinforcement value")
        if not 0 <= value <= 1:
            raise ParseError("constant reinforcement value must lie in [0, 1]")
        return cls.table([(0, value), (1, value)])

    @classmethod
    def table(cls, points) -> "ReinforcementFunction":
        knots = rational_pairs(points, "table point")
        if len(knots) < 2:
            raise ParseError("a table needs at least two points")
        if knots[0][0] != 0 or knots[-1][0] != 1:
            raise ParseError("table abscissae must start at 0 and end at 1")
        for (x0, _), (x1, _) in zip(knots, knots[1:]):
            if x1 <= x0:
                raise ParseError("table abscissae must be strictly increasing")
        for _, y in knots:
            if not 0 <= y <= 1:
                raise ParseError("table ordinates must lie in [0, 1]")
        return cls(points=knots)

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ReinforcementRangeError(f"proportion {x} outside [0, 1]")
        knots = self.points
        result = knots[-1][1]
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            if x <= x1:
                result = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
                break
        if not 0 <= result <= 1:
            raise ReinforcementRangeError(
                f"reinforcement function returned {result} outside [0, 1]"
            )
        return result


@dataclass(frozen=True)
class UrnSpec:
    """Reinforced urn: initial composition (r red = ones, b black = zeros)
    and the reinforcement map applied to the running red proportion."""

    f: ReinforcementFunction
    r: int
    b: int

    def __post_init__(self):
        for name, count in (("r", self.r), ("b", self.b)):
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ParseError(f'"{name}" must be a positive integer')


def parse_urn_spec(document: str) -> UrnSpec:
    """Parse a JSON urn document.

    Form: {"f": {"type": "identity"} | {"type": "constant", "value": "p/q"}
    | {"type": "table", "points": [["x","y"], ...]}, "r": 1, "b": 1}.
    """
    payload = load_json(document)
    if not isinstance(payload, dict) or set(payload) != {"f", "r", "b"}:
        raise ParseError('urn document must be {"f": ..., "r": ..., "b": ...}')
    fspec = payload["f"]
    if not isinstance(fspec, dict) or "type" not in fspec:
        raise ParseError('urn "f" must be an object with a "type"')
    ftype = fspec["type"]
    if ftype == "identity":
        if set(fspec) != {"type"}:
            raise ParseError("identity reinforcement takes no parameters")
        f = ReinforcementFunction.identity()
    elif ftype == "constant":
        if set(fspec) != {"type", "value"}:
            raise ParseError('constant reinforcement needs exactly "value"')
        f = ReinforcementFunction.constant(parse_rational(fspec["value"]))
    elif ftype == "table":
        if set(fspec) != {"type", "points"} or not isinstance(fspec["points"], list):
            raise ParseError('table reinforcement needs a "points" list')
        points = []
        for point in fspec["points"]:
            if not isinstance(point, list) or len(point) != 2:
                raise ParseError("each table point must be an [x, y] pair")
            points.append((parse_rational(point[0]), parse_rational(point[1])))
        f = ReinforcementFunction.table(points)
    else:
        raise ParseError(f"unknown reinforcement type: {ftype!r}")
    return UrnSpec(f=f, r=payload["r"], b=payload["b"])


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _limit(p: float) -> int:
    """The integer ``L`` with ``(w >> 11) < L`` exactly when the uniform
    ``(w >> 11) * 2**-53`` is below ``p`` (see the module docstring)."""
    return math.ceil(p * 2.0**53)


def _limit_table(f: ReinforcementFunction, r, b, n: int) -> list[list[int]]:
    """table[m][s] = limit of f((r + s)/(r + b + m)), the probability that
    draw m + 1 is a one after s ones among m, floated once.

    The Polya rule (alpha + s)/(alpha + beta + m) is the identity map at
    the urn proportion of composition (alpha, beta). The proportion is a
    ``Fraction`` for rational counts, and for float counts the float
    quotient, since ``Fraction / float`` divides in floats.
    """
    return [
        [_limit(float(f(Fraction(r + s) / (r + b + m)))) for s in range(m + 1)]
        for m in range(n)
    ]


def _tables(source, n: int) -> tuple[list, list[int]]:
    """The limit tables of ``source`` and the pick limits that choose among
    them, as ``_histogram`` reads them; ``MOMENTS`` laws are refused.

    An ``UrnSpec`` gives its knot table, and a Beta law, by de Finetti, the
    table of its Polya urn. A discrete law gives one constant table per atom
    and the pick limits of its cumulative float weights, summed in atom
    order. The last atom's table is listed twice: a first word above every
    pick limit falls back to it.
    """
    if isinstance(source, UrnSpec):
        return [_limit_table(source.f, source.r, source.b, n)], []
    if source.kind is MeasureKind.MOMENTS:
        raise UnsamplableKindError(
            "truncated moment sequences cannot be sampled; only beta and "
            "discrete measures are samplable"
        )
    if source.kind is MeasureKind.BETA:
        identity = ReinforcementFunction.identity()
        return [_limit_table(identity, source.beta_alpha, source.beta_beta, n)], []
    tables = []
    picks = []
    acc = 0.0
    for loc, w in source.atoms:
        acc += float(w)
        picks.append(_limit(acc))
        tables.append([[_limit(float(loc))] * n] * n)
    tables.append(tables[-1])
    return tables, picks


# the least value each size accepts; a seed may be any int
_FLOORS = {"n": 1, "trials": 1000}


def _check_sizes(**sizes) -> None:
    """Refuse a sampler's ``n``, ``trials`` or ``seed`` unless it is an
    ``int`` (a ``bool`` is not) at or above its floor."""
    for name, value in sizes.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterRangeError(f"{name} must be an int, got {value!r}")
        if value < _FLOORS.get(name, value):
            raise ParameterRangeError(f"{name} must be at least {_FLOORS[name]}")


def _draw_from_table(tables, picks: Sequence[int], seed: int) -> list[int]:
    """Trial 0 of ``_histogram`` as its sequence of bits: the first word
    picks the table when there are ``picks``, then one word per bit."""
    rng = trial_stream(seed, 0)
    table = tables[bisect_right(picks, rng.next_word() >> 11)] if picks else tables[0]
    sequence = []
    ones = 0
    for row in table:
        bit = 1 if rng.next_word() >> 11 < row[ones] else 0
        sequence.append(bit)
        ones += bit
    return sequence


def sample_polya(alpha, beta, n: int, seed: int) -> list[int]:
    """One Polya draw of length n via the reinforcement predictive rule
    P(next is 1 | s ones among m) = (alpha + s)/(alpha + beta + m)."""
    # comparisons with inf are exact for ints and Fractions, and refuse NaN
    if not all(isinstance(x, Real) and 0 < x < math.inf for x in (alpha, beta)):
        raise ParameterRangeError("alpha and beta must be finite and positive")
    _check_sizes(n=n, seed=seed)
    table = _limit_table(ReinforcementFunction.identity(), alpha, beta, n)
    return _draw_from_table([table], [], seed)


def sample_urn_process(spec: UrnSpec, n: int, seed: int) -> list[int]:
    """One urn-process draw: each step applies the reinforcement map to the
    current red proportion (r + #ones)/(r + b + m)."""
    _check_sizes(n=n, seed=seed)
    return _draw_from_table(*_tables(spec, n), seed)


def sample_mixture(measure: DeFinettiMeasure, n: int, seed: int) -> list[int]:
    """One draw of n bits from a de Finetti mixture: a discrete law picks an
    atom and draws i.i.d. bits from it; a Beta law draws its Polya urn,
    bit for bit ``sample_polya`` of the same parameters and seed."""
    _check_sizes(n=n, seed=seed)
    return _draw_from_table(*_tables(measure, n), seed)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class ComparisonRow(NamedTuple):
    zeros: int
    expected_probability: Fraction
    empirical_frequency: float
    z_score: float


@dataclass(frozen=True)
class SampleReport:
    """Zero-count histogram of repeated draws, with optional exact comparison.

    The comparison rows hold the exact cell probability, the empirical
    frequency, and the binomial z-score computed after a single
    rational-to-float conversion per row.
    """

    n: int
    trials: int
    seed: int
    zero_count_histogram: tuple[int, ...]
    comparison: Optional[tuple[ComparisonRow, ...]] = None

    def __post_init__(self):
        drawn = sum(self.zero_count_histogram)
        if drawn != self.trials:
            raise InternalError(f"histogram holds {drawn} draws, not {self.trials}")


# trials per chunk of the histogram kernel; one 128-bit lane per trial
_LANES = 1024
_LANE_ONE = (1).to_bytes(16, "little")


def _steps(row: Sequence[int], m: int) -> dict[int, list[int]]:
    """The counts s in 1..m grouped by their nonzero step row[s] - row[s - 1]."""
    groups: dict[int, list[int]] = {}
    for s in range(1, m + 1):
        if row[s] != row[s - 1]:
            groups.setdefault(row[s] - row[s - 1], []).append(s)
    return groups


def _histogram(
    tables: Sequence[Sequence[Sequence[int]]],
    picks: Sequence[int],
    n: int,
    trials: int,
    seed: int,
) -> list[int]:
    """Zero-count histogram of ``trials`` draws of n bits.

    ``tables[i][m][s]`` is the limit of the bit drawn after m bits with s
    ones. With no ``picks`` every trial reads ``tables[0]``. Otherwise the
    trial's first word, shifted to 53 bits, selects ``tables[i]`` for the
    first i whose pick limit exceeds it, or ``tables[len(picks)]`` when none
    does. Only the ones are counted.

    The trials run ``_LANES`` at a time, one lane per trial of the chunk
    (see the module docstring). A lane integer holds one value per lane; a
    lane mask holds 1 in the lanes it marks and 0 elsewhere.
    """
    # A lane with k ones reads row[0] plus every step row[s] - row[s - 1]
    # with s <= k, that is row[k]. The lanes of each distinct step are summed
    # first, so a row costs one multiply per distinct step and a constant row
    # none past its first limit. A step may be negative, but each lane's
    # total lies in [0, 2**64), so the sum holds it exactly.
    firsts = [tuple(table[m][0] for table in tables) for m in range(n)]
    steps = [[_steps(table[m], m) for table in tables] for m in range(n)]
    counts = [0] * (n + 1)
    for start in range(0, trials, _LANES):
        size = min(_LANES, trials - start)
        one = int.from_bytes(_LANE_ONE * size, "little")
        low64, low53, gamma = _MASK64 * one, _MASK53 * one, _GAMMA * one
        state = int.from_bytes(
            b"".join(
                trial_stream(seed, trial).state.to_bytes(16, "little")
                for trial in range(start, start + size)
            ),
            "little",
        )

        def next_words():
            nonlocal state
            state = z = (state + gamma) & low64
            z = (((z ^ (z >> 30)) & low64) * _MIX1) & low64
            z = (((z ^ (z >> 27)) & low64) * _MIX2) & low64
            return ((z ^ (z >> 31)) >> 11) & low53

        def below(limits, word):
            # guard bit 64 survives in a lane exactly when word <= limit - 1
            return ((limits + low64 - word) >> 64) & one

        if picks:
            word = next_words()
            rest = one
            picked = []
            for pick in picks:
                taken = below(pick * one, word) & rest
                picked.append(taken)
                rest ^= taken
            picked.append(rest)
        else:
            picked = [one]
        # at_least[s]: the lanes that have drawn at least s ones so far
        at_least = [one]
        held = None
        for m in range(n):
            if firsts[m] != held:
                held = firsts[m]
                base = sum(first * lanes for first, lanes in zip(held, picked))
            limits = base
            for groups, lanes in zip(steps[m], picked):
                for step, group in groups.items():
                    limits += step * sum(at_least[s] & lanes for s in group)
            hits = below(limits, next_words())
            at_least.append(at_least[m] & hits)
            for s in range(m, 0, -1):
                at_least[s] |= at_least[s - 1] & hits
        above = 0
        for s in range(n, -1, -1):
            drawn = at_least[s].bit_count()
            counts[n - s] += drawn - above
            above = drawn
    return counts


def compare_exact_empirical(
    measure: DeFinettiMeasure, n: int, trials: int, seed: int
) -> SampleReport:
    """Sample `trials` sequences and compare zero-count frequencies with the
    exact cell probabilities C(n, j) P_n(j zeros).

    Each trial is a ``sample_mixture`` draw: a Beta law through its Polya
    urn (exact rational state probabilities, floated once), a discrete law
    by an atom pick and then i.i.d. bits.
    """
    _check_sizes(n=n, trials=trials, seed=seed)
    counts = _histogram(*_tables(measure, n), n, trials, seed)
    rows = []
    for j in range(n + 1):
        expected = math.comb(n, j) * measure.config_probability(n, j)
        expected_float = float(expected)
        empirical = counts[j] / trials
        spread = math.sqrt(expected_float * (1.0 - expected_float) / trials)
        z = 0.0 if spread == 0.0 else (empirical - expected_float) / spread
        rows.append(ComparisonRow(j, expected, empirical, z))
    return SampleReport(
        n=n,
        trials=trials,
        seed=seed,
        zero_count_histogram=tuple(counts),
        comparison=tuple(rows),
    )


def urn_histogram(spec: UrnSpec, n: int, trials: int, seed: int) -> SampleReport:
    """Zero-count histogram of repeated urn-process draws (no exact column:
    a general reinforcement map has no closed-form cell probabilities)."""
    _check_sizes(n=n, trials=trials, seed=seed)
    counts = _histogram(*_tables(spec, n), n, trials, seed)
    return SampleReport(
        n=n, trials=trials, seed=seed, zero_count_histogram=tuple(counts)
    )
