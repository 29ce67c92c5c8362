"""Orthogonal polynomials of a discrete weight, in exact rationals.

The discrete Stieltjes procedure (Gautschi 2004, *Orthogonal Polynomials:
Computation and Approximation*, sec. 2.2.3): the monic polynomials
orthogonal under positive weights w(0..n) on the nodes 0..n obey

    q_{k+1}(z) = (z - a_k) q_k(z) - b_k q_{k-1}(z),   q_{-1} = 0, q_0 = 1,
    a_k = <z q_k, q_k> / <q_k, q_k>,   b_k = <q_k, q_k> / <q_{k-1}, q_{k-1}>,

where <f, g> = sum_z w(z) f(z) g(z). Each polynomial is carried by its
values on the nodes, so one step costs O(n) exact operations and no linear
system is ever solved. Everything is a Fraction: no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def orthogonal_polynomials(
    weights: Sequence[Fraction],
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """(values on the nodes, squared norm) of q_0, ..., q_n.

    The weights must all be positive. q_k has degree k and leading
    coefficient 1, so q_0..q_k span the polynomials of degree <= k on the
    nodes and q_k spans their orthogonal complement in degree <= k-1.
    """
    size = len(weights)
    previous = [Fraction(0)] * size
    current = [Fraction(1)] * size
    previous_norm = Fraction(1)
    out = []
    for k in range(size):
        squares = [w * q * q for w, q in zip(weights, current)]
        norm = sum(squares, Fraction(0))
        out.append((tuple(current), norm))
        if k + 1 == size:
            break
        a = sum((z * s for z, s in enumerate(squares)), Fraction(0)) / norm
        b = norm / previous_norm
        current, previous = [
            (z - a) * q - b * p for z, (q, p) in enumerate(zip(current, previous))
        ], current
        previous_norm = norm
    return out
