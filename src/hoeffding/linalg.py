"""Orthogonal polynomials of a discrete weight, fraction-free.

The discrete Stieltjes procedure (Gautschi 2004, *Orthogonal Polynomials:
Computation and Approximation*, sec. 2.2.3): the monic polynomials
orthogonal under positive weights w(0..n) on the nodes 0..n obey

    q_{k+1}(z) = (z - a_k) q_k(z) - b_k q_{k-1}(z),   q_{-1} = 0, q_0 = 1,
    a_k = <z q_k, q_k> / <q_k, q_k>,   b_k = <q_k, q_k> / <q_{k-1}, q_{k-1}>,

where <f, g> = sum_z w(z) f(z) g(z). Each polynomial is carried by its
values on the nodes, so one step costs O(n) operations and no linear
system is ever solved.

The recurrence runs fraction-free, in the manner of Bareiss (1968), *Math.
Comp.* 22: on integer weights W, polynomial k is carried as a primitive
integer vector Q_k, a positive multiple of q_k. With N_k = <Q_k, Q_k>,
M_k = <z Q_k, Q_k> and P_k = <z Q_k, Q_{k-1}>, clearing the denominators
N_k and N_{k-1} of a_k and b_k gives

    Q_{k+1} = (N_k N_{k-1} z - M_k N_{k-1}) Q_k - P_k N_k Q_{k-1},

divided by the gcd of its entries. A projection <T, Q_k> / N_k * Q_k does
not depend on how Q_k is scaled, and a common factor of the weights
cancels from it, so integer weights lose nothing. Every operation is on
integers: no gcd per term and no tolerance anywhere.
"""

from __future__ import annotations

import math
from typing import Sequence


def orthogonal_polynomials(
    weights: Sequence[int],
) -> list[tuple[tuple[int, ...], int]]:
    """(values on the nodes, squared norm) of Q_0, ..., Q_n.

    The weights must all be positive integers. Q_k is a primitive integer
    vector: the values of a degree-k polynomial with positive leading
    coefficient, so Q_0..Q_k span the polynomials of degree <= k on the
    nodes and Q_k spans their orthogonal complement in degree <= k-1.
    """
    size = len(weights)
    previous = [0] * size
    current = [1] * size
    previous_norm = 1
    out = []
    for k in range(size):
        weighted = [w * q for w, q in zip(weights, current)]
        norm = sum(map(int.__mul__, weighted, current))
        out.append((tuple(current), norm))
        if k + 1 == size:
            break
        moved = [z * x for z, x in enumerate(weighted)]
        shift = sum(map(int.__mul__, moved, current))
        overlap = sum(map(int.__mul__, moved, previous))
        slope = norm * previous_norm
        offset = shift * previous_norm
        step = overlap * norm
        following = [
            (slope * z - offset) * q - step * p
            for z, (q, p) in enumerate(zip(current, previous))
        ]
        content = math.gcd(*following)
        current, previous = [x // content for x in following], current
        previous_norm = norm
    return out
