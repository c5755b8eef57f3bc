"""Repairing contradictory dependency matrices.

A matrix that satisfies no tree (noise flipped some entries) is replaced by
the nearest valid one: first find the permutation matrix sharing the most
1-entries -- the binary-program objective collapses to a linear assignment
problem solved exactly -- then grow candidate trees from it by one-step
dilations, keeping the set of minimum-Hamming-distance matrices each round
and stopping when the minimum stops improving.  Every candidate returned is
a valid tree matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .completion import fresh_labels
from .topology import DependencyMatrix, check_conditions, dilation_matrix

# beyond this size an unbounded beam can explode; the cap is recorded in the
# result so a truncated search is never mistaken for an exhaustive one
AUTO_CAP_THRESHOLD = 6
AUTO_CAP = 64


def hamming(a: DependencyMatrix, b: DependencyMatrix) -> int:
    """Number of differing entries under label-aligned comparison."""
    if set(a.row_labels) != set(b.row_labels) or set(a.col_labels) != set(
        b.col_labels
    ):
        raise ValueError("matrices must carry identical label sets")
    ca, cb = a.canonical(), b.canonical()
    return int((ca.values != cb.values).sum())


def _assignment_value(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def nearest_permutation(d: DependencyMatrix) -> DependencyMatrix:
    """Permutation matrix maximizing the overlap with d's 1-entries.

    Solved exactly as a linear assignment; among equally good permutations
    the lexicographically smallest assignment (in canonical label order) is
    returned, fixed greedily column by column with the solver as the
    optimality oracle.
    """
    k, n = d.shape
    if k != n:
        raise ValueError("nearest_permutation needs a square matrix")
    c = d.canonical()
    vals = c.values.astype(float)
    best = -_assignment_value(-vals)

    chosen: list[int] = []
    remaining = list(range(n))
    fixed_value = 0.0
    for i in range(n):
        for cand in sorted(remaining):
            rest_rows = list(range(i + 1, n))
            rest_cols = [j for j in remaining if j != cand]
            rest = (
                -_assignment_value(-vals[np.ix_(rest_rows, rest_cols)])
                if rest_rows
                else 0.0
            )
            if fixed_value + vals[i, cand] + rest >= best - 1e-9:
                chosen.append(cand)
                remaining.remove(cand)
                fixed_value += vals[i, cand]
                break
    perm = np.zeros((n, n), dtype=np.int8)
    for i, j in enumerate(chosen):
        perm[i, j] = 1
    return DependencyMatrix(c.row_labels, c.col_labels, perm)


def overlap(d: DependencyMatrix, perm: DependencyMatrix) -> int:
    """Count of positions where both matrices carry a 1 (label-aligned)."""
    ca, cb = d.canonical(), perm.canonical()
    return int((ca.values & cb.values).sum())


@dataclass(frozen=True)
class CorrectionResult:
    candidates: tuple[DependencyMatrix, ...]
    distance: int
    rounds: int
    beam_capped: bool

    def to_json_dict(self) -> dict:
        return {
            "distance": self.distance,
            "rounds": self.rounds,
            "beam_capped": self.beam_capped,
            "candidates": [c.to_json_dict() for c in self.candidates],
        }


def trellis_correct(d: DependencyMatrix, beam_cap: int | None = None) -> CorrectionResult:
    """Beam search over one-step dilations from the nearest permutation
    matrix, minimizing Hamming distance to ``d``.

    The beam keeps every minimizer each round (capped for large matrices);
    the search stops as soon as a round fails to improve the incumbent
    distance.  A valid input is returned unchanged at distance zero.
    """
    k, n = d.shape
    if k != n:
        raise ValueError("trellis_correct needs a square matrix")
    if check_conditions(d).satisfies_P:
        return CorrectionResult((d,), 0, 0, False)
    if beam_cap is None and n > AUTO_CAP_THRESHOLD:
        beam_cap = AUTO_CAP

    seed = nearest_permutation(d)
    beam = {seed.canonical_key(): seed}
    g = hamming(seed, d)
    rounds = 0
    capped = False
    labels = seed.row_labels
    while True:
        scored: dict = {}
        for m in beam.values():
            for i in labels:
                for j in labels:
                    if i == j:
                        continue
                    grown = dilation_matrix(m, i, j)
                    if grown is m:
                        continue
                    key = grown.canonical_key()
                    if key not in scored:
                        scored[key] = (hamming(grown, d), grown)
        if not scored:
            break
        g_new = min(dist for dist, _ in scored.values())
        if g_new >= g:
            break
        rounds += 1
        g = g_new
        winners = sorted(
            (key for key, (dist, _) in scored.items() if dist == g_new)
        )
        if beam_cap is not None and len(winners) > beam_cap:
            winners = winners[:beam_cap]
            capped = True
        beam = {key: scored[key][1] for key in winners}

    candidates = tuple(beam[key] for key in sorted(beam))
    return CorrectionResult(candidates, g, rounds, capped)


def correct_partial(
    dminus: DependencyMatrix, beam_cap: int | None = None
) -> CorrectionResult:
    """Pad missing rows with zeros under fresh labels, then run the trellis
    correction on the squared-up matrix."""
    k, n = dminus.shape
    if k > n:
        raise ValueError("partial matrix cannot have more rows than columns")
    if k == n:
        return trellis_correct(dminus, beam_cap)
    fresh = fresh_labels(dminus.row_labels, n - k)
    vals = np.vstack([dminus.values, np.zeros((n - k, n), dtype=np.int8)])
    padded = DependencyMatrix(
        tuple(dminus.row_labels) + tuple(fresh), dminus.col_labels, vals
    )
    return trellis_correct(padded, beam_cap)
