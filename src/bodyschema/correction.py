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
from .topology import DependencyMatrix, check_conditions
from .topology import dilation_matrix  # noqa: F401 -- schemabench traces it here

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


def _dilations(beam: np.ndarray) -> np.ndarray:
    """Every legal one-step dilation of every matrix in ``beam`` (m, n, n).

    The guard is ``topology.dilation_matrix``'s: row i holds a single 1 in a
    column no other row uses, and row j != i then grows it to
    ``row_i | row_j``.  Rows i and j are disjoint by that guard alone, since
    row i's one column is nobody else's.
    """
    n = beam.shape[1]
    own = beam.argmax(axis=2)
    col_use = np.take_along_axis(beam.sum(axis=1), own, axis=1)
    leaf = (beam.sum(axis=2) == 1) & (col_use == 1)
    b, i, j = np.nonzero(leaf[:, :, None] & ~np.eye(n, dtype=bool))
    grown = beam[b]
    grown[np.arange(len(b)), i] |= beam[b, j]
    return grown


def trellis_correct(d: DependencyMatrix, beam_cap: int | None = None) -> CorrectionResult:
    """Beam search over one-step dilations from the nearest permutation
    matrix, minimizing Hamming distance to ``d``.

    The beam keeps every minimizer each round (capped for large matrices);
    the search stops as soon as a round fails to improve the incumbent
    distance.  A valid input is returned unchanged at distance zero.

    The beam is one (m, n, n) array in canonical label order, so a round
    grows and scores every dilation of every member at once.  Winners are
    deduplicated and sorted by their entries, which is the order of their
    ``canonical_key``s: all of them share the labels and hold only 0/1.
    """
    k, n = d.shape
    if k != n:
        raise ValueError("trellis_correct needs a square matrix")
    if check_conditions(d).satisfies_P:
        return CorrectionResult((d,), 0, 0, False)
    if beam_cap is None and n > AUTO_CAP_THRESHOLD:
        beam_cap = AUTO_CAP

    target = d.canonical()
    seed = nearest_permutation(target)
    beam = seed.values[None]
    g = int((seed.values != target.values).sum())
    rounds = 0
    capped = False
    while True:
        grown = _dilations(beam)
        if not len(grown):
            break
        dist = (grown != target.values).sum(axis=(1, 2))
        g_new = int(dist.min())
        if g_new >= g:
            break
        rounds += 1
        g = g_new
        winners = np.unique(grown[dist == g_new].reshape(-1, n * n), axis=0)
        if beam_cap is not None and len(winners) > beam_cap:
            winners = winners[:beam_cap]
            capped = True
        beam = winners.reshape(-1, n, n)

    candidates = tuple(seed.with_values(v) for v in beam)
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
