import itertools

import numpy as np
import pytest

from bodyschema import correction as co
from bodyschema import topology as tp

from test_completion import random_tree
from test_topology import COUNTEREXAMPLE, five_node_matrix

LABELS3 = ("r1", "r2", "r3")
COLS3 = ("c1", "c2", "c3")


def _reference_trellis(d: tp.DependencyMatrix, beam_cap=None) -> co.CorrectionResult:
    """The trellis search as one move at a time: every ``dilation_matrix``
    of every beam member, scored by ``hamming`` and keyed by
    ``canonical_key``."""
    k, n = d.shape
    if k != n:
        raise ValueError("trellis_correct needs a square matrix")
    if tp.check_conditions(d).satisfies_P:
        return co.CorrectionResult((d,), 0, 0, False)
    if beam_cap is None and n > co.AUTO_CAP_THRESHOLD:
        beam_cap = co.AUTO_CAP
    seed = co.nearest_permutation(d)
    beam = {seed.canonical_key(): seed}
    g = co.hamming(seed, d)
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
                    grown = tp.dilation_matrix(m, i, j)
                    if grown is m:
                        continue
                    key = grown.canonical_key()
                    if key not in scored:
                        scored[key] = (co.hamming(grown, d), grown)
        if not scored:
            break
        g_new = min(dist for dist, _ in scored.values())
        if g_new >= g:
            break
        rounds += 1
        g = g_new
        winners = sorted(key for key, (dist, _) in scored.items() if dist == g_new)
        if beam_cap is not None and len(winners) > beam_cap:
            winners = winners[:beam_cap]
            capped = True
        beam = {key: scored[key][1] for key in winners}
    candidates = tuple(beam[key] for key in sorted(beam))
    return co.CorrectionResult(candidates, g, rounds, capped)


def assert_same_result(got: co.CorrectionResult, want: co.CorrectionResult):
    assert (got.distance, got.rounds, got.beam_capped) == (
        want.distance,
        want.rounds,
        want.beam_capped,
    )
    assert len(got.candidates) == len(want.candidates)
    for a, b in zip(got.candidates, want.candidates):
        assert (a.row_labels, a.col_labels) == (b.row_labels, b.col_labels)
        assert a.values.dtype == b.values.dtype
        assert np.array_equal(a.values, b.values)
        assert a.merged_groups == b.merged_groups


def shuffled_tree_matrix(n: int, rng) -> tp.DependencyMatrix:
    """Matrix of a random tree on n nodes, rows and columns in a random
    (generally non-canonical) order."""
    m = tp.tree_to_matrix(random_tree(rng, n))
    ri, ci = rng.permutation(n), rng.permutation(n)
    return tp.DependencyMatrix(
        tuple(m.row_labels[i] for i in ri),
        tuple(m.col_labels[j] for j in ci),
        m.values[np.ix_(ri, ci)],
    )


def flipped(d: tp.DependencyMatrix, count: int, rng) -> tp.DependencyMatrix:
    k, n = d.shape
    values = d.values.copy()
    for pos in rng.choice(k * n, size=min(count, k * n), replace=False):
        values[pos // n, pos % n] ^= 1
    return d.with_values(values)


def y_shaped_flipped() -> tp.DependencyMatrix:
    """A Y-shaped tree matrix with one flipped bit."""
    vals = np.array(
        [
            [0, 0, 1, 0],
            [1, 1, 1, 0],
            [1, 0, 1, 0],
            [0, 1, 1, 1],
        ],
        dtype=np.int8,
    )
    return tp.DependencyMatrix(("a", "b", "c", "d"), ("e1", "e2", "e3", "e4"), vals)


def brute_best_overlap(values: np.ndarray) -> int:
    n = values.shape[0]
    best = -1
    for perm in itertools.permutations(range(n)):
        best = max(best, int(sum(values[i, perm[i]] for i in range(n))))
    return best


def brute_min_distance(d: tp.DependencyMatrix) -> int:
    n = d.shape[0]
    return min(
        co.hamming(tp.tree_to_matrix(t), d)
        for t in tp.enumerate_trees(n, d.row_labels, d.col_labels)
    )


class TestHamming:
    def test_self_distance_zero(self):
        m = five_node_matrix()
        assert co.hamming(m, m) == 0

    def test_single_flip(self):
        m = five_node_matrix()
        v = m.values.copy()
        v[2, 1] ^= 1
        assert co.hamming(m, m.with_values(v)) == 1

    def test_symmetric_and_label_aligned(self):
        rng = np.random.default_rng(0)
        a_vals = rng.integers(0, 2, (4, 4)).astype(np.int8)
        b_vals = rng.integers(0, 2, (4, 4)).astype(np.int8)
        rows, cols = tuple("abcd"), tuple("wxyz")
        a = tp.DependencyMatrix(rows, cols, a_vals)
        b = tp.DependencyMatrix(rows, cols, b_vals)
        assert co.hamming(a, b) == co.hamming(b, a)
        perm = [2, 0, 3, 1]
        shuffled = tp.DependencyMatrix(
            tuple(rows[i] for i in perm), cols, b_vals[perm, :]
        )
        assert co.hamming(a, shuffled) == co.hamming(a, b)

    def test_mismatched_labels_rejected(self):
        a = tp.DependencyMatrix(("a",), ("x",), np.array([[1]], dtype=np.int8))
        b = tp.DependencyMatrix(("b",), ("x",), np.array([[1]], dtype=np.int8))
        with pytest.raises(ValueError):
            co.hamming(a, b)


class TestNearestPermutation:
    def test_identity_input(self):
        d = tp.DependencyMatrix(LABELS3, COLS3, np.eye(3, dtype=np.int8))
        perm = co.nearest_permutation(d)
        assert perm == d
        assert co.overlap(d, perm) == 3

    def test_all_ones_ties_break_lexicographically(self):
        d = tp.DependencyMatrix(LABELS3, COLS3, np.ones((3, 3), dtype=np.int8))
        perm = co.nearest_permutation(d)
        assert np.array_equal(perm.canonical().values, np.eye(3, dtype=np.int8))
        assert co.overlap(d, perm) == 3

    def test_matches_brute_force_small(self):
        for bits in itertools.islice(itertools.product([0, 1], repeat=9), 0, 512, 7):
            vals = np.array(bits, dtype=np.int8).reshape(3, 3)
            d = tp.DependencyMatrix(LABELS3, COLS3, vals)
            assert co.overlap(d, co.nearest_permutation(d)) == brute_best_overlap(vals)

    def test_matches_brute_force_random_6x6(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            vals = (rng.random((6, 6)) < 0.4).astype(np.int8)
            d = tp.DependencyMatrix(
                tuple(f"r{i}" for i in range(6)),
                tuple(f"c{i}" for i in range(6)),
                vals,
            )
            assert co.overlap(d, co.nearest_permutation(d)) == brute_best_overlap(vals)

    def test_requires_square(self):
        d = tp.DependencyMatrix(
            ("a",), ("x", "y"), np.array([[1, 0]], dtype=np.int8)
        )
        with pytest.raises(ValueError):
            co.nearest_permutation(d)


class TestTrellis:
    def test_valid_input_returned_at_distance_zero(self):
        m = five_node_matrix()
        result = co.trellis_correct(m)
        assert result.distance == 0
        assert result.candidates == (m,)

    def test_counterexample_reaches_brute_force_minimum(self):
        result = co.trellis_correct(COUNTEREXAMPLE)
        assert result.distance == brute_min_distance(COUNTEREXAMPLE) == 2
        for cand in result.candidates:
            assert tp.check_conditions(cand).satisfies_P
            assert co.hamming(cand, COUNTEREXAMPLE) == 2

    def test_all_zero_matrix_yields_permutations(self):
        z = tp.DependencyMatrix(LABELS3, COLS3, np.zeros((3, 3), dtype=np.int8))
        result = co.trellis_correct(z)
        assert result.distance == 3
        assert all(tp.is_permutation_matrix(c) for c in result.candidates)

    def test_multi_round_plateau_with_multiple_candidates(self):
        # a Y-shaped tree matrix with one flipped bit: the minimum falls over
        # several growth rounds, then plateaus with three equally close
        # valid candidates
        d = y_shaped_flipped()
        result = co.trellis_correct(d)
        assert result.rounds >= 2
        assert result.distance == 1
        assert len(result.candidates) == 3
        assert all(tp.check_conditions(c).satisfies_P for c in result.candidates)
        assert all(co.hamming(c, d) == 1 for c in result.candidates)

    def test_beam_cap_recorded(self):
        z = tp.DependencyMatrix(LABELS3, COLS3, np.zeros((3, 3), dtype=np.int8))
        capped = co.trellis_correct(z, beam_cap=1)
        assert len(capped.candidates) <= 1
        # the Y-shaped matrix improves over several rounds with more than
        # one winner, so a cap of one truncates the beam
        d = y_shaped_flipped()
        assert not co.trellis_correct(d).beam_capped
        capped = co.trellis_correct(d, beam_cap=1)
        assert capped.beam_capped
        assert len(capped.candidates) == 1
        assert capped.distance == 1

    @pytest.mark.parametrize("beam_cap", [None, 1, 2, 3])
    def test_equals_per_move_reference(self, beam_cap):
        rng = np.random.default_rng(15)
        for n in range(1, 9):
            for flips in (1, 2, 3):
                for _ in range(3):
                    d = flipped(shuffled_tree_matrix(n, rng), flips, rng)
                    assert_same_result(
                        co.trellis_correct(d, beam_cap), _reference_trellis(d, beam_cap)
                    )


class TestCorrectPartial:
    def test_complete_valid_input_passthrough(self):
        m = five_node_matrix()
        result = co.correct_partial(m)
        assert result.candidates == (m,) and result.distance == 0

    def test_partial_valid_rows_recoverable(self):
        m = five_node_matrix()
        sub = m.restrict_rows(["a", "b", "d", "f"])  # drop leaf c
        result = co.correct_partial(sub)
        assert all(tp.check_conditions(c).satisfies_P for c in result.candidates)
        restrictions = [
            c.restrict_rows(sub.row_labels).canonical_key() for c in result.candidates
        ]
        assert sub.canonical_key() in restrictions

    def test_empty_partial_yields_permutations(self):
        empty = tp.DependencyMatrix(
            ("a",), COLS3, np.array([[1, 0, 0]], dtype=np.int8)
        )
        result = co.correct_partial(empty)
        assert all(tp.check_conditions(c).satisfies_P for c in result.candidates)

    @pytest.mark.parametrize("beam_cap", [None, 1, 2, 3])
    def test_equals_per_move_reference(self, beam_cap, monkeypatch):
        rng = np.random.default_rng(16)
        cases = []
        for n in range(2, 9):
            for dropped in (1, 2):
                for flips in (0, 1):
                    d = flipped(shuffled_tree_matrix(n, rng), flips, rng)
                    keep = sorted(rng.choice(n, size=n - min(dropped, n - 1), replace=False))
                    cases.append(d.restrict_rows([d.row_labels[i] for i in keep]))
        got = [co.correct_partial(d, beam_cap) for d in cases]
        monkeypatch.setattr(co, "trellis_correct", _reference_trellis)
        for d, result in zip(cases, got):
            assert_same_result(result, co.correct_partial(d, beam_cap))

    def test_rejects_wide(self):
        wide = tp.DependencyMatrix(
            ("a", "b"), ("x",), np.array([[1], [0]], dtype=np.int8)
        )
        with pytest.raises(ValueError):
            co.correct_partial(wide)
