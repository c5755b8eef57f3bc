import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyschema import topology as tp
from bodyschema.errors import NotATreeError

# Worked five-node fixture: b under the root via e1; d, f under b via e3, e2;
# a, c under d via e4, e5.
FIVE_NODE_ROWS = ("a", "b", "c", "d", "f")
FIVE_NODE_COLS = ("e1", "e2", "e3", "e4", "e5")
FIVE_NODE_VALUES = np.array(
    [
        [1, 0, 1, 1, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 1, 0, 1],
        [1, 0, 1, 0, 0],
        [1, 1, 0, 0, 0],
    ],
    dtype=np.int8,
)
FIVE_NODE_TREE = tp.OutTree(
    {
        "b": (None, "e1"),
        "d": ("b", "e3"),
        "f": ("b", "e2"),
        "a": ("d", "e4"),
        "c": ("d", "e5"),
    }
)

COUNTEREXAMPLE = tp.DependencyMatrix(
    ("r1", "r2", "r3"),
    ("c1", "c2", "c3"),
    np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int8),
)


def five_node_matrix() -> tp.DependencyMatrix:
    return tp.DependencyMatrix(FIVE_NODE_ROWS, FIVE_NODE_COLS, FIVE_NODE_VALUES)


@st.composite
def random_trees(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    nodes = [f"n{i}" for i in range(1, n + 1)]
    parents = {}
    for i, node in enumerate(nodes):
        # previous nodes and the root are always acyclic parents
        choice = draw(st.integers(0, i))
        parents[node] = (None if choice == 0 else nodes[choice - 1], f"e{i + 1}")
    perm = draw(st.permutations(list(range(n))))
    edges = [f"e{k + 1}" for k in perm]
    return tp.OutTree(
        {node: (parents[node][0], edges[i]) for i, node in enumerate(nodes)}
    )


class TestOutTree:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            tp.OutTree({"a": (None, "e1"), "b": ("a", "e1")})

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            tp.OutTree({"a": ("b", "e1"), "b": ("a", "e2")})

    def test_rejects_unknown_parent(self):
        with pytest.raises(ValueError):
            tp.OutTree({"a": ("ghost", "e1")})

    def test_counts_match(self):
        t = FIVE_NODE_TREE
        assert len(t.nodes) == len(t.edges) == 5

    def test_depths_and_paths(self):
        assert FIVE_NODE_TREE.depth("b") == 1
        assert FIVE_NODE_TREE.depth("a") == 3
        assert FIVE_NODE_TREE.root_path_edges("c") == ("e1", "e3", "e5")

    def test_json_roundtrip(self):
        doc = FIVE_NODE_TREE.to_json_dict()
        assert tp.OutTree.from_json_dict(doc) == FIVE_NODE_TREE

    def test_dot_contains_all_edges(self):
        dot = FIVE_NODE_TREE.to_dot()
        assert '"__root__" -> "b" [label="e1"]' in dot
        assert '"d" -> "a" [label="e4"]' in dot


class TestMatrixBasics:
    def test_label_canonical_equality(self):
        d = five_node_matrix()
        perm_rows = [3, 1, 0, 4, 2]
        perm_cols = [4, 2, 0, 1, 3]
        shuffled = tp.DependencyMatrix(
            tuple(FIVE_NODE_ROWS[i] for i in perm_rows),
            tuple(FIVE_NODE_COLS[j] for j in perm_cols),
            FIVE_NODE_VALUES[np.ix_(perm_rows, perm_cols)],
        )
        assert shuffled == d
        flipped = FIVE_NODE_VALUES.copy()
        flipped[0, 1] ^= 1
        assert tp.DependencyMatrix(FIVE_NODE_ROWS, FIVE_NODE_COLS, flipped) != d

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            tp.DependencyMatrix(("a",), ("e",), np.array([[2]]))

    def test_json_roundtrip(self):
        d = five_node_matrix()
        assert tp.DependencyMatrix.from_json_dict(d.to_json_dict()) == d


class TestColumnSets:
    def test_reconstructed_example(self):
        # two shallow columns nested inside a third: the deep column's
        # unique element is the one row its subsets do not claim
        d = tp.DependencyMatrix(
            ("1", "2", "3"),
            ("c1", "c2", "c3"),
            np.array([[1, 1, 0], [0, 1, 1], [0, 1, 0]], dtype=np.int8),
        )
        sets = tp.column_sets(d)
        assert sets["c2"] == {"1", "2", "3"}
        j = tp.unique_element_sets(d)
        assert j["c1"] == {"1"}
        assert j["c3"] == {"2"}
        assert j["c2"] == {"3"}

    def test_all_zero_column_empty_set(self):
        d = tp.DependencyMatrix(
            ("a",), ("c1", "c2"), np.array([[1, 0]], dtype=np.int8)
        )
        assert tp.column_sets(d)["c2"] == frozenset()

    def test_permutation_matrix_singletons(self):
        d = tp.DependencyMatrix(
            ("a", "b", "c"), ("x", "y", "z"), np.eye(3, dtype=np.int8)
        )
        j = tp.unique_element_sets(d)
        assert sorted(map(tuple, map(sorted, j.values()))) == [("a",), ("b",), ("c",)]


class TestConditions:
    def test_five_node_matrix_satisfies_all(self):
        report = tp.check_conditions(five_node_matrix())
        assert report.satisfies_P and report.satisfies_P0
        assert report.failed() == ()

    def test_counterexample_fails_laminarity(self):
        report = tp.check_conditions(COUNTEREXAMPLE)
        assert not report.laminar_columns
        assert 5 in report.failed()
        assert not report.satisfies_P

    def test_condition_numbering(self):
        d = tp.DependencyMatrix(
            ("a", "b"), ("c1", "c2"), np.array([[0, 0], [1, 0]], dtype=np.int8)
        )
        report = tp.check_conditions(d)
        assert 1 in report.failed()  # all-zero row
        assert 2 in report.failed()  # all-zero column


class TestTranslation:
    def test_five_node_matrix_to_tree(self):
        assert tp.matrix_to_tree(five_node_matrix()) == FIVE_NODE_TREE

    def test_five_node_tree_to_matrix(self):
        assert tp.tree_to_matrix(FIVE_NODE_TREE) == five_node_matrix()

    def test_row_sums_are_depths(self):
        d = tp.tree_to_matrix(FIVE_NODE_TREE)
        for node in FIVE_NODE_TREE.nodes:
            assert int(d.row(node).sum()) == FIVE_NODE_TREE.depth(node)

    def test_depth1_star_is_permutation(self):
        star = tp.OutTree({c: (None, f"e{c}") for c in "abc"})
        assert tp.is_permutation_matrix(tp.tree_to_matrix(star))
        assert tp.matrix_to_tree(tp.tree_to_matrix(star)) == star

    def test_counterexample_raises(self):
        with pytest.raises(NotATreeError) as err:
            tp.matrix_to_tree(COUNTEREXAMPLE)
        assert 5 in err.value.report.failed()

    def test_non_square_raises(self):
        d = tp.DependencyMatrix(
            ("a", "b"),
            ("c1", "c2", "c3"),
            np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8),
        )
        with pytest.raises(NotATreeError):
            tp.matrix_to_tree(d)

    @given(random_trees())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random_trees(self, t):
        assert tp.matrix_to_tree(tp.tree_to_matrix(t)) == t


class TestOperations:
    @given(random_trees())
    @settings(max_examples=100, deadline=None)
    def test_absorption_then_dilation_restores(self, t):
        for i in t.leaves():
            j = t.parent(i)
            if j is None:
                continue
            absorbed = tp.absorption_tree(t, j, i)
            assert absorbed != t
            assert tp.dilation_tree(absorbed, i, j) == t

    @given(random_trees(max_n=5))
    @settings(max_examples=100, deadline=None)
    def test_tree_matrix_commutation(self, t):
        m = tp.tree_to_matrix(t)
        for i in t.nodes:
            for j in t.nodes:
                if i == j:
                    continue
                assert tp.tree_to_matrix(tp.dilation_tree(t, i, j)) == (
                    tp.dilation_matrix(m, i, j)
                )
                assert tp.tree_to_matrix(tp.absorption_tree(t, j, i)) == (
                    tp.absorption_matrix(m, j, i)
                )

    @given(random_trees())
    @settings(max_examples=100, deadline=None)
    def test_dilation_of_root_leaf_commutes(self, t):
        # every leaf under the root moves under every other node: the
        # matrix move is the tree move, and it changes the matrix
        m = tp.tree_to_matrix(t)
        for i in t.leaves():
            if t.parent(i) is not None:
                continue
            for j in t.nodes:
                if j == i:
                    continue
                moved = tp.dilation_matrix(m, i, j)
                assert moved == tp.tree_to_matrix(tp.dilation_tree(t, i, j))
                assert moved != m

    def test_dilation_needs_no_disjointness_guard(self):
        # on every 3x3 0/1 matrix and ordered pair of rows, the move equals
        # the one that also refused rows i and j sharing a 1
        labels = ("r1", "r2", "r3")
        for bits in itertools.product([0, 1], repeat=9):
            values = np.array(bits, dtype=np.int8).reshape(3, 3)
            m = tp.DependencyMatrix(labels, ("c1", "c2", "c3"), values)
            for i, j in itertools.permutations(range(3), 2):
                ri, rj = values[i], values[j]
                guarded = ri.sum() == 1 and values[:, np.argmax(ri)].sum() == 1
                assert not (guarded and (ri & rj).any())
                want = values.copy()
                if guarded:
                    want[i] = ri ^ rj
                got = tp.dilation_matrix(m, labels[i], labels[j])
                assert np.array_equal(got.values, want)

    def test_guard_failure_is_identity(self):
        m = five_node_matrix()
        assert tp.dilation_matrix(m, "a", "b") is m  # row a has three 1s
        assert tp.absorption_matrix(m, "a", "b") is m  # b is not a child of a
        t = FIVE_NODE_TREE
        assert tp.dilation_tree(t, "d", "f") is t  # d is not a leaf
        assert tp.absorption_tree(t, "b", "d") is t  # d has children

    def test_repeated_absorption_reaches_depth_one(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            nodes = [f"n{i}" for i in range(1, n + 1)]
            parents = {}
            for i, node in enumerate(nodes):
                j = int(rng.integers(0, i + 1))
                parents[node] = None if j == 0 else nodes[j - 1]
            edges = list(rng.permutation([f"e{k}" for k in range(1, n + 1)]))
            t = tp.OutTree(
                {node: (parents[node], edges[i]) for i, node in enumerate(nodes)}
            )
            guard = 0
            while any(t.depth(x) > 1 for x in t.nodes):
                deep = [x for x in t.leaves() if t.depth(x) > 1]
                i = deep[0]
                t = tp.absorption_tree(t, t.parent(i), i)
                guard += 1
                assert guard < 100
            assert tp.is_permutation_matrix(tp.tree_to_matrix(t))


class TestReduction:
    def test_permutation_input_unchanged(self):
        star = tp.OutTree({c: (None, f"e{c}") for c in "abc"})
        m = tp.tree_to_matrix(star)
        reduced, log = tp.reduce_to_permutation(m)
        assert log == []
        assert reduced == m

    def test_five_node_reduction_preserves_pairing(self):
        reduced, log = tp.reduce_to_permutation(five_node_matrix())
        assert tp.is_permutation_matrix(reduced)
        for node, edge in [("a", "e4"), ("b", "e1"), ("c", "e5"), ("d", "e3"), ("f", "e2")]:
            assert reduced.row(node)[reduced.col_labels.index(edge)] == 1

    @given(random_trees(max_n=4))
    @settings(max_examples=100, deadline=None)
    def test_inverted_log_restores(self, t):
        d = tp.tree_to_matrix(t)
        reduced, log = tp.reduce_to_permutation(d)
        assert tp.is_permutation_matrix(reduced)
        assert tp.apply_operations(reduced, tp.invert_operations(log)) == d

    def test_invalid_matrix_raises(self):
        with pytest.raises(NotATreeError):
            tp.reduce_to_permutation(COUNTEREXAMPLE)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 96)])
    def test_counts(self, n, count):
        trees = list(tp.enumerate_trees(n))
        assert len(trees) == count == tp.tree_count_formula(n)
        assert len({t.key() for t in trees}) == count

    def test_guard(self):
        with pytest.raises(ValueError):
            next(tp.enumerate_trees(6))

    def test_no_duplicate_matrix_rows_or_columns(self):
        for t in tp.enumerate_trees(3):
            report = tp.check_conditions(tp.tree_to_matrix(t))
            assert report.no_duplicate_rows and report.no_duplicate_cols


class TestRowCoverage:
    def test_every_row_lies_in_some_unique_element_set(self):
        # whenever no row is all-zero and the column sets are laminar, each
        # row is claimed by the smallest column set containing it
        import itertools

        for bits in itertools.product([0, 1], repeat=9):
            d = tp.DependencyMatrix(
                ("r1", "r2", "r3"),
                ("c1", "c2", "c3"),
                np.array(bits, dtype=np.int8).reshape(3, 3),
            )
            report = tp.check_conditions(d)
            if not (report.no_zero_rows and report.laminar_columns):
                continue
            claimed = set().union(*tp.unique_element_sets(d).values())
            assert claimed == {"r1", "r2", "r3"}


class TestSemiEquivalence:
    def test_same_parents_different_edges(self):
        t1 = tp.OutTree({"a": (None, "e1"), "b": ("a", "e2")})
        t2 = tp.OutTree({"a": (None, "e2"), "b": ("a", "e1")})
        assert tp.semi_equivalent(t1, t2)
        assert t1 != t2

    def test_different_parents(self):
        t1 = tp.OutTree({"a": (None, "e1"), "b": ("a", "e2")})
        t3 = tp.OutTree({"a": (None, "e1"), "b": (None, "e2")})
        assert not tp.semi_equivalent(t1, t3)
