import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodyschema import rigid_motion as rm

finite_angle = st.floats(-10.0, 10.0, allow_nan=False)
vec3 = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=3, max_size=3)


def test_hat_zero():
    assert np.array_equal(rm.hat([0, 0, 0]), np.zeros((3, 3)))


def test_hat_pattern():
    expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
    assert np.array_equal(rm.hat([1, 2, 3]), expected)


@given(vec3)
def test_hat_annihilates_own_vector(v):
    v = np.array(v)
    assert np.allclose(rm.hat(v) @ v, 0.0, atol=1e-12)


@given(vec3)
def test_vee_hat_roundtrip_exact(v):
    v = np.array(v)
    assert np.array_equal(rm.vee(rm.hat(v)), v)
    w = rm.hat(v)
    assert np.array_equal(rm.hat(rm.vee(w)), w)


def test_rodrigues_zero_rate_is_identity():
    assert np.array_equal(rm.rodrigues([0, 0, 0], 0.01), np.eye(3))


def test_rodrigues_half_turn_about_z_matches_rpy():
    r = rm.rodrigues([0, 0, np.pi], 1.0)
    assert np.allclose(r, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)
    assert np.allclose(r, rm.rpy_matrix([0, 0, np.pi]), atol=1e-12)


@given(vec3, st.floats(1e-3, 2.0))
def test_rodrigues_is_rotation(v, ts):
    assert rm.is_rotation(rm.rodrigues(np.array(v), ts))


@given(st.floats(-8.0, 8.0))
@example(1.4177781820123874e-07)
def test_rodrigues_angle_wraps(phi):
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    got = rm.rotation_angle(rm.rodrigues(phi * u, 1.0))
    want = abs((phi + np.pi) % (2.0 * np.pi) - np.pi)
    # the trace carries a few eps of round-off, and arccos((tr-1)/2) turns an
    # error e in its argument into e / sin(angle), or sqrt(2 e) at either end
    # of its range, where its derivative is infinite
    eps = np.finfo(float).eps
    tol = 1e-9 + 16.0 * eps / max(np.sin(want), np.sqrt(eps))
    assert abs(got - want) < tol


def test_rpy_identity():
    assert np.allclose(rm.rpy_matrix([0, 0, 0]), np.eye(3))


def test_rpy_quarter_roll():
    expected = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.allclose(rm.rpy_matrix([np.pi / 2, 0, 0]), expected, atol=1e-12)


@given(st.tuples(finite_angle, finite_angle, finite_angle))
def test_rpy_matches_single_axis_composition(angles):
    r, p, y = angles
    direct = rm.rpy_matrix([r, p, y])
    composed = rm.rot_z(y) @ rm.rot_y(p) @ rm.rot_x(r)
    assert np.allclose(direct, composed, atol=1e-12)


def test_rpy_orthonormal_for_many_random_triples():
    rng = np.random.default_rng(0)
    angles = rng.uniform(-np.pi, np.pi, (10_000, 3))
    for a in angles:
        r = rm.rpy_matrix(a)
        assert abs(np.linalg.det(r) - 1.0) < 1e-9
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9


@given(st.tuples(finite_angle, finite_angle, finite_angle))
def test_rpy_extraction_roundtrip(angles):
    r = rm.rpy_matrix(angles)
    assert np.allclose(rm.rpy_matrix(rm.rpy_from_matrix(r)), r, atol=1e-9)


def test_rotation_angle_examples():
    assert rm.rotation_angle(np.eye(3)) == 0.0
    assert abs(rm.rotation_angle(np.diag([-1.0, -1.0, 1.0])) - np.pi) < 1e-12


@given(st.tuples(finite_angle, finite_angle, finite_angle))
def test_rotation_angle_zero_for_equal_rotations(angles):
    r = rm.rpy_matrix(angles)
    assert rm.rotation_angle(r.T @ r) < 1e-6


@given(st.tuples(finite_angle, finite_angle, finite_angle), vec3)
def test_conjugation_identity(angles, v):
    r = rm.rpy_matrix(angles)
    v = np.array(v)
    assert np.allclose(rm.hat(r @ v), r @ rm.hat(v) @ r.T, atol=1e-12)

