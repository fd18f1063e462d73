"""Split-quaternion algebra: the product, the pseudo norm and the PSL(2,R)
representative; and the disk model that reads the group law geometrically,
with its own formulas checked.  Group elements come from the algebra
exponential of tests/derivation.py."""

import math
import random

import pytest

from derivation import sq_exp
from helpers import gap, mul4
from disk_model import (
    DegenerateDenominator,
    DeterminantError,
    IdentityInput,
    IsometryKind,
    OutsideDisk,
    classify_isometry,
    from_sl2,
    hyperbolic_distance,
    mobius_fixed_point_residual,
    to_mobius_apply,
    to_sl2,
)
from hypgeo import DomainError, SplitQuaternion, psl2_canonicalize, sq_mul

ONE = (1.0, 0.0, 0.0, 0.0)
I = (0.0, 1.0, 0.0, 0.0)
J = (0.0, 0.0, 1.0, 0.0)
K = (0.0, 0.0, 0.0, 1.0)


# the defining table: i^2 = j^2 = 1, k^2 = -1, ij = -k, jk = i, ki = j
UNIT_PRODUCTS = [
    (I, I, ONE),
    (J, J, ONE),
    (K, K, (-1.0, 0.0, 0.0, 0.0)),
    (I, J, (0.0, 0.0, 0.0, -1.0)),
    (J, I, K),
    (J, K, I),
    (K, J, (0.0, -1.0, 0.0, 0.0)),
    (K, I, J),
    (I, K, (0.0, 0.0, -1.0, 0.0)),
]


@pytest.mark.parametrize("a,b,want", UNIT_PRODUCTS)
def test_unit_multiplication_table(a, b, want):
    got = sq_mul(SplitQuaternion(*a), SplitQuaternion(*b))
    assert got.components() == want


@pytest.mark.parametrize("seed", range(20))
def test_product_matches_reference_formula(seed):
    rnd = random.Random(9000 + seed)
    a = tuple(rnd.uniform(-2, 2) for _ in range(4))
    b = tuple(rnd.uniform(-2, 2) for _ in range(4))
    got = sq_mul(SplitQuaternion(*a), SplitQuaternion(*b)).components()
    want = mul4(a, b)
    assert max(abs(x - y) for x, y in zip(got, want)) == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_pseudo_norm_is_multiplicative(seed):
    rnd = random.Random(4100 + seed)
    a = SplitQuaternion(*(rnd.uniform(-2, 2) for _ in range(4)))
    b = SplitQuaternion(*(rnd.uniform(-2, 2) for _ in range(4)))
    lhs = sq_mul(a, b).pseudo_norm()
    rhs = a.pseudo_norm() * b.pseudo_norm()
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_exp_one_parameter_subgroup_property():
    v = (0.8, -0.3, 1.4)
    whole = sq_exp(*v)
    half = sq_exp(*(0.5 * c for c in v))
    assert gap(sq_mul(half, half), whole) < 1e-14


def test_sl2_embedding_of_known_matrix():
    # a=2, b=0.5, c=0.25, d=0.5625 has det ad - bc = 1
    q = from_sl2(2.0, 0.5, 0.25, 0.5625)
    assert q.components() == (1.28125, 0.71875, 0.375, -0.125)
    a, b, c, d = to_sl2(q)
    assert (a, b, c, d) == (2.0, 0.5, 0.25, 0.5625)


@pytest.mark.parametrize("seed", range(25))
def test_sl2_round_trip(seed):
    rnd = random.Random(3200 + seed)
    a, b, c = (rnd.uniform(-2, 2) for _ in range(3))
    if abs(a) < 0.1:
        a = 0.5
    d = (1.0 + b * c) / a
    q = from_sl2(a, b, c, d)
    assert abs(q.pseudo_norm() - 1.0) < 1e-12
    back = to_sl2(q)
    assert max(abs(x - y) for x, y in zip(back, (a, b, c, d))) < 1e-12


@pytest.mark.parametrize("q", [
    (math.nan, 0.0, 0.0, 0.0),  # sq_mul gave four NaNs
    (1.0, math.nan, 0.0, 0.0),
    (0.0, 0.0, math.inf, 1.0),
    (1.0, 0.0, 0.0, -math.inf),
])
def test_product_and_matrix_reject_a_component_that_is_not_finite(q):
    q = SplitQuaternion(*q)
    one = SplitQuaternion(*ONE)
    with pytest.raises(DomainError):
        sq_mul(q, one)
    with pytest.raises(DomainError):
        sq_mul(one, q)


def test_product_and_matrix_reject_overflow():
    big = SplitQuaternion(1e300, 1e300, 0.0, 0.0)
    with pytest.raises(DomainError):
        sq_mul(big, big)


def test_from_sl2_rejects_wrong_determinant():
    with pytest.raises(DeterminantError):
        from_sl2(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(DeterminantError):  # a NaN determinant is not 1
        from_sl2(math.nan, 0.0, 0.0, 1.0)


def test_canonicalize_picks_positive_leading_component():
    q = SplitQuaternion(-0.9611911518003403, 0.1, 0.2, 0.5)
    e = psl2_canonicalize(q)
    assert e.q0 > 0
    # idempotent and well defined on the sign quotient
    again = psl2_canonicalize(e)
    assert gap(again, e) == 0.0
    other = psl2_canonicalize(-q)
    assert gap(other, e) == 0.0


def test_canonicalize_on_the_plane_uses_q3():
    q = SplitQuaternion(0.0, 0.6, 0.8, -math.sqrt(2.0))
    e = psl2_canonicalize(q)
    assert e.q3 > 0
    assert e.q1 == -0.6
    # -0.0 must not survive as a component
    assert math.copysign(1.0, e.q0) == 1.0


@pytest.mark.parametrize("q", [
    (math.nan, 0.0, 0.0, 1.0),
    (0.0, 1.0, 0.0, math.nan),
    (1.0, math.nan, 0.0, 0.0),
    (-math.inf, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),  # q0 = q3 = 0
])
def test_canonicalize_rejects_a_quaternion_without_a_sign(q):
    with pytest.raises(DomainError):
        psl2_canonicalize(SplitQuaternion(*q))


@pytest.mark.parametrize(
    "v,kind",
    [
        ((0.0, 0.0, 1.0), IsometryKind.ELLIPTIC),
        ((1.0, 0.0, 0.0), IsometryKind.HYPERBOLIC),
        ((0.3, 1.2, 0.0), IsometryKind.HYPERBOLIC),
        ((0.6, 0.8, 1.0), IsometryKind.PARABOLIC),
        ((0.0, 0.5, 1.3), IsometryKind.ELLIPTIC),
    ],
)
def test_classification_of_generator_exponentials(v, kind):
    assert classify_isometry(sq_exp(*v)).kind is kind


def test_classification_rejects_identity():
    with pytest.raises(IdentityInput):
        classify_isometry(SplitQuaternion(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(IdentityInput):
        classify_isometry(SplitQuaternion(-1.0, 0.0, 0.0, 0.0))


def test_off_group_pseudo_norm_that_is_not_finite_raises():
    for q in (
        (1e200, 1e200, 0.0, 0.0),  # inf - inf, where x ** 2 raised OverflowError
        (1e200, 0.0, 0.0, 0.0),    # inf
        (1.0, math.nan, 0.0, 0.0),
        (1.0, 0.0, 0.0, -math.inf),
    ):
        with pytest.raises(DomainError):
            SplitQuaternion(*q).pseudo_norm()
    # squares that do not overflow still give a finite value
    assert SplitQuaternion(1e154, 1e154, 0.0, 0.0).pseudo_norm() == 0.0


@pytest.mark.parametrize("q", [
    (1e200, 1e200, 0.0, 0.0),
    (1.0, 0.0, 1e200, 1e200),
    (1.0, math.nan, 0.0, 0.0),
    (math.nan, 0.5, 0.0, 0.0),
    (1.0, 0.0, 0.0, math.inf),
])
def test_classification_rejects_non_finite_sizes(q):
    with pytest.raises(DomainError):
        classify_isometry(SplitQuaternion(*q))


def test_rotation_about_origin_angle():
    theta = 0.77
    cls = classify_isometry(sq_exp(0.0, 0.0, theta))
    assert cls.kind is IsometryKind.ELLIPTIC
    assert cls.fixed_points == (0.0 + 0.0j,)
    assert abs(cls.rotation_angle - theta) < 1e-14
    # the Mobius action rotates the disk by theta
    z = 0.3 + 0.1j
    w = to_mobius_apply(sq_exp(0.0, 0.0, theta), z)
    assert abs(w - z * complex(math.cos(theta), math.sin(theta))) < 1e-14


@pytest.mark.parametrize("seed", range(20))
def test_fixed_points_really_are_fixed(seed):
    rnd = random.Random(606 + seed)
    q = sq_exp(*(rnd.uniform(-1.5, 1.5) for _ in range(3)))
    cls = classify_isometry(q)
    for z in cls.fixed_points:
        assert mobius_fixed_point_residual(q, z) < 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_mobius_action_is_a_homomorphism(seed):
    rnd = random.Random(8080 + seed)
    a = sq_exp(*(rnd.uniform(-1, 1) for _ in range(3)))
    b = sq_exp(*(rnd.uniform(-1, 1) for _ in range(3)))
    z = complex(rnd.uniform(-0.5, 0.5), rnd.uniform(-0.5, 0.5))
    assert abs(
        to_mobius_apply(sq_mul(a, b), z) - to_mobius_apply(a, to_mobius_apply(b, z))
    ) < 1e-12


def test_mobius_action_preserves_disk():
    rnd = random.Random(13)
    for _ in range(50):
        q = sq_exp(*(rnd.uniform(-2, 2) for _ in range(3)))
        theta = rnd.uniform(0, 2 * math.pi)
        z = rnd.uniform(0, 0.95) * complex(math.cos(theta), math.sin(theta))
        assert abs(to_mobius_apply(q, z)) < 1.0


# frozen against d = c * artanh(|z - w| / |1 - conj(w) z|)
DISTANCE_CASES = [
    (0.3 + 0.4j, -0.1 + 0.25j, 1.0, 0.4921016080752366),
    (0.0 + 0.0j, 0.5 + 0.12j, 1.0, 0.5684205866407247),
    (0.3 + 0.4j, -0.1 + 0.25j, 2.0, 0.9842032161504732),
]


@pytest.mark.parametrize("z,w,c,want", DISTANCE_CASES)
def test_distance_matches_frozen_artanh_values(z, w, c, want):
    assert abs(hyperbolic_distance(z, w, c) - want) < 1e-13


@pytest.mark.parametrize("seed", range(25))
def test_distance_matches_artanh_formula(seed):
    rnd = random.Random(21000 + seed)
    z = complex(rnd.uniform(-0.6, 0.6), rnd.uniform(-0.6, 0.6))
    w = complex(rnd.uniform(-0.6, 0.6), rnd.uniform(-0.6, 0.6))
    want = math.atanh(abs((z - w) / (1.0 - w.conjugate() * z)))
    assert abs(hyperbolic_distance(z, w) - want) < 1e-12


def cross_ratio_distance(z1, z2, c=1.0):
    """(c/2) |ln |[u, v, z1, z2]|| from the ideal endpoints u, v of the
    geodesic through z1, z2, found by sending z1 to the origin, where the
    geodesic is a diameter: the definition, independent of the artanh form."""
    w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
    what = w / abs(w)

    def pull_back(u):
        return (u + z1) / (1.0 + z1.conjugate() * u)

    u, v = pull_back(-what), pull_back(what)
    ratio = ((z1 - u) / (z1 - v)) / ((z2 - u) / (z2 - v))
    return 0.5 * c * abs(math.log(abs(ratio)))


@pytest.mark.parametrize("seed", range(25))
def test_distance_matches_cross_ratio_definition(seed):
    rnd = random.Random(47000 + seed)
    z = complex(rnd.uniform(-0.6, 0.6), rnd.uniform(-0.6, 0.6))
    w = complex(rnd.uniform(-0.6, 0.6), rnd.uniform(-0.6, 0.6))
    c = rnd.uniform(0.5, 3.0)
    want = cross_ratio_distance(z, w, c)
    assert abs(hyperbolic_distance(z, w, c) - want) <= 1e-12 * want


def test_distance_near_the_boundary_is_finite_and_accurate():
    # 1 - |z|^2 enters as a product, so the artanh argument never rounds
    # up to 1; opposite points at radius r are 2 artanh r = ln((1+r)/(1-r))
    # apart, and a point at radius r is artanh r from the origin
    for r in (1.0 - 2.0 ** -53, 1.0 - 1e-12, 0.999999):
        want = math.log((1.0 + r) / (1.0 - r))
        assert abs(hyperbolic_distance(r, -r) - want) <= 1e-13 * want
        assert abs(hyperbolic_distance(0.0, 1j * r) - math.atanh(r)) <= 1e-13 * math.atanh(r)
    rnd = random.Random(99)
    for _ in range(200):
        z1, z2 = (complex(math.cos(a), math.sin(a)) * (1.0 - 10.0 ** rnd.uniform(-15.5, -1.0))
                  for a in (rnd.uniform(0.0, 6.3), rnd.uniform(0.0, 6.3)))
        assert math.isfinite(hyperbolic_distance(z1, z2))


@pytest.mark.parametrize("seed", range(15))
def test_distance_is_isometry_invariant(seed):
    rnd = random.Random(333 + seed)
    z = complex(rnd.uniform(-0.5, 0.5), rnd.uniform(-0.5, 0.5))
    w = complex(rnd.uniform(-0.5, 0.5), rnd.uniform(-0.5, 0.5))
    g = sq_exp(*(rnd.uniform(-1.5, 1.5) for _ in range(3)))
    moved = hyperbolic_distance(to_mobius_apply(g, z), to_mobius_apply(g, w))
    assert abs(moved - hyperbolic_distance(z, w)) < 1e-10


def test_distance_rejects_boundary_points():
    with pytest.raises(OutsideDisk):
        hyperbolic_distance(1.0 + 0.0j, 0.0 + 0.0j)
    # NaN is not inside the disk: no NaN distance or image
    with pytest.raises(OutsideDisk):
        hyperbolic_distance(math.nan, 0.0)
    with pytest.raises(OutsideDisk):
        hyperbolic_distance(0.0, complex(0.5, math.nan))
    with pytest.raises(OutsideDisk):
        to_mobius_apply(sq_exp(0.3, -0.2, 0.5), complex(math.nan, 0.0))


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
def test_distance_rejects_a_curvature_scale_that_is_not_finite_and_positive(c):
    with pytest.raises(DomainError, match="curvature scale"):
        hyperbolic_distance(0.1, 0.2, c)


@pytest.mark.parametrize("i", range(4))
def test_mobius_apply_rejects_a_quaternion_that_is_not_finite(i):
    for bad in (math.nan, math.inf):
        q = [1.0, 0.0, 0.0, 0.0]
        q[i] = bad
        with pytest.raises(DomainError, match="not finite"):
            to_mobius_apply(SplitQuaternion(*q), 0.3)


@pytest.mark.parametrize("i", range(4))
def test_fixed_point_residual_rejects_a_quaternion_that_is_not_finite(i):
    q = [1.0, 0.0, 0.0, 0.0]
    q[i] = math.nan
    with pytest.raises(DomainError, match="not finite"):
        mobius_fixed_point_residual(SplitQuaternion(*q), 1.0 + 0.0j)



@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.inf, 0.0), complex(-math.inf, 0.0),
                               complex(0.0, math.inf), complex(0.0, -math.inf)])
def test_fixed_point_residual_rejects_a_z_that_is_not_finite(z):
    # every one of these used to come back as nan
    with pytest.raises(DomainError, match="finite z"):
        mobius_fixed_point_residual(sq_exp(0.3, 0.2, 0.1), z)


def test_fixed_point_residual_of_a_finite_point():
    # the residual is |f(z) - z| at any finite z, off the disk too
    q = sq_exp(0.3, 0.2, 0.1)
    alpha, beta = complex(q.q0, q.q3), complex(q.q1, q.q2)
    for z in (0.3 + 0.1j, 1.0 + 0.0j, 2.0 - 1.5j):
        f = (alpha * z + beta) / (beta.conjugate() * z + alpha.conjugate())
        assert abs(mobius_fixed_point_residual(q, z) - abs(f - z)) < 1e-15

def test_zero_quaternion_has_a_degenerate_denominator():
    # den = 0 and the guard's scale is 0: a strict test read 0 < 0 and
    # the division leaked a bare ZeroDivisionError
    zero = SplitQuaternion(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateDenominator):
        to_mobius_apply(zero, 0.3 + 0.1j)
    with pytest.raises(DegenerateDenominator):
        mobius_fixed_point_residual(zero, 1.0 + 0.0j)


@pytest.mark.parametrize("q", [(1.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
def test_mobius_of_a_large_finite_quaternion_is_that_of_its_direction(q):
    # the map is homogeneous of degree 0 in q; at 1e308 the unscaled
    # products overflowed: (1, 0, 0, 1) came back as -0 + 0j instead of
    # i z, and (1, 1, 1, 1) leaked a bare OverflowError
    z = 0.3 + 0.1j
    want = to_mobius_apply(SplitQuaternion(*q), z)
    big = SplitQuaternion(*(1e308 * c for c in q))
    assert abs(to_mobius_apply(big, z) - want) < 1e-15
    assert abs(mobius_fixed_point_residual(big, z) - abs(want - z)) < 1e-15


def test_mobius_ignores_a_power_of_two_scale_of_q_to_the_bit():
    rnd = random.Random(1921)
    for _ in range(50):
        q = sq_exp(*(rnd.uniform(-1.5, 1.5) for _ in range(3)))
        z = complex(rnd.uniform(-0.6, 0.6), rnd.uniform(-0.6, 0.6))
        want = to_mobius_apply(q, z)
        top = 1024 - math.frexp(max(map(abs, q)))[1]  # max |q_i| in the top binade
        for k in (-900, -1, 1, 900, top):
            scaled = SplitQuaternion(*(math.ldexp(c, k) for c in q))
            assert to_mobius_apply(scaled, z) == want


def test_degenerate_denominator_is_reported():
    # the pole of the map lies outside the closed disk for unit
    # quaternions, so force it with a degenerate one
    with pytest.raises(DegenerateDenominator):
        mobius_fixed_point_residual(SplitQuaternion(1.0, 1.0, 0.0, 0.0), -1.0 + 0.0j)
