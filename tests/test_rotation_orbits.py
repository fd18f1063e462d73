"""Rotation orbits: the wavefront and cut-locus grids evaluate Exp once per
row and turn it per column.

With I1 = I2, Exp(R p, t) = R Exp(p, t) for rotations R about e3, so each
grid row shares q0, q3 and its causal record.  These tests check that the
grids agree bit for bit with `exp_map` of their own covectors, that the
shared record is the one the components give, and that the points match a
40-digit closed form written here from the formulas, not from the package.
"""

import math

import mpmath
import pytest

from hypgeo import (
    CausalType,
    Covector,
    GroupTag,
    Psl2Element,
    SplitQuaternion,
    covector_from_components,
    cut_locus_sample,
    cut_time,
    exp_map,
    injectivity_radius,
    metric_from_eta,
    wavefront_sample,
)

# the sub-Riemannian end, light-like rows at n = 9, the PSL2 and SL2 splits, far
ETAS = (-1.001, -4.0 / 3.0, -1.5, -2.0, -30.0)
GRIDS = (8, 9, 33, 64)
ORACLE_STRIDE = 23  # every point of the small grids, every 23rd of the large


def _mp_exp(i1, i3, p1, p2, p3, t):
    """Exp(p, t) at 40 digits from the closed forms of the paper.

    tau = t |p| / (2 I1) with |p|^2 = |p1^2 + p2^2 - p3^2|, pbar = p/|p|,
    theta = tau eta pbar3 and eta = -I1/I3 - 1:
        q0 = C(tau) cos theta - pbar3 S(tau) sin theta
        (q1, q2) = S(tau) R(-theta) (pbar1, pbar2)
        q3 = C(tau) sin theta + pbar3 S(tau) cos theta
    with (C, S) = (cos, sin) when time-like and (cosh, sinh) when
    space-like.  On the cone the form is affine in t: with a = t eta p3/(2 I1)
    and b = t/(2 I1), q0 = cos a - b p3 sin a, (q1, q2) = b R(-a)(p1, p2)
    and q3 = sin a + b p3 cos a.
    """
    with mpmath.workdps(40):
        i1, i3, p1, p2, p3, t = (mpmath.mpf(v) for v in (i1, i3, p1, p2, p3, t))
        eta = -i1 / i3 - 1
        kil = p1 * p1 + p2 * p2 - p3 * p3
        if kil == 0:
            a = t * eta * p3 / (2 * i1)
            b = t / (2 * i1)
            c, s = mpmath.cos(a), mpmath.sin(a)
            return (c - b * p3 * s, b * (p1 * c + p2 * s), b * (p2 * c - p1 * s),
                    s + b * p3 * c)
        norm = mpmath.sqrt(abs(kil))
        tau = t * norm / (2 * i1)
        b1, b2, b3 = p1 / norm, p2 / norm, p3 / norm
        if kil < 0:
            ct, st = mpmath.cos(tau), mpmath.sin(tau)
        else:
            ct, st = mpmath.cosh(tau), mpmath.sinh(tau)
        theta = tau * eta * b3
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        return (ct * c - b3 * st * s, st * (b1 * c + b2 * s), st * (b2 * c - b1 * s),
                ct * s + b3 * st * c)


def _rows(items, n):
    return [items[k:k + n] for k in range(0, len(items), n)]


def _check_rows(m, rows):
    """(b) and (c) on rows of (covector, point components): one (q0, q3)
    per row, and each covector re-validates to its row's causal type."""
    for row in rows:
        assert len({q[0::3] for _, q in row}) == 1
        for p, _ in row:
            again = covector_from_components(m, p.p1, p.p2, p.p3)
            assert again.ctype is row[0][0].ctype


@pytest.mark.parametrize("group", list(GroupTag))
@pytest.mark.parametrize("eta", ETAS)
def test_wavefront_rows_are_rotation_orbits(eta, group):
    m = metric_from_eta(eta)
    radius = injectivity_radius(m)
    worst = 0.0
    for n in GRIDS:
        for t in (0.5 * radius, 1.5 * radius):
            front = wavefront_sample(m, t, n, group)
            for k, w in enumerate(front):
                # (a) the point is exp_map of its own covector, bit for bit
                assert w.point.components() == exp_map(m, w.covector, t).components()
                # (d) and it is the closed form to 1e-13 of its size
                if t == 0.5 * radius and (n <= 9 or k % ORACLE_STRIDE == 0):
                    want = _mp_exp(m.i1, m.i3, *w.covector.components(), t)
                    size = float(max(abs(c) for c in want))
                    err = max(abs(float(c - mpmath.mpf(g))) for c, g in
                              zip(want, w.point.components())) / size
                    worst = max(worst, err)
            _check_rows(m, _rows([(w.covector, w.point.components()) for w in front], n))
    assert worst <= 1e-13, worst


def test_wavefront_light_like_rows_keep_their_type():
    # at eta = -4/3 the n = 9 rows u = -1/2 and 1/2 lie on the light cone,
    # and the first and last rows are the poles
    m = metric_from_eta(-4.0 / 3.0)
    t = injectivity_radius(m)
    front = wavefront_sample(m, t, 9, GroupTag.PSL2)
    types = [row[0].covector.ctype for row in _rows(front, 9)]
    assert types[2] is types[6] is CausalType.LIGHT_LIKE
    assert types[0] is types[8] is CausalType.TIME_LIKE
    assert all(w.covector.p1 == w.covector.p2 == 0.0 for w in front[:9])
    for w in front:
        assert w.point.components() == exp_map(m, w.covector, t).components()
        want = _mp_exp(m.i1, m.i3, *w.covector.components(), t)
        assert max(abs(float(c - mpmath.mpf(g))) for c, g in
                   zip(want, w.point.components())) <= 1e-13 * float(max(map(abs, want)))


def _upper(q):
    return tuple(-c for c in q.components()) if q.q3 < 0.0 else q.components()


@pytest.mark.parametrize("group", list(GroupTag))
@pytest.mark.parametrize("eta", ETAS)
def test_cut_locus_plane_rows_are_rotation_orbits(eta, group):
    m = metric_from_eta(eta)
    normal = _upper if group is GroupTag.PSL2 else (lambda q: q.components())
    cases = [(n, 3.0) for n in GRIDS] + [(9, 1e-3), (9, 30.0)]
    for n, rho_max in cases:
        plane = cut_locus_sample(m, group, n, rho_max)[0]
        assert plane.stratum == ("Z" if group is GroupTag.PSL2 else "H")
        pairs = list(zip(plane.parameters, plane.points))
        for (p, t), point in pairs:
            # (a) the point is normal(exp_map) of its own witness, bit for bit
            assert point.components() == normal(exp_map(m, p, t))
        _check_rows(m, _rows([(p, point.components()) for (p, _), point in pairs], n))
        for row in _rows(plane.parameters, n):
            assert len({t for _, t in row}) == 1


@pytest.mark.parametrize("group", list(GroupTag))
def test_grid_records_have_their_exact_types(group):
    m = metric_from_eta(-4.0 / 3.0)
    for w in wavefront_sample(m, injectivity_radius(m), 9, group):
        assert type(w.covector) is Covector
        assert type(w.point) is SplitQuaternion
    strata = cut_locus_sample(m, group, 9)
    plane = strata[0]
    want = Psl2Element if group is GroupTag.PSL2 else SplitQuaternion
    for point, (p, t) in zip(plane.points, plane.parameters):
        assert type(point) is want
        assert type(p) is Covector
        assert type(t) is float
    if group is GroupTag.PSL2:
        assert all(type(point.rep) is SplitQuaternion for point in plane.points)
    # one witness per plane row; the axis and circle strata (eta > -c for
    # both groups here) keep one per point, at base angle 0
    assert len(strata) == 3 and len(plane.witnesses) == 9
    for s in strata[1:]:
        assert len(s.witnesses) == len(s.points) and {base for _, _, base in s.witnesses} == {0.0}
    for s in strata:
        for p, t, base in s.witnesses:
            assert (type(p), type(t), type(base)) == (Covector, float, float)
        pairs = s.parameters
        assert type(pairs) is tuple and len(pairs) == len(s.points)
        for pair in pairs:
            assert type(pair) is tuple and len(pair) == 2
            assert (type(pair[0]), type(pair[1])) == (Covector, float)


@pytest.mark.parametrize("group", list(GroupTag))
def test_wavefront_row_is_its_row_of_the_sample(group):
    # the sample is row-major: the slice [i n, (i + 1) n) turns the row
    # covector u = -1 + 2i/(n-1) through the phases 2 pi j/n, one flag a row;
    # eta = -4/3, n = 9: rows 2 and 6 are light-like, 0 and 8 the poles
    m = metric_from_eta(-4.0 / 3.0)
    n = 9
    for t in (0.5 * injectivity_radius(m), 2.0 * injectivity_radius(m)):
        front = wavefront_sample(m, t, n, group)
        for i in range(n):
            u = -1.0 + 2.0 * i / (n - 1)
            horizontal = math.sqrt(max(m.i1 * (1.0 - u * u), 0.0))
            p_row = covector_from_components(m, horizontal, 0.0, u * math.sqrt(m.i3))
            row = front[i * n:(i + 1) * n]
            # NamedTuple equality: every field, the causal record included
            assert [w.covector for w in row] == [
                p_row._replace(p1=horizontal * math.cos(phi), p2=horizontal * math.sin(phi))
                for phi in (2.0 * math.pi * j / n for j in range(n))]
            assert [w.point for w in row] == [exp_map(m, w.covector, t) for w in row]
            assert {w.optimal for w in row} == {t < cut_time(m, p_row, group)}


@pytest.mark.parametrize("group", list(GroupTag))
@pytest.mark.parametrize("eta", ETAS)
def test_plane_validation_error_is_the_worst_gap_to_the_ideal(eta, group):
    m = metric_from_eta(eta)
    for n, rho_max in ((8, 3.0), (9, 0.5)):
        plane = cut_locus_sample(m, group, n, rho_max)[0]
        worst = 0.0
        for k, point in enumerate(plane.points):
            i, j = divmod(k, n)
            rho = rho_max * (i + 1) / n
            phi = 2.0 * math.pi * j / n
            x, y = rho * math.cos(phi), rho * math.sin(phi)
            sheet = math.sqrt(1.0 + rho * rho)
            ideal = (0.0, x, y, sheet) if group is GroupTag.PSL2 else (-sheet, x, y, 0.0)
            worst = max([worst] + [abs(a - b) for a, b in zip(point.components(), ideal)])
        assert plane.validation_error == worst
        assert worst < 1e-9
