"""Scaling-limit checks: lattice sums, Givental quadrature, Bessel route."""

import cmath
import json
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from sympgt.algebra import QSeriesCtx
from sympgt.characters import qwhittaker_pattern_sum
from sympgt.continuous import central_derivatives
from sympgt.limits import (ScalingCtx, _psi_rank_one, convergence_table,
                           scaled_qwhittaker, so3_whittaker, so_whittaker)

SO_REF = json.loads((Path(__file__).parent / "data" / "so_whittaker_reference.json").read_text())


def test_scaling_ctx_fields():
    s = ScalingCtx(0.1, (0.7,))
    # the value and nothing else: no table that a computation could grow
    assert vars(s) == {"eps": 0.1, "lam": (0.7,), "m": 24, "A": s.A}
    assert math.isclose(s.A, -math.pi ** 2 / 0.6 - 0.5 * math.log(0.1 / (2 * math.pi)))
    with pytest.raises(ValueError):
        ScalingCtx(1.5, (0.7,))


def test_snap_distance():
    s = ScalingCtx(0.1, (0.7,))
    assert abs(s.snap_distance((0.55,)) - 0.05) < 1e-12
    assert s.snap_distance((0.3,)) < 1e-12


def test_z_shape_rejects_disordered():
    s = ScalingCtx(0.1, (0.7, 0.3))
    with pytest.raises(ValueError):
        s.z_shape(2, (0.0, 10.0))


def bessel_k(nu: complex, z: float) -> float:
    """K_nu(z) = so3_whittaker(nu/2, -2 log(z/2)) / 2, the closed form read back."""
    return so3_whittaker(nu / 2, -2.0 * math.log(z / 2.0)) / 2.0


def test_bessel_symmetry_and_decay():
    assert abs(bessel_k(0.7j, 1.5) - bessel_k(-0.7j, 1.5)) < 1e-12
    assert abs(bessel_k(0.5, 2.0) - bessel_k(-0.5, 2.0)) < 1e-12
    assert bessel_k(0.3j, 10.0) / bessel_k(0.3j, 8.0) < math.exp(-1.9)


def test_givental_matches_bessel():
    # (0.4, -10.0) is about e^{-297}: both routes must keep their relative accuracy
    for lam, x in [(0.7j, 0.5), (0.3j, -1.0), (0.5, 1.0), (0.4, -10.0)]:
        g = so_whittaker(1, lam, x)
        b = so3_whittaker(lam, x)
        assert abs(g - b) / abs(b) < 1e-8
        assert abs(g.imag) < 1e-12 * abs(g)


def test_givental_doubling_stable():
    # against 2 K_{2 lam}(2 e^{-x/2}) at mpmath's working precision; at
    # x = 12 the integrand fills [0, x], so the nodes must reach the wall at 0
    for lam in (0.7j, 0.4):
        for x in (-8.0, 0.5, 3.0, 12.0):
            b = complex(2 * mp.besselk(2 * lam, 2 * mp.exp(-mp.mpf(x) / 2)))
            assert abs(so_whittaker(1, lam, x) - b) < 1e-12 * abs(b)


def test_givental_reads_only_n_lambdas():
    assert so_whittaker(1, (0.7j, 0.3j), 0.5) == so_whittaker(1, 0.7j, 0.5)


@pytest.mark.parametrize("point", SO_REF["points"], ids=lambda p: f"{p['lam']}-{p['x']}")
def test_rank_two_pinned(point):
    lam = tuple(complex(l) for l in point["lam"])
    ref = complex(*(float(v) for v in point["value"]))
    assert abs(so_whittaker(2, lam, tuple(point["x"])) - ref) < 1e-12 * abs(ref)


def test_rank_two_far_from_the_wall():
    # the lower levels fill [0, x], so the nodes must reach the wall at 0;
    # the value is from a linear-space Givental grid with 3200 nodes
    ref = -0.4236465985871846
    assert abs(so_whittaker(2, (0.7j, 0.3j), (11.0, 10.0)) - ref) < 1e-9 * abs(ref)


def test_givental_positive_at_zero_order():
    assert so_whittaker(1, 0.0, 0.3).real > 0


def so_eigen_residual(lam: complex, x: float) -> float:
    """|H Psi - (lam^2/2) Psi| at rank one, H = d^2/dx^2 / 2 - e^{-x}/2, with
    d^2/dx^2 by central_derivatives of so_whittaker."""
    f = lambda xv: so_whittaker(1, lam, xv)
    val = f((x,))
    _, d2 = central_derivatives(f, (x,), 0, val)
    return abs(0.5 * d2 - 0.5 * math.exp(-x) * val - 0.5 * lam ** 2 * val)


def test_so_eigen_residual():
    assert so_eigen_residual(0.7j, 0.3) < 1e-4
    assert so_eigen_residual(0.4, -0.5) < 1e-4


def test_rank_one_convergence_ladder():
    rows = convergence_table(1, (0.7,), [-1.0, 0.0, 1.0, 2.0], [0.1, 0.05, 0.02])
    by_x: dict = {}
    for r in rows:
        by_x.setdefault(r["x"], []).append(r["abs_error"])
        assert abs(r["value"].imag) < 1e-8 * abs(r["value"])
    for errs in by_x.values():
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 5e-2


def test_a_table_row_does_not_depend_on_the_points_before_it():
    xs, eps = [-1, 0, 1, 2], [0.1, 0.05, 0.02]
    alone = {(r["x"], r["eps"]): r for x in xs for r in convergence_table(1, (0.7,), [x], eps)}
    rows = convergence_table(1, (0.7,), xs, eps)
    assert len(rows) == len(alone) == 12
    for r in rows:
        assert repr(r) == repr(alone[r["x"], r["eps"]])


def test_rank_two_matches_exact_character():
    # coarse mesh keeps the lattice small enough for the exact pattern sum
    eps = 0.5
    s = ScalingCtx(eps, (0.7, 0.3))
    x = (1.0, 0.2)
    z = s.z_shape(2, x)
    poly = qwhittaker_pattern_sum(4, z, QSeriesCtx(q=math.exp(-s.eps)))
    a = [complex(math.cos(eps * l), math.sin(eps * l)) for l in s.lam]
    direct = eps ** 4 * math.exp(4 * s.A) * poly.evaluate(a)
    val = scaled_qwhittaker(s, 2, x)
    assert abs(val - direct) < 1e-12 * abs(direct)


def _psi_rank_two_loop(sctx, z):
    """The rank-2 sum as a Python loop over (z31, z32), the reference for
    the masked arrays of ``limits._psi_rank_two``."""
    eps, A, l2 = sctx.eps, sctx.A, sctx.lam[1]
    L = sctx.log_pochhammer(z[0])
    psit = np.array([_psi_rank_one(sctx, L, k) for k in range(z[0] + 1)])
    sz = z[0] + z[1]
    total = 0.0 + 0.0j
    for z31 in range(z[1], z[0] + 1):
        w_top1 = L[z[0] - z[1]] - L[z[0] - z31] - L[z31 - z[1]] + A
        for z32 in range(0, z[1] + 1):
            w1 = w_top1 + L[z[1]] - L[z[1] - z32] - L[z32] + A
            s3 = z31 + z32
            ks = np.arange(z32, z31 + 1)
            w2 = L[z31 - z32] - L[z31 - ks] - L[ks - z32] + A
            inner = np.sum(np.exp(w2 + 1j * eps * l2 * (s3 - ks)) * psit[ks])
            total += cmath.exp(1j * eps * l2 * (s3 - sz) + w1) * eps * inner
    return complex(eps ** 2 * total)


@pytest.mark.parametrize("eps, x", [(0.1, (0.0, -1.0)), (0.1, (0.0, 3.0))])
def test_rank_two_sum_matches_the_loop(eps, x):
    # (0.0, -1.0) is z = (96, 38), the `limit --n 2` point; the arrays sum
    # in another order, so agreement is to rounding, not bitwise
    z = ScalingCtx(eps, (0.7, 0.3)).z_shape(2, x)
    ref = _psi_rank_two_loop(ScalingCtx(eps, (0.7, 0.3)), z)
    got = scaled_qwhittaker(ScalingCtx(eps, (0.7, 0.3)), 2, x)
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_rank_two_approaches_givental():
    target = so_whittaker(2, (0.7j, 0.3j), (1.0, 0.2))
    errs = []
    for eps in (0.1, 0.05):
        s = ScalingCtx(eps, (0.7, 0.3))
        errs.append(abs(scaled_qwhittaker(s, 2, (1.0, 0.2)) - target))
    assert errs[0] > errs[1]
    assert errs[1] < 1e-2


def test_out_of_order_envelope():
    # |Psi| shrinks under exp(-c* e^{gap/2}) with c*=0.8 on out-of-order points
    s = ScalingCtx(0.1, (0.7, 0.3))
    seq = []
    for gap in (1.0, 2.0, 3.0):
        v = abs(scaled_qwhittaker(s, 2, (0.0, gap)))
        seq.append(math.log(v) + 0.8 * math.exp(gap / 2))
    assert seq[0] > seq[1] > seq[2]
    s1 = ScalingCtx(0.05, (0.7,))
    seq1 = [math.log(abs(scaled_qwhittaker(s1, 1, (x,)))) + 0.8 * math.exp(-x / 2)
            for x in (-1.0, -2.0, -3.0)]
    assert seq1[0] > seq1[1] > seq1[2]


def test_rank_limits_enforced():
    s = ScalingCtx(0.1, (0.7, 0.3, 0.1))
    with pytest.raises(ValueError):
        scaled_qwhittaker(s, 3, (2.0, 1.0, 0.0))


def test_so_whittaker_errors_speak_of_so_and_the_callers_point():
    for args, tail in (((2, (0.7j, 0.3j), (2.0,)), "n = 2, 2 lambda values and x = [2.0]"),
                       ((3, (0.7j, 0.3j, 0.1j), (2.0, 1.0, 0.0)),
                        "n = 3, 3 lambda values and x = [2.0, 1.0, 0.0]"),
                       ((2, (0.7j,), (1.0, 0.0)), "n = 2, 1 lambda values and x = [1.0, 0.0]")):
        with pytest.raises(ValueError, match=re.escape("so(2n+1) Whittaker functions take n = 1 "
                                                       "or 2, n lambda values and x of n "
                                                       "coordinates, not " + tail)):
            so_whittaker(*args)
    with pytest.raises(ValueError, match=re.escape(
            "so(5) Whittaker function is measured on [-2.693, 11.31] "
            "with x_(i+1) <= x_i + 2, not at [0.0, -3.0]")):
        so_whittaker(2, (0.7j, 0.3j), (0.0, -3.0))
