"""Finite-difference curvature oracles and a per-point jet reference.

Everything here differentiates plain ``metric_fn(x) -> (n, n) array``
callables with fourth-order central stencils, assembles Christoffel symbols
and the Riemann tensor numerically, and reads off sectional / Ricci values.
The sign conventions are pinned by ``test_oracle_self_check`` against the
round sphere, so these routines can arbitrate the closed forms in the
package. ``_jet_safe`` is the per-point reference for the package's array
evaluations, and ``jet_per_piece`` the per-piece reference for a curve's
array jet, whose bits the fused polynomial pass must keep.
``bisect_dive_center`` is the bisection reference for the secant step that
places a dive's bump center. ``write_csv_rows`` is the row-by-row reference
for the CLI's CSV bytes. ``coarse_points`` and ``cell_points`` build a scan
level's points by gathering from the axis coordinates, the reference for
``grid_min``'s open meshes; ``concordance_bounds_at`` is the per-point
concordance bound, the reference for the separable bound, and
``concordance_gate`` the reference for the search's exact-in-theta gate,
which is never above ``concordance_meshgrid_gate``, the sampled gate it
replaced.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.optimize import minimize_scalar

from riccicert.errors import ConditionError, KinkSideRequired
from riccicert.jetcurve import Jet3, Poly

_STENCIL = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))


def fd_grad(f, x, h):
    """d/dx_i of an array-valued f, stacked on a new leading axis."""
    x = np.asarray(x, dtype=float)
    outs = []
    for i in range(len(x)):
        acc = None
        for off, wgt in _STENCIL:
            xp = x.copy()
            xp[i] += off * h
            term = wgt * np.asarray(f(xp), dtype=float)
            acc = term if acc is None else acc + term
        outs.append(acc / h)
    return np.stack(outs, axis=0)


def christoffels(metric_fn, x, h=1e-3):
    g = np.asarray(metric_fn(x), dtype=float)
    gi = np.linalg.inv(g)
    dg = fd_grad(metric_fn, x, h)  # dg[a, b, c] = d_a g_{bc}
    A = np.einsum("adb->abd", dg)
    B = np.einsum("bda->abd", dg)
    C = np.einsum("dab->abd", dg)
    return 0.5 * np.einsum("cd,abd->cab", gi, A + B - C)  # Gamma^c_{ab}


def riemann_down(metric_fn, x, h_outer=2e-3, h_inner=1e-3):
    """Fully covariant Riemann tensor R[a, b, c, d] at x."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(metric_fn(x), dtype=float)
    gam = christoffels(metric_fn, x, h_inner)
    dgam = fd_grad(lambda y: christoffels(metric_fn, y, h_inner), x, h_outer)
    n = len(x)
    up = np.zeros((n, n, n, n))
    for d in range(n):
        for c in range(n):
            for a in range(n):
                for b in range(n):
                    up[d, c, a, b] = (
                        dgam[a, d, b, c] - dgam[b, d, a, c]
                        + gam[d, a, :] @ gam[:, b, c]
                        - gam[d, b, :] @ gam[:, a, c]
                    )
    return np.einsum("ae,ebcd->abcd", g, up)


def sectional_fd(metric_fn, x, i, j, **kw):
    """Sectional curvature of the coordinate plane (i, j) at x."""
    g = np.asarray(metric_fn(x), dtype=float)
    rm = riemann_down(metric_fn, x, **kw)
    denom = g[i, i] * g[j, j] - g[i, j] ** 2
    # Sign pinned by the round-sphere self-check: K(S^2) = +1.
    return rm[i, j, i, j] / denom


def ricci_fd(metric_fn, x, **kw):
    """Ricci tensor (covariant) at x."""
    g = np.asarray(metric_fn(x), dtype=float)
    gi = np.linalg.inv(g)
    rm = riemann_down(metric_fn, x, **kw)
    return np.einsum("ab,acbd->cd", gi, rm)


def _jet_safe(curve, x):
    """Per-point jet of ``curve`` at the float ``x``, from the math-module path,
    taking the left limit on a marked kink: the reference that array jets
    (which take that limit themselves) are compared against."""
    try:
        return curve.jet(x)
    except KinkSideRequired:
        return curve.jet(x, side="left")


def poly_jet_loop(poly, x):
    """The jet of ``poly`` at the array ``x`` by the float Horner recurrence of
    ``Poly.jet``, one row at a time."""
    t = x - poly.center
    v = d1 = d2 = d3 = 0.0
    for c in reversed(poly.coeffs):
        d3 = d3 * t + 3.0 * d2
        d2 = d2 * t + 2.0 * d1
        d1 = d1 * t + v
        v = v * t + c
    return Jet3(v, d1, d2, d3)


def jet_per_piece(curve, x, side):
    """The array jet of ``curve`` at ``x`` in range, by one masked node call per
    piece in use (``poly_jet_loop`` for a ``Poly``): the dispatch that
    ``Jet3Curve`` replaced with one Horner pass over its ``Poly`` pieces."""
    def node_jet(node, xs):
        return poly_jet_loop(node, xs) if type(node) is Poly else node.jet(xs)

    lo, hi = curve.domain
    x_c = np.clip(x, lo, hi)
    if len(curve.pieces) == 1:
        return node_jet(curve.pieces[0][2], x_c)
    starts = np.array([p[0] for p in curve.pieces])
    i = np.maximum(np.searchsorted(starts, x_c, side="right") - 1, 0)
    if side != "right":
        left = (i > 0) & (starts[i] == x_c)
        if side is None:
            left &= np.isin(x, [loc for loc, _ in curve.kinks])
        i -= left
    i[x_c == hi] = len(curve.pieces) - 1
    parts = [np.empty_like(x_c) for _ in range(4)]
    for j in np.flatnonzero(np.bincount(i, minlength=len(curve.pieces))):
        sel = i == j
        for dest, v in zip(parts, node_jet(curve.pieces[j][2], x_c[sel]).as_tuple()):
            dest[sel] = v
    return Jet3(*parts)


def bisect_dive_center(build, residual, lo, hi, what, tol=1e-12):
    """The bump center of a dive by up to 200 bisection steps of the residual
    over [lo, hi], narrowed to ``tol``: the reference that the secant step of
    ``constructions._solve_dive_center`` is compared against."""
    f_lo, f_hi = residual(build(lo)), residual(build(hi))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ConditionError(
            f"{what}: dive does not fit (residual {f_lo:.3e} at {lo!r}, "
            f"{f_hi:.3e} at {hi!r}); the value pin exceeds the room left "
            "after T2", report=None)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = residual(build(mid))
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# hypersurface second form on a 3-D chart slice
# ---------------------------------------------------------------------------


def chart_metric_fn(mu, phi, H):
    """The slice metric diag(1, mu^2(a), H^2(a, b)) from plain callables."""

    def fn(x):
        a, b, _ = x
        return np.diag([1.0, mu(a) ** 2, H(a, b) ** 2])

    return fn


def face_second_form_fd(mu, phi, H, a, h=1e-4):
    """(II_tau, II_Z) of the graph b = phi(a), outward normal of b <= phi.

    Works on the 3-D slice (a, b, z) with metric da^2 + mu^2 db^2 + H^2 dz^2;
    tangents are T1 = (1, phi_a, 0) and the fiber direction, the normal is
    solved from g-orthogonality, and II(X, X) = -g(nabla_X X, nu).
    """
    def d1(f, t):
        return sum(w * f(t + o * h) for o, w in _STENCIL) / h

    phi_a = d1(phi, a)
    phi_aa = (phi(a + h) - 2.0 * phi(a) + phi(a - h)) / h**2
    b = phi(a)
    x = np.array([a, b, 0.0])
    metric = chart_metric_fn(mu, phi, H)
    gam = christoffels(metric, x, h=1e-3)
    g = metric(x)

    nu = np.array([-mu(a) ** 2 * phi_a, 1.0, 0.0])
    nu = nu / np.sqrt(nu @ g @ nu)

    t1 = np.array([1.0, phi_a, 0.0])
    # nabla_{T1} T1 with T1 extended along the graph: the acceleration is
    # (0, phi_aa, 0) plus the Christoffel quadratic.
    acc = np.array([0.0, phi_aa, 0.0]) + np.einsum("cab,a,b->c", gam, t1, t1)
    ii_t1 = -(acc @ g @ nu)
    ii_tau = ii_t1 / (t1 @ g @ t1)

    z = np.array([0.0, 0.0, 1.0])
    acc_z = np.einsum("cab,a,b->c", gam, z, z)
    ii_z = -(acc_z @ g @ nu) / (z @ g @ z)
    return ii_tau, ii_z


def profile_hessian_fd(mu, phi, H, a0, ds=1e-3):
    """d^2/ds^2 of H^2(a, phi(a)) in the arclength of da^2 + mu^2 db^2."""
    def speed(a):
        def d1(f, t, h=1e-5):
            return sum(w * f(t + o * h) for o, w in _STENCIL) / h
        pa = d1(phi, a)
        return np.sqrt(1.0 + mu(a) ** 2 * pa**2)

    def a_of_s_offset(offset):
        # integrate da/ds = 1/speed from a0 with RK4, signed arclength offset
        steps = 64
        hstep = offset / steps
        a = a0
        for _ in range(steps):
            k1 = 1.0 / speed(a)
            k2 = 1.0 / speed(a + 0.5 * hstep * k1)
            k3 = 1.0 / speed(a + 0.5 * hstep * k2)
            k4 = 1.0 / speed(a + hstep * k3)
            a += hstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        return a

    def F(offset):
        a = a_of_s_offset(offset)
        return H(a, phi(a)) ** 2

    return (F(ds) - 2.0 * F(0.0) + F(-ds)) / ds**2


# ---------------------------------------------------------------------------
# doubly warped product helpers
# ---------------------------------------------------------------------------


def warped_slice_metric(k, h):
    """(s, u, v) slice: ds^2 + k^2 du^2 + h^2 dv^2 from plain callables."""

    def fn(x):
        s = x[0]
        return np.diag([1.0, k(s) ** 2, h(s) ** 2])

    return fn


def warped_full_metric(k, h, m, n):
    """Full coordinate metric for fiber dimensions (m, n-1), m, n-1 in {2, 3}.

    Spheres are coordinatized as nested warped products:
    S^2 -> (t1, t2) with diag(1, sin^2 t1), S^3 -> (t1, t2, t3) with
    diag(1, sin^2 t1, sin^2 t1 sin^2 t2).
    """
    def sphere_block(radius_sq, angles):
        out = [radius_sq]
        acc = radius_sq
        for t in angles[:-1]:
            acc = acc * np.sin(t) ** 2
            out.append(acc)
        return out

    dim_k, dim_h = m, n - 1

    def fn(x):
        s = x[0]
        k_angles = x[1:1 + dim_k]
        h_angles = x[1 + dim_k:1 + dim_k + dim_h]
        diag = [1.0]
        diag += sphere_block(k(s) ** 2, list(k_angles) + [None])[:dim_k]
        diag += sphere_block(h(s) ** 2, list(h_angles) + [None])[:dim_h]
        return np.diag(diag)

    return fn


def write_csv_rows(path, header, rows):
    """One ``csv.writer`` row per row of ``format(float(v), ".17g")`` cells:
    the writer ``cli._write_csv`` replaced, whose bytes it must keep."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])


def coarse_points(axes):
    """The coarse scan level of the ``(lo, hi, count)`` axes: one row per
    point, last axis fastest, gathered from each axis's ``np.linspace``."""
    idx = np.indices([c for _, _, c in axes]).reshape(len(axes), -1)
    return np.stack([np.linspace(a, b, c)[i]
                     for (a, b, c), i in zip(axes, idx)], axis=-1)


def cell_points(lo, hi, count):
    """Grid points of the boxes ``lo[c] .. hi[c]`` (``(cells, dims)``
    arrays), ``count`` per axis from one ``np.linspace`` per axis over all
    of them: one row each, box after box, last axis fastest."""
    dims = lo.shape[1]
    idx = np.indices((count,) * dims).reshape(dims, -1)
    return np.stack([np.linspace(lo[:, d], hi[:, d], count, axis=-1)[:, i]
                     for d, i in enumerate(idx)], axis=-1).reshape(-1, dims)


def concordance_bounds_at(theta, u, ell, *, n, r1, L, C, sec_min):
    """The t^2-normalized Ricci bound of the concordance cylinder at the
    points ``(theta, u)`` (equal-shape arrays), computed point by point."""
    alpha = 0.5 / ell
    beta = alpha / L
    inv_a, inv_b = 1.0 / alpha, 1.0 / beta
    rho = r1 * np.exp(-(1.0 / beta) * (1.0 / ell - 1.0 / u))
    shape = 1.0 / u**2 - 2.0 / u**3
    sec_time = (inv_b - C * inv_a) * shape - 4.0 * (inv_b + C * inv_a) ** 2 / u**4
    b_time = n * sec_time
    sec_space = (sec_min / rho**2 - 1.0
                 - C * ((inv_a + inv_b) / u**2 + (inv_a + inv_b) ** 2 / u**4))
    b_space = sec_time + (n - 1) * sec_space
    b_mixed = C * inv_a / (u * u * rho)
    ct, st = np.cos(theta), np.sin(theta)
    return (ct * ct * b_time - 2.0 * np.abs(st * ct) * b_mixed
            + st * st * b_space)


def concordance_gate(ell, **constants):
    """The concordance search's Ricci gate at ``ell = ln t0``, found without
    the closed form of its theta minimum: the least over 33 u in
    [ell, 2 ell] of the bound's minimum over theta in [0, pi/2].

    In theta the bound is c - R cos(2 theta - phi) with R >= 0 and phi in
    [0, pi], so it is unimodal on [0, pi/2], and R is at most the spread of
    its values there. At each u a 129-point theta scan brackets the minimum
    between the scan points next to its argmin; a second, 513-point scan of
    that bracket comes within R step**2 / 2 of it. Every u whose second
    scan, less ``spread * step**2``, reaches the least of all is refined by
    a bounded scalar minimiser on its bracket."""
    u = np.linspace(ell, 2.0 * ell, 33)
    theta = np.linspace(0.0, 0.5 * np.pi, 129)
    scan = concordance_bounds_at(theta[:, None], u, ell, **constants)
    k = np.argmin(scan, axis=0)
    lo, hi = theta[np.maximum(k - 1, 0)], theta[np.minimum(k + 1, 128)]
    near = concordance_bounds_at(np.linspace(lo, hi, 513), u, ell, **constants)
    lows = near.min(axis=0)
    best = float(lows.min())
    slack = np.ptp(scan, axis=0) * ((hi - lo) / 512) ** 2
    for j in np.flatnonzero(lows - slack <= best):
        found = minimize_scalar(
            lambda t: float(concordance_bounds_at(t, u[j], ell, **constants)),
            bounds=(lo[j], hi[j]), method="bounded", options={"xatol": 1e-10})
        best = min(best, float(found.fun))
    return best


def concordance_meshgrid_gate(ell, **constants):
    """The gate the search took before it was exact in theta: the least
    bound on a 25 x 33 ``np.meshgrid`` of (theta, u). Sampling theta can
    only miss the minimum, so the exact gate is never above it."""
    th, u = np.meshgrid(np.linspace(0.0, 0.5 * np.pi, 25),
                        np.linspace(ell, 2.0 * ell, 33), indexing="ij")
    return float(np.min(concordance_bounds_at(th, u, np.array([ell]), **constants)))
