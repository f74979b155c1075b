"""Independent reference values for the phase and queries workloads.

Computes q*, c*, chi1, chi2 and the critical sigma_w^2 for every point the
benchmark can issue, without importing mfdl: Gaussian expectations are
adaptive scipy.integrate.quad integrals (nested for the bivariate moments,
split at every kink of HardTanh and ReLU), and fixed points are roots found
by scipy.optimize.brentq rather than by iteration.  Linear values and the
Linear/ReLU critical lines are analytic (crit = rho and 2*rho).

At rho = 1 the correlation map has the fixed point c = 1 with slope chi1,
so c* = 1 exactly on the ordered side (chi1 < 1); elsewhere c* is the
interior root of m(c) - c.

Run from the repository root (takes several minutes on two cores):

    python3 bench/oracle.py            # rewrites bench/reference.json
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ERF_SCALE = math.sqrt(math.pi) / 2.0
_Z_CUT = 12.0  # N(0,1) mass beyond |z| = 12 is ~1e-33
_EPSREL = 1e-13
_EPSABS = 1e-15


def _sech2(u):
    return 0.0 if abs(u) > 40.0 else 1.0 / math.cosh(u) ** 2


# activation -> (phi, phi', kinks of phi or phi')
PHI = {
    "linear": (lambda u: u, lambda u: 1.0, ()),
    "relu": (lambda u: max(u, 0.0), lambda u: 1.0 if u > 0.0 else 0.0, (0.0,)),
    "tanh": (math.tanh, _sech2, ()),
    "hardtanh": (lambda u: min(max(u, -1.0), 1.0), lambda u: 1.0 if abs(u) < 1.0 else 0.0, (-1.0, 1.0)),
    "erf": (lambda u: math.erf(_ERF_SCALE * u), lambda u: math.exp(-(math.pi / 4.0) * u * u), ()),
}


def gauss_expect(h, breaks=()) -> float:
    """E[h(z)] for z ~ N(0, 1), integrated piecewise between the breaks.

    quad warns of roundoff when a piece's value sits at the 1e-15 absolute
    floor; the result is then accurate to that floor, which is all we ask.
    """
    pts = sorted({-_Z_CUT, 0.0, _Z_CUT, *(b for b in breaks if abs(b) < _Z_CUT)})
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(pts[:-1], pts[1:]):
            val, _ = integrate.quad(
                lambda z: h(z) * math.exp(-0.5 * z * z), lo, hi,
                epsabs=_EPSABS, epsrel=_EPSREL, limit=400,
            )
            total += val
    return total / _SQRT_2PI


def univariate(act: str, q: float, deriv: bool) -> float:
    """E[g(sqrt(q) z)^2] with g = phi or phi'."""
    f = PHI[act][1 if deriv else 0]
    s = math.sqrt(q)
    return gauss_expect(lambda z: f(s * z) ** 2, [k / s for k in PHI[act][2]])


def bivariate(act: str, q: float, c: float, deriv: bool) -> float:
    """E[g(u1) g(u2)], u1 = sqrt(q) z1, u2 = sqrt(q) (c z1 + sqrt(1-c^2) z2)."""
    if c == 1.0:
        return univariate(act, q, deriv)
    f = PHI[act][1 if deriv else 0]
    kinks = PHI[act][2]
    s = math.sqrt(q)
    st = s * math.sqrt(1.0 - c * c)

    def inner(z1):
        a = s * c * z1
        return gauss_expect(lambda z2: f(a + st * z2), [(k - a) / st for k in kinks])

    return gauss_expect(lambda z1: f(s * z1) * inner(z1), [k / s for k in kinks])


def q_star(act: str, sw: float, sb: float, rho: float) -> float:
    if act == "linear":
        return sb / (1.0 - sw / rho)
    if act == "relu":
        return sb / (1.0 - sw / (2.0 * rho))
    # bounded activations: E[phi^2] < 1, so q* lies in (sb, sw/rho + sb)
    return optimize.brentq(
        lambda q: (sw / rho) * univariate(act, q, False) + sb - q,
        sb, sw / rho + sb + 1.0, xtol=1e-15, rtol=1e-15, maxiter=200,
    )


def chi1(act: str, sw: float, rho: float, q: float) -> float:
    return (sw / rho) * univariate(act, q, True)


def c_star(act: str, sw: float, sb: float, rho: float, q: float, x1: float) -> float:
    if rho == 1.0 and x1 < 1.0:
        return 1.0
    if act == "linear":
        return sb / (q * (1.0 - sw))

    def g(c):
        return (sw * bivariate(act, q, c, False) + sb) / q - c

    hi = 1.0
    if rho == 1.0:  # c = 1 is itself a root; bracket the interior one below it
        delta = 1e-2
        while g(1.0 - delta) >= 0.0:
            delta *= 0.1
            if delta < 1e-12:
                raise RuntimeError(f"no interior correlation fixed point for {act} sw={sw}")
        hi = 1.0 - delta
    return optimize.brentq(g, 0.0, hi, xtol=1e-15, rtol=1e-15, maxiter=200)


def chi2(act: str, sw: float, rho: float, q: float, c: float, x1: float) -> float:
    if c == 1.0:
        return rho * x1
    if act == "linear":
        return sw
    return sw * bivariate(act, q, c, True)


def fixed_point(act: str, sw: float, sb: float, rho: float) -> dict:
    q = q_star(act, sw, sb, rho)
    x1 = chi1(act, sw, rho, q)
    c = c_star(act, sw, sb, rho, q, x1)
    return {"q_star": q, "c_star": c, "chi1": x1, "chi2": chi2(act, sw, rho, q, c, x1)}


def critical_line(act: str, sb: float, rho: float) -> float:
    if act == "linear":
        return rho
    if act == "relu":
        return 2.0 * rho
    return optimize.brentq(
        lambda sw: chi1(act, sw, rho, q_star(act, sw, sb, rho)) - 1.0,
        0.25, 4.0, xtol=1e-14, rtol=1e-15, maxiter=200,
    )


def _solve(job):
    kind, key, args = job
    if kind == "crit":
        return key, {"sigma_w_sq_crit": critical_line(*args)}
    return key, fixed_point(*args)


def main() -> int:
    jobs = []
    for q in inputs.query_pool():
        key = inputs.query_key(q)
        if q["kind"] == "fixed-point":
            jobs.append(("fp", key, (q["activation"], q["sigma_w_sq"], q["sigma_b_sq"], q["rho"])))
        else:
            jobs.append(("crit", key, (q["activation"], q["sigma_b_sq"], q["rho"])))
    lo, hi, n = inputs.PHASE_GRID
    grid = np.geomspace(lo, hi, n)
    for rho in inputs.PHASE_RHOS:
        for sw in grid:
            jobs.append(("fp", f"phase/rho={rho!r}/sw={float(sw)!r}",
                         ("tanh", float(sw), inputs.PHASE_SIGMA_B_SQ, rho)))
    out = {}
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        for i, (key, val) in enumerate(pool.map(_solve, jobs, chunksize=4)):
            out[key] = val
            print(f"[{i + 1}/{len(jobs)}] {key} {val}", file=sys.stderr, flush=True)
    phase = {
        repr(rho): [dict(sigma_w_sq=float(sw), **out.pop(f"phase/rho={rho!r}/sw={float(sw)!r}"))
                    for sw in grid]
        for rho in inputs.PHASE_RHOS
    }
    ref = {
        "method": "scipy.integrate.quad (epsrel 1e-13, nested for bivariate) + scipy.optimize.brentq; "
                  "Linear values and Linear/ReLU critical lines analytic",
        "phase": phase,
        "queries": out,
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(jobs)} points)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
