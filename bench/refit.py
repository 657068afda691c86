"""Reference fits that share no code with npivband.

Bases come from ``scipy.interpolate.BSpline`` on clamped knot vectors (dyadic
interior knots, or empirical quantiles where a design asks for them); fits
are numpy least squares, or QR-based two-stage least squares with the
instrument basis one order higher and ``q`` resolution levels finer. The
fitted function is invariant to how a basis is ordered or parametrized, so
the centre of a band can be compared with the program's to rounding error.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import BSpline

ORDER = 4  # cubic B-splines, the npivband default
Q = 2  # instrument resolution offset, the npivband default


class CheckError(AssertionError):
    """An output of the program disagrees with the reference or a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def level_for(j: int, order: int = ORDER, d: int = 1) -> int:
    """Resolution l with (2^l + order - 1)^d == j; CheckError when off the grid."""
    per_axis = round(j ** (1.0 / d))
    pow2 = per_axis - order + 1
    require(
        per_axis**d == j and pow2 >= 1 and pow2 & (pow2 - 1) == 0,
        f"J={j} is not on the grid (2^l + {order} - 1)^{d}",
    )
    return pow2.bit_length() - 1


def knots(order: int, level: int, column=None) -> np.ndarray:
    probs = np.arange(1, 2**level) / 2**level
    inner = probs if column is None else np.quantile(column, probs)
    return np.concatenate([np.zeros(order), inner, np.ones(order)])


def basis(t: np.ndarray, order: int, x) -> np.ndarray:
    return BSpline.design_matrix(np.asarray(x, dtype=np.float64), t, order - 1).toarray()


def tensor_basis(t: np.ndarray, order: int, pts: np.ndarray) -> np.ndarray:
    out = basis(t, order, pts[:, 0])
    for axis in range(1, pts.shape[1]):
        mat = basis(t, order, pts[:, axis])
        out = np.einsum("ni,nj->nij", out, mat).reshape(pts.shape[0], -1)
    return out


def integrals(t: np.ndarray, order: int) -> np.ndarray:
    """Integral over [0, 1] of every basis function."""
    n_funcs = t.size - order
    return BSpline(t, np.eye(n_funcs), order - 1).integrate(0.0, 1.0)


def lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(design, y, rcond=None)[0]


def tsls(design: np.ndarray, instruments: np.ndarray, y: np.ndarray) -> np.ndarray:
    qb = np.linalg.qr(instruments)[0]
    return lstsq(qb @ (qb.T @ design), y)


def s_hat(design: np.ndarray, instruments: np.ndarray) -> float:
    """Smallest cosine of the principal angles between the two column spaces."""
    qp = np.linalg.qr(design)[0]
    qb = np.linalg.qr(instruments)[0]
    return min(float(np.linalg.svd(qb.T @ qp, compute_uv=False)[-1]), 1.0)


def univariate_fit(y, x, j, w=None, quantile_knots=False) -> BSpline:
    """Cubic spline fit at dimension J: series LS, or TSLS when w is given."""
    level = level_for(j)
    t = knots(ORDER, level, x if quantile_knots else None)
    psi = basis(t, ORDER, x)
    if w is None:
        coef = lstsq(psi, y)
    else:
        tw = knots(ORDER + 1, level + Q)
        coef = tsls(psi, basis(tw, ORDER + 1, w), y)
    return BSpline(t, coef, ORDER - 1)


def univariate_s_hat(x, w, j, quantile_knots=False) -> float:
    level = level_for(j)
    t = knots(ORDER, level, x if quantile_knots else None)
    tw = knots(ORDER + 1, level + Q)
    return s_hat(basis(t, ORDER, x), basis(tw, ORDER + 1, w))


def evaluate(spline: BSpline, grid, deriv: int = 0) -> np.ndarray:
    return (spline.derivative(deriv) if deriv else spline)(grid)


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
    return float(np.abs(got - want).max()) / scale


def require_close(got, want, what: str, tol: float = 1e-8) -> None:
    err = rel_err(got, want)
    require(err <= tol, f"{what}: relative difference {err:.3e} exceeds {tol:.0e}")


def require_selection(sel: dict, d: int = 1) -> None:
    """Properties every Lepski selection must have (a dict as in selection.json)."""
    index_set = [int(j) for j in sel["index_set"]]
    for j in index_set:
        level_for(j, ORDER, d)
    require(index_set == sorted(set(index_set)), f"index set {index_set} is not increasing")
    require(sel["j_tilde"] in index_set, f"J~={sel['j_tilde']} is not in the index set {index_set}")
    require(sel["j_tilde"] <= sel["j_hat_max"], f"J~={sel['j_tilde']} exceeds J_hat_max={sel['j_hat_max']}")
    require(sel["theta_star"] > 0.0, f"theta*={sel['theta_star']} is not positive")


def require_nested(lo95, lo90, center, hi90, hi95, what: str) -> None:
    ok = (lo95 <= lo90) & (lo90 <= center) & (center <= hi90) & (hi90 <= hi95)
    require(bool(ok.all()), f"{what}: lo95 <= lo90 <= center <= hi90 <= hi95 fails at {int((~ok).sum())} points")


def regression_j_hat_max(n: int, d: int = 1) -> int:
    """The closed-form truncation point of regression mode (upsilon_n = 1 here)."""
    ups = max(1.0, (0.1 * np.log(n)) ** 4)
    target = 10.0 * np.sqrt(n)

    def lhs(j):
        return j * np.sqrt(np.log(j)) * ups

    level = 0
    while lhs((2 ** (level + 1) + ORDER - 1) ** d) <= target:
        level += 1
    return (2**level + ORDER - 1) ** d
