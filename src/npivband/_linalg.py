"""Generalized inverses of Gram matrices with a fixed relative cutoff.

All pseudo-inverses in the package use the same rule: eigenvalues at or below
``sigma_max * n_ambient * eps`` are treated as zero, where ``n_ambient`` is
the largest dimension involved in forming the matrix (typically
``max(n, K)``). A Gram is eigendecomposed once by ``psd_eigen``; its
pseudo-inverse and inverse square root are both formed from those eigenpairs.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def spectral_cutoff(values: np.ndarray, n_ambient: int) -> float:
    vmax = float(np.max(values, initial=0.0))
    return vmax * n_ambient * _EPS


def psd_eigen(a: np.ndarray, n_ambient: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues above the cutoff of a symmetric PSD matrix and their eigenvectors.

    The number of values returned is the retained rank.
    """
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    keep = w > spectral_cutoff(np.maximum(w, 0.0), n_ambient)
    return w[keep], v[:, keep]


def pinv_psd(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pseudo-inverse from the retained eigenpairs ``psd_eigen`` returns (zero at rank 0)."""
    return (v / w) @ v.T


def inv_sqrt_psd(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pseudo inverse square root ``A^{-1/2}`` from the retained eigenpairs (zero at rank 0)."""
    return (v / np.sqrt(w)) @ v.T
