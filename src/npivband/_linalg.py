"""Factored Gram matrices: a Cholesky factor where it is sound, eigenpairs with a fixed cutoff otherwise.

``factor_gram`` factors a symmetric PSD Gram G once. When
``np.linalg.cholesky`` succeeds and no squared pivot is at or below
``PIVOT_FLOOR`` times the largest, G is full rank and well conditioned: G^-
is its inverse, solves are LU solves against G, and its square root is the
Cholesky factor L (G = L L'), so R^{-1} b = L' G^{-1} b. Otherwise G has a
near-null direction and takes the eigen route: eigenvalues at or below
``sigma_max * n_ambient * eps`` are treated as zero, where ``n_ambient`` is
the largest dimension involved in forming the matrix (typically
``max(n, K)``), and the pseudo-inverse and the symmetric inverse square root
are both formed from the retained eigenpairs.

``openblas`` reaches the thread setter and getter of numpy's bundled
OpenBLAS, through which pool workers run BLAS on one thread, and
``one_blas_thread`` runs it on one thread for the length of a CLI command
or a ``simgen.run_mc`` call.
``thread_map`` runs independent tasks, any of which may call BLAS, on
threads that live only inside one call: one per CPU the process may run on
(one in pool workers) while numpy's OpenBLAS reports one thread, else one.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

#: A squared Cholesky pivot at or below this fraction of the largest marks a near-null direction.
PIVOT_FLOOR = 1e-8


@functools.cache
def openblas():
    """numpy's bundled OpenBLAS (under ``numpy.libs`` on wheels) when it exports its thread setter and getter.

    None for any other BLAS build. The handle is opened once per process: each
    ``ctypes.CDLL`` makes its own function-pointer class, cyclic garbage that
    stays on the heap until a full collection.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        setter, getter = (getattr(lib, f"scipy_openblas_{verb}_num_threads64_", None) for verb in ("set", "get"))
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return lib
    return None


@contextmanager
def one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block, and give back the caller's count after it.

    Products and factors round differently at other thread counts, so this
    makes the outputs independent of the host's cores and thread variables.
    Without the library's thread setter nothing changes.
    """
    lib = openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


#: The threads every ``thread_map`` of this process may use; None: one per CPU it may run on.
_map_threads: int | None = None


def one_thread_per_map() -> None:
    """Run every later ``thread_map`` of this process in its caller alone; forked pool workers call it."""
    global _map_threads
    _map_threads = 1


def map_threads() -> int:
    """The threads a ``thread_map`` of this process may use.

    Every task may call BLAS, so that is 1 unless numpy's OpenBLAS reports
    one thread of its own: calls into any other BLAS, or into a threaded
    one, stay in the caller. Otherwise it is one per CPU the process may run
    on, or 1 after ``one_thread_per_map``.
    """
    lib = openblas()
    if lib is None or lib.scipy_openblas_get_num_threads64_() != 1:
        return 1
    if _map_threads is not None:
        return _map_threads
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def thread_map(task, items, make_buffer=None) -> None:
    """Call ``task(item, buffer)`` for every item, on up to ``map_threads()`` threads.

    The threads start inside the call and are joined before it returns; the
    caller works as one of them, each taking the next item in order until
    none is left. ``make_buffer()``, when given, makes one buffer per thread
    in the caller before any thread starts, and a task gets the buffer of
    the thread that runs it (else None). The tasks must not depend on which
    thread runs them or on one another. The first exception a task raises is
    raised here once every thread has joined; no item is started after it.
    """
    items = list(items)
    if not items:
        return
    buffers = [make_buffer() if make_buffer is not None else None for _ in range(min(map_threads(), len(items)))]
    queue, lock, errors = iter(range(len(items))), threading.Lock(), []

    def work(buffer) -> None:
        while not errors:
            with lock:
                i = next(queue, None)
            if i is None:
                return
            try:
                task(items[i], buffer)
            except BaseException as exc:
                errors.append(exc)

    threads = [threading.Thread(target=work, args=(buffer,)) for buffer in buffers[1:]]
    for thread in threads:
        thread.start()
    try:
        work(buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of ``a``, or None when it fails or shows a near-null direction."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(chol) ** 2
    return None if pivots.min() <= PIVOT_FLOOR * pivots.max() else chol


@dataclass(frozen=True, eq=False)
class Gram:
    """A symmetric PSD Gram ``a`` with its Cholesky factor ``chol``, or else its retained eigenpairs ``eig``.

    R below is the Gram's square root: L on the Cholesky route, the symmetric
    root on the eigen route. Any root gives the same singular values of a
    whitened matrix.
    """

    a: np.ndarray
    chol: np.ndarray | None
    eig: tuple[np.ndarray, np.ndarray] | None

    @property
    def rank(self) -> int:
        return self.a.shape[0] if self.eig is None else self.eig[0].size

    def inverse(self) -> np.ndarray:
        """G^-: the inverse, or the pseudo-inverse on the eigen route."""
        return np.linalg.inv(self.a) if self.eig is None else pinv_psd(*self.eig)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """G^- b."""
        return np.linalg.solve(self.a, b) if self.eig is None else self.inverse() @ b

    def whiten(self, b: np.ndarray, solved: np.ndarray | None = None) -> np.ndarray:
        """R^{-1} b; ``solved`` may pass G^- b when the caller holds it."""
        if self.eig is not None:
            return inv_sqrt_psd(*self.eig) @ b
        return self.chol.T @ (self.solve(b) if solved is None else solved)

    def whiten_right(self, b: np.ndarray) -> np.ndarray:
        """b R^{-T}."""
        return b @ inv_sqrt_psd(*self.eig) if self.eig is not None else self.whiten(b.T).T


def factor_gram(a: np.ndarray, n_ambient: int) -> Gram:
    """``a`` factored by Cholesky, or by ``psd_eigen`` when the Cholesky fails or shows a near-null direction."""
    chol = _cholesky(a)
    return Gram(a, chol, psd_eigen(a, n_ambient) if chol is None else None)
