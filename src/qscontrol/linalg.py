"""Small dense-matrix helpers used throughout the package.

Everything works on complex numpy arrays.  Predicates take an explicit
tolerance so that callers can enforce the tolerance their contract states.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def as_matrix(value, dim=None, name="matrix"):
    """Coerce to a square complex array, checking the dimension if given."""
    mat = np.atleast_2d(np.asarray(value, dtype=complex))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise ShapeError(f"{name} has dimension {mat.shape[0]}, expected {dim}")
    return mat


def herm(mat):
    """Hermitian part (M + M*)/2."""
    return 0.5 * (mat + mat.conj().T)


def fro(mat):
    return float(np.linalg.norm(mat, "fro"))


def is_hermitian(mat, tol=1e-10):
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol)


def is_unitary(mat, tol=1e-10):
    eye = np.eye(mat.shape[0])
    return bool(
        np.max(np.abs(mat @ mat.conj().T - eye)) <= tol
        and np.max(np.abs(mat.conj().T @ mat - eye)) <= tol
    )


def psd_sqrt(mat, tol=1e-10):
    """Principal square root of a PSD matrix (eigenvalues clipped at 0)."""
    if not is_hermitian(mat, tol):
        raise ShapeError("psd_sqrt requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(herm(mat))
    if vals[0] < -tol:
        raise ShapeError(f"psd_sqrt requires PSD input, min eigenvalue {vals[0]:.3e}")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def commutator(a, b):
    return a @ b - b @ a


def rk4(deriv, y0, grid):
    """Classical RK4 for y' = deriv(t, y) along ``grid`` (which may decrease).

    Returns the states at every grid point, shape (len(grid), *y0.shape),
    in y0's dtype: ``deriv`` must not promote it.
    """
    y = np.asarray(y0)
    states = np.empty((len(grid), *y.shape), dtype=y.dtype)
    states[0] = y
    for k, (t0, t1) in enumerate(zip(grid, grid[1:]), start=1):
        h = t1 - t0
        k1 = deriv(t0, y)
        k2 = deriv(t0 + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t0 + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[k] = y
    return states
