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
