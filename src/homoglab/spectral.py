"""Fourier side of the periodic box: the only module that calls ``np.fft``.

The forward difference along axis i multiplies the Fourier mode of
wavenumber k by m_i(k) = exp(2 pi i k_i / L) - 1, so a constant-coefficient
operator div*(A grad .) is diagonal on the ``fftn`` grid with the real
symbol conj(m)^T A m, and its inverse is one division (the FFT reference
medium of Moulinec & Suquet, CMAME 157, 1998).
"""

from __future__ import annotations

import numpy as np

from .lattice import BoxSpec

__all__ = ["symbol", "inverse", "smooth"]


def symbol(box: BoxSpec, A: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of div*(A grad .) on the ``fftn`` grid, A constant symmetric d x d.

    ``None`` means the identity: sum_i 4 sin^2(pi k_i / L).  Diagonal terms
    use |m_i|^2 = 4 sin^2(pi k_i / L), off-diagonal pairs Re(conj(m_i) m_j).
    """
    L, d = box.L, box.d
    A = np.eye(d) if A is None else np.asarray(A, dtype=np.float64)
    if A.shape != (d, d):
        raise ValueError(f"matrix shape {A.shape} does not match dimension {d}")
    k = [np.arange(L).reshape([L if a == i else 1 for a in range(d)]) for i in range(d)]
    m = [np.exp(2j * np.pi * ki / L) - 1.0 for ki in k]
    sym = np.zeros(box.shape)
    for i in range(d):
        sym = sym + A[i, i] * (4.0 * np.sin(np.pi * k[i] / L) ** 2)
        for j in range(i + 1, d):
            if A[i, j] != 0.0 or A[j, i] != 0.0:
                sym = sym + (A[i, j] + A[j, i]) * (np.conj(m[i]) * m[j]).real
    return sym


def inverse(box: BoxSpec, shift: float, A: np.ndarray | None = None):
    """Grid callable applying (shift + div*(A grad .))^-1.

    With ``shift == 0`` the constants are the kernel: the argument's zero
    mode is dropped, giving the mean-zero solution for its mean-zero part.
    """
    sym = shift + symbol(box, A)
    zero = (0,) * box.d
    singular = shift == 0.0
    if singular:
        sym[zero] = 1.0

    def apply(r: np.ndarray) -> np.ndarray:
        rh = np.fft.fftn(r)
        rh /= sym
        if singular:
            rh[zero] = 0.0
        return np.fft.ifftn(rh).real

    return apply


def smooth(grid: np.ndarray, t: float) -> np.ndarray:
    """exp(-t div* grad) applied to a grid array: the heat semigroup at time t."""
    box = BoxSpec(grid.ndim, grid.shape[0])
    return np.fft.ifftn(np.fft.fftn(grid) * np.exp(-t * symbol(box))).real
