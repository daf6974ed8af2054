"""Fourier side of the periodic box: the only module that calls an FFT.

The forward difference along axis i multiplies the Fourier mode of
wavenumber k by m_i(k) = exp(2 pi i k_i / L) - 1, so a constant-coefficient
operator div*(A grad .) is diagonal on the ``fftn`` grid with the real
symbol conj(m)^T A m, and its inverse multiplies by 1 / symbol (the FFT
reference medium of Moulinec & Suquet, CMAME 157, 1998).

The symbol is real and even, so ``inverse`` and ``smooth`` transform with
``numpy.fft.rfftn``/``irfftn`` on half of the spectrum, single-threaded, so
the bits do not depend on the machine's core count.  Both directions scale
by 1/sqrt(N) (``norm="ortho"``), numpy's fast path: a 64^3 float32 pair
took about three times as long at unit scale.  The transform runs in the
dtype of the stored half symbol: float64 for the exact solves, float32 for
the CG preconditioner, which only has to approximate the inverse
(``elliptic`` checks convergence on the float64 residual).
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # numpy loads it lazily, and a run imports nothing

from .lattice import BoxSpec, ParameterError

__all__ = ["symbol", "inverse", "smooth"]


def symbol(box: BoxSpec, A: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of div*(A grad .) on the ``fftn`` grid, A constant symmetric d x d.

    ``None`` means the identity: sum_i 4 sin^2(pi k_i / L).  Diagonal terms
    use |m_i|^2 = 4 sin^2(pi k_i / L), off-diagonal pairs Re(conj(m_i) m_j).
    """
    L, d = box.L, box.d
    A = np.eye(d) if A is None else np.asarray(A, dtype=np.float64)
    if A.shape != (d, d):
        raise ParameterError(f"matrix shape {A.shape} does not match dimension {d}")
    k = [np.arange(L).reshape([L if a == i else 1 for a in range(d)]) for i in range(d)]
    m = [np.exp(2j * np.pi * ki / L) - 1.0 for ki in k]
    sym = np.zeros(box.shape)
    for i in range(d):
        sym = sym + A[i, i] * (4.0 * np.sin(np.pi * k[i] / L) ** 2)
        for j in range(i + 1, d):
            if A[i, j] != 0.0 or A[j, i] != 0.0:
                sym = sym + (A[i, j] + A[j, i]) * (np.conj(m[i]) * m[j]).real
    return sym


def _half(sym: np.ndarray) -> np.ndarray:
    """The ``rfftn`` half of a full symbol, laid out for the transposed grid."""
    return np.ascontiguousarray(sym.T[..., : sym.shape[0] // 2 + 1])


def _transform(grid: np.ndarray, half_sym: np.ndarray) -> np.ndarray:
    """Multiply the Fourier modes of a real grid by the half symbol ``half_sym``.

    Transforms ``grid.T``, the C-contiguous view of an F-ordered grid, in
    the symbol's dtype, so a float64 lattice field needs no copy for a
    float64 symbol.  The result is float64, F-ordered like the lattice grids.
    """
    gt = grid.T.astype(half_sym.dtype, copy=False)
    axes = range(gt.ndim)
    h = np.fft.rfftn(gt, axes=axes, norm="ortho")
    h *= half_sym
    out = np.fft.irfftn(h, s=gt.shape, axes=axes, norm="ortho")
    return out.T.astype(np.float64, copy=False)


def inverse(box: BoxSpec, shift: float, A: np.ndarray | None = None,
            dtype=np.float64):
    """Grid callable applying (shift + div*(A grad .))^-1.

    With ``shift == 0`` the constants are the kernel: the argument's zero
    mode is dropped, giving the mean-zero solution for its mean-zero part.
    ``dtype`` is the precision of the stored symbol and of the transforms:
    float64 for a solve, float32 for a preconditioner.
    """
    sym = shift + symbol(box, A)
    if shift == 0.0:
        sym[(0,) * box.d] = np.inf  # 1 / inf = 0 drops the zero mode
    inv = _half(1.0 / sym).astype(dtype, copy=False)
    return lambda r: _transform(r, inv)


def smooth(grid: np.ndarray, t: float) -> np.ndarray:
    """exp(-t div* grad) applied to a grid array: the heat semigroup at time t."""
    box = BoxSpec(grid.ndim, grid.shape[0])
    return _transform(grid, _half(np.exp(-t * symbol(box))))
