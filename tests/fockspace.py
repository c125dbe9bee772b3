"""Brute-force many-body reference implementations on the full Fock space.

These routines rebuild entanglement measures from an explicit 2^n-dimensional
density matrix, with no use of the correlation-matrix formulas, so they serve
as an independent oracle for the Gaussian machinery.  Everything is dense and
exponential in the number of sites; intended for n <= 8.

Construction: diagonalize the target correlation matrix C = U diag(nu) U^dag,
form the rotated modes d_a = sum_j U[j, a] c_j (so <d_a^dag d_b> = nu_a
delta_ab), and take the product state

    rho = prod_a [ nu_a N_a + (1 - nu_a)(1 - N_a) ],    N_a = d_a^dag d_a.

All N_a commute, rho is particle-number conserving, and by Wick's theorem it
is the unique Gaussian state with two-point function C.

The partial time-reversal of the left block multiplies every left-block
Majorana factor in the monomial expansion of rho by i: writing
rho = sum_S w_S M_S over ordered Majorana monomials M_S (an orthogonal basis
under the trace), the transformed matrix is sum_S i^{|S cap left|} w_S M_S.
The negativity is the log trace norm of that matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "annihilation_operators",
    "gaussian_density_matrix",
    "partial_trace",
    "vn_entropy_dm",
    "renyi_entropy_dm",
    "partial_time_reversal",
    "negativity_dm",
]


def annihilation_operators(n: int) -> list[np.ndarray]:
    """Jordan-Wigner annihilation operators for n ordered modes."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # c on one mode: |1> -> |0>
    parity = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye = np.eye(2)
    ops = []
    for j in range(n):
        factors = [parity] * j + [lower] + [eye] * (n - j - 1)
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        ops.append(full.astype(complex))
    return ops


def gaussian_density_matrix(c: np.ndarray) -> np.ndarray:
    """Density matrix of the Gaussian state with <c_j^dag c_m> = c[j, m]."""
    c = np.asarray(c, dtype=complex)
    n = c.shape[0]
    nu, u = np.linalg.eigh(0.5 * (c + c.conj().T))
    nu = np.clip(nu, 0.0, 1.0)
    cs = annihilation_operators(n)
    rho = np.eye(2**n, dtype=complex)
    for a in range(n):
        d = sum(u[j, a] * cs[j] for j in range(n))
        num = d.conj().T @ d
        rho = rho @ (nu[a] * num + (1.0 - nu[a]) * (np.eye(2**n) - num))
    return rho


def partial_trace(rho: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Trace out all modes not in ``keep`` (occupation-basis partial trace).

    Valid for fermionic reduced states here because every state handled is
    particle-number conserving, hence parity symmetric.
    """
    keep = sorted(keep)
    drop = [j for j in range(n) if j not in keep]
    t = rho.reshape((2,) * (2 * n))
    for j in reversed(drop):
        t = np.trace(t, axis1=j, axis2=j + t.ndim // 2)
    k = len(keep)
    return t.reshape(2**k, 2**k)


def _positive_spectrum(rho: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return lam[lam > 1e-14]


def vn_entropy_dm(rho: np.ndarray) -> float:
    lam = _positive_spectrum(rho)
    return float(-(lam * np.log(lam)).sum())


def renyi_entropy_dm(rho: np.ndarray, n: float) -> float:
    lam = _positive_spectrum(rho)
    return float(np.log((lam**n).sum()) / (1.0 - n))


def partial_time_reversal(rho: np.ndarray, left_modes: list[int], n: int) -> np.ndarray:
    """Partial time-reversal of the given modes via the Majorana expansion.

    Expands rho over the 4^n ordered Majorana monomials and multiplies each
    coefficient by i per Majorana factor living on a left-block mode.
    """
    cs = annihilation_operators(n)
    majoranas = []
    on_left = []
    for j in range(n):
        majoranas.append(cs[j] + cs[j].conj().T)
        majoranas.append(1j * (cs[j] - cs[j].conj().T))
        on_left.extend([j in left_modes, j in left_modes])

    dim = 2**n
    out = np.zeros_like(rho)
    # depth-first product over ordered monomials; node reuse keeps this at
    # one matrix product per subset
    stack = [(0, np.eye(dim, dtype=complex), 0)]
    while stack:
        idx, mono, n_left = stack.pop()
        if idx == 2 * n:
            # coefficient of mono in rho: monomials are trace-orthogonal
            w = np.vdot(mono, rho) / dim
            out += (1j**n_left) * w * mono
            continue
        stack.append((idx + 1, mono, n_left))
        stack.append((idx + 1, mono @ majoranas[idx], n_left + (1 if on_left[idx] else 0)))
    return out


def negativity_dm(rho: np.ndarray, left_modes: list[int], n: int) -> float:
    """ln of the trace norm of the partially time-reversed density matrix."""
    twisted = partial_time_reversal(rho, left_modes, n)
    sing = np.linalg.svd(twisted, compute_uv=False)
    return float(np.log(sing.sum()))
