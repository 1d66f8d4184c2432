"""Full-matrix oracles for the propagators of ``fermicert.dynamics``.

They use only ``local_hamiltonian(...).matrix`` and one dense ``eigh`` per
exponential: a time-independent interaction is exponentiated once per
segment, any other one takes midpoint steps of the full matrix, whatever
profiles its terms carry.  ``two_profile_kitaev`` is an interaction
whose terms carry two different profiles, the case that only midpoint
stepping handles.
"""

import math

import numpy as np

from fermicert import models
from fermicert.dynamics import Interaction, local_hamiltonian, scaled_profile


def spectral_expm(H, z):
    """exp(z H) of a Hermitian matrix H."""
    w, v = np.linalg.eigh(H)
    return (v * np.exp(z * w)) @ v.conj().T


def full_matrix_propagate(phi, lam, s, t, step):
    """U(t, s): one full-matrix eigh per static propagator or midpoint step."""
    if t == s:
        return np.eye(lam.dim, dtype=complex)
    if not phi.is_time_dependent:
        return spectral_expm(local_hamiltonian(phi, lam, s).matrix, -1j * (t - s))
    n_steps = max(1, math.ceil(abs(t - s) / step))
    dt = (t - s) / n_steps
    U = np.eye(lam.dim, dtype=complex)
    for k in range(n_steps):
        H = local_hamiltonian(phi, lam, s + (k + 0.5) * dt).matrix
        U = spectral_expm(H, -1j * dt) @ U
    return U


def stitched_grid(phi, lam, s, times, step):
    """U(t_i, s) for the sorted ``times``, as the product of per-segment
    full-matrix propagators U(t_i, t_{i-1}) ... U(t_0, s)."""
    out, U, prev = [], None, s
    for t in sorted(times):
        seg = full_matrix_propagate(phi, lam, prev, t, step)
        U = seg if U is None else seg @ U
        out.append(U)
        prev = t
    return out


def two_profile_kitaev(L):
    """Kitaev hopping ramped by 1 + 0.5 r beside constant pairing on [0, 2]:
    terms with two different profiles, so H(t) is not a multiple of one
    operator and H(0), H(1) do not commute."""
    hopping = scaled_profile(models.kitaev_chain(L, hopping=1.0, pairing=0.0),
                             lambda r: 1.0 + 0.5 * r, (0.0, 2.0))
    pairing = models.kitaev_chain(L, hopping=0.0, pairing=1.0)
    return Interaction(hopping.terms + pairing.terms, (0.0, 2.0))
