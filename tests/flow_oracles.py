"""Full-matrix oracles for ``fermicert.gap.projection_flow`` and for the
profiled flat-band families that it transports.

``dense_projection_flow`` is the flow on the dense 2^L matrices: one
``eigh`` of the whole H(s) per parameter, the tracked projection from its
lowest ``rank`` eigenvectors, and every product, exponential and norm on
full matrices.  ``dense_transport`` is one interval's transport on the
stacked parity blocks of its dense projections: every generator formed
and exponentiated by an ``eigh`` of the whole block, with no use of their
rank.  ``rotation_rebuild`` and ``closing_rebuild`` build a new
interaction at each s, whose terms carry no profile.
"""

import numpy as np

from fermicert import geometry, models
from fermicert.dynamics import Interaction, InteractionTerm, local_hamiltonian
from fermicert.errors import GapClosureError
from fermicert.fock import adjoint, op_norm
from fermicert.gap import FlowReport, _bisect_closure


def rotation_rebuild(L, angle):
    """s -> the flat-band model of ``paired_cell_orbitals(L, angle(s))``."""
    graph = geometry.chain_graph(L)
    return lambda s: models.flat_band_model(models.paired_cell_orbitals(L, angle(s)), graph)


def closing_rebuild(L, angle):
    """s -> the flat-band model at ``angle`` with every conduction template
    scaled by 1 - 2s."""
    base = models.flat_band_model(models.paired_cell_orbitals(L, angle),
                                  geometry.chain_graph(L))

    def family(s):
        return Interaction(tuple(
            InteractionTerm(t.sites, (1.0 - 2.0 * s) * t.operator, label=t.label)
            if t.label.startswith("conduction") else t for t in base.terms))

    return family


def dense_transport(projs, fine):
    """The stacked blocks of U = prod_i exp(ds_i (K_i + K_{i+1}) / 2) over
    the fine grid, later factors to the left, from the (nsub + 1, 2, h, h)
    stack ``projs`` of the P_i, with K_i = [dP/ds, P] at fine[i] and dP/ds
    from central differences, one-sided at the ends."""
    dps = np.empty_like(projs)
    dps[0] = (projs[1] - projs[0]) / (fine[1] - fine[0])
    dps[1:-1] = (projs[2:] - projs[:-2]) / (fine[2:] - fine[:-2])[:, None, None, None]
    dps[-1] = (projs[-1] - projs[-2]) / (fine[-1] - fine[-2])
    ks = dps @ projs - projs @ dps
    generators = (np.diff(fine) * 0.5)[:, None, None, None] * (ks[:-1] + ks[1:])
    # exp(G) = v e^{-iw} v* for the anti-Hermitian G with i G = v diag(w) v*
    w, v = np.linalg.eigh(1j * generators)
    steps = (v * np.exp(-1j * w)[..., None, :]) @ adjoint(v)
    u = steps[0]
    for step in steps[1:]:
        u = step @ u
    return u


def _expm_antihermitian(K):
    w, v = np.linalg.eigh(1j * K)
    return (v * np.exp(-1j * w)) @ v.conj().T


def dense_projection_flow(family, lam, parameters, gamma_min, defect_target=1e-6,
                          max_substeps=512):
    """``projection_flow`` on the dense matrices of H(s) =
    ``local_hamiltonian(family(s), lam, s)``."""
    s_grid = np.asarray(sorted(float(s) for s in parameters))
    eig_cache = {}

    def eig_at(s):
        key = round(float(s), 12)
        if key not in eig_cache:
            H = local_hamiltonian(family(float(s)), lam, float(s)).matrix
            eig_cache[key] = np.linalg.eigh(H)
        return eig_cache[key]

    gaps0 = np.diff(eig_at(s_grid[0])[0])
    rank = int(np.flatnonzero(gaps0 >= float(gaps0.max()) * (1 - 1e-9))[0]) + 1
    last_good = None

    def gap_at(s):
        w = eig_at(s)[0]
        return float(w[rank] - w[rank - 1])

    def projection_at(s):
        w, v = eig_at(s)
        g = float(w[rank] - w[rank - 1])
        if g < gamma_min:
            lo = last_good if last_good is not None else s_grid[0]
            location, bracket = _bisect_closure(gap_at, lo, s, gamma_min)
            raise GapClosureError("gap closure", location=location, bracket=bracket, gap=g)
        vk = v[:, :rank]
        return vk @ vk.conj().T

    p0 = projection_at(s_grid[0])
    last_good = float(s_grid[0])
    U = np.eye(lam.dim, dtype=complex)
    gaps, defects = [gap_at(s_grid[0])], [0.0]
    total_span = float(s_grid[-1] - s_grid[0])
    nsub = 1     # carried from each interval to the next
    for j in range(s_grid.size - 1):
        s_a, s_b = float(s_grid[j]), float(s_grid[j + 1])
        budget = defect_target * (s_b - s_a) / total_span
        while True:
            fine = np.linspace(s_a, s_b, nsub + 1)
            projs = [projection_at(s) for s in fine]
            jump = max(op_norm(q - p) for p, q in zip(projs, projs[1:]))
            if jump > 0.1 and nsub < max_substeps:
                nsub *= 2
                continue
            dps = [(projs[1] - projs[0]) / (fine[1] - fine[0])]
            for i in range(1, nsub):
                dps.append((projs[i + 1] - projs[i - 1]) / (fine[i + 1] - fine[i - 1]))
            dps.append((projs[-1] - projs[-2]) / (fine[-1] - fine[-2]))
            u_step = np.eye(lam.dim, dtype=complex)
            for i in range(nsub):
                ds = float(fine[i + 1] - fine[i])
                k_a = dps[i] @ projs[i] - projs[i] @ dps[i]
                k_b = dps[i + 1] @ projs[i + 1] - projs[i + 1] @ dps[i + 1]
                u_step = _expm_antihermitian(ds * 0.5 * (k_a + k_b)) @ u_step
            err = float(op_norm(u_step @ projs[0] @ u_step.conj().T - projs[-1]))
            if err <= budget or nsub >= max_substeps:
                break
            nsub *= 2
        U = u_step @ U
        last_good = s_b
        gaps.append(gap_at(s_b))
        defects.append(float(op_norm(projs[-1] - U @ p0 @ U.conj().T)))
    defects = np.array(defects)
    return FlowReport(parameters=s_grid, gaps=np.array(gaps), rank=rank, defects=defects,
                      max_defect=float(defects.max()), substeps=nsub)
