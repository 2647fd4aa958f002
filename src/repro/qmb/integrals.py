"""One- and two-electron integrals over finite-element orbitals.

The QMB (FCI) reference needs the second-quantized Hamiltonian in an
orthonormal spatial-orbital basis {phi_p}; here the orbitals come from a
Kohn-Sham solve on the spectral-element mesh and the integrals are
evaluated with the same machinery:

* ``h_pq = <p| -1/2 lap + v_N |q>`` via the cell-level stiffness and the
  analytic soft-pseudopotential,
* ``(pq|rs) = int int phi_p phi_q |r-r'|^{-1} phi_r phi_s`` by solving one
  FE Poisson problem per (p, q) pair density with multipole boundary
  conditions (chemists' notation; 8-fold permutational symmetry exploited).
"""

from __future__ import annotations

import numpy as np

from repro.atoms.pseudo import AtomicConfiguration
from repro.fem.assembly import CellStiffness
from repro.fem.mesh import Mesh3D
from repro.fem.poisson import PoissonSolver, multipole_boundary_values

__all__ = ["OrbitalIntegrals", "compute_integrals"]


class OrbitalIntegrals:
    """Container: core Hamiltonian h (n, n), ERIs (n, n, n, n), E_core."""

    def __init__(self, h: np.ndarray, eri: np.ndarray, e_core: float) -> None:
        self.h = np.asarray(h, dtype=float)
        self.eri = np.asarray(eri, dtype=float)
        self.e_core = float(e_core)
        self.n_orb = self.h.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<OrbitalIntegrals n_orb={self.n_orb} e_core={self.e_core:.6f}>"


def compute_integrals(
    mesh: Mesh3D,
    config: AtomicConfiguration,
    orbitals_nodes: np.ndarray,
    poisson_tol: float | None = None,
) -> OrbitalIntegrals:
    """Integrals for orthonormal orbitals given as full-node values.

    ``orbitals_nodes`` has shape (nnodes, n_orb) and must be L2-orthonormal
    on the mesh (Kohn-Sham eigenvectors mapped to nodes satisfy this).
    Each pair density gets one exact Poisson solve.  ``poisson_tol`` is
    accepted and ignored: the solve is direct, and callers written for the
    former iterative solver still pass it.
    """
    phi = np.asarray(orbitals_nodes, dtype=float)
    n_orb = phi.shape[1]
    w = mesh.mass_diag

    # orthonormality sanity check
    S = phi.T @ (w[:, None] * phi)
    if not np.allclose(S, np.eye(n_orb), atol=1e-6):
        raise ValueError("orbitals are not orthonormal on the mesh")

    # --- core Hamiltonian -------------------------------------------------
    stiff = CellStiffness(mesh)
    Kphi = stiff.apply_full(phi)
    v_n = config.external_potential(mesh.node_coords)
    h = 0.5 * (phi.T @ Kphi) + phi.T @ (w[:, None] * (v_n[:, None] * phi))
    h = 0.5 * (h + h.T)

    # --- electron repulsion integrals --------------------------------------
    solver = PoissonSolver(mesh)
    eri = np.zeros((n_orb, n_orb, n_orb, n_orb))
    pair_pot: dict[tuple[int, int], np.ndarray] = {}
    for p in range(n_orb):
        for q in range(p + 1):
            rho_pq = phi[:, p] * phi[:, q]
            bc = multipole_boundary_values(mesh, rho_pq)
            v = solver.solve(rho_pq, boundary_values=bc).potential
            pair_pot[(p, q)] = v
    for p in range(n_orb):
        for q in range(p + 1):
            v = pair_pot[(p, q)]
            for r in range(n_orb):
                for s in range(r + 1):
                    if (p, q) < (r, s):
                        continue
                    val = float(np.dot(w, v * phi[:, r] * phi[:, s]))
                    for a, b in ((p, q), (q, p)):
                        for c, d in ((r, s), (s, r)):
                            eri[a, b, c, d] = val
                            eri[c, d, a, b] = val
    return OrbitalIntegrals(h=h, eri=eri, e_core=config.nuclear_repulsion())
