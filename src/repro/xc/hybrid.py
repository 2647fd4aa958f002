"""Level-3 hybrid functional (PBE0-like), evaluated post-SCF.

Hybrid functionals mix a fraction of exact (Hartree-Fock) exchange into a
GGA.  A self-consistent hybrid requires applying the nonlocal exchange
operator inside every Chebyshev filtering step; following common practice
for energy-level comparisons (and the paper's Table 1, where hybrid DFT
appears only as a Level-3 baseline), the hybrid energy here is evaluated
*perturbatively on the converged PBE orbitals*:

.. math::

    E^{hyb} = E^{PBE} + a\\,(E_x^{HF} - E_x^{PBE}), \\qquad a = 0.25,

with the exact-exchange energy computed from the occupied orbitals via FE
Poisson solves of the orbital pair densities (the same machinery as the FCI
integrals).  This exercises the exact-exchange code path at a cost linear
in the number of occupied orbital pairs.
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Mesh3D
from repro.fem.poisson import PoissonSolver, multipole_boundary_values

from .base import XCFunctional
from .gga import PBE, _pbe_exchange_unpol

__all__ = ["PBE0", "hf_exchange_energy"]


def hf_exchange_energy(
    mesh: Mesh3D,
    orbitals_nodes: np.ndarray,
    occupations: np.ndarray,
) -> float:
    """Exact-exchange energy of one spin channel's occupied orbitals.

    ``E_x = -1/2 sum_ij f_i f_j (ij|ij)`` over a spin channel whose orbital
    occupations ``f_i`` are in [0, 1] (pass the spatial orbitals once per
    spin; for spin-restricted calculations call with f_i in [0,1] per spin,
    i.e. half the total occupation).
    """
    phi = np.asarray(orbitals_nodes)
    f = np.asarray(occupations, dtype=float)
    keep = f > 1e-8
    phi, f = phi[:, keep], f[keep]
    n = phi.shape[1]
    solver = PoissonSolver(mesh)
    w = mesh.mass_diag
    e_x = 0.0
    for i in range(n):
        for j in range(i + 1):
            rho_ij = np.real(phi[:, i] * np.conj(phi[:, j]))
            bc = multipole_boundary_values(mesh, rho_ij)
            v = solver.solve(rho_ij, boundary_values=bc).potential
            integral = float(np.dot(w, v * rho_ij))
            factor = 1.0 if i == j else 2.0
            e_x -= 0.5 * factor * f[i] * f[j] * integral
    return e_x


class PBE0(XCFunctional):
    """PBE0-like hybrid: reported through :meth:`post_scf_energy`."""

    name = "Hybrid-PBE0"
    needs_gradient = True
    level = 3
    mixing = 0.25

    def __init__(self) -> None:
        self._pbe = PBE()

    def exc_density(self, *args):
        # the SCF itself runs on PBE; the hybrid correction is post-SCF
        return self._pbe.exc_density(*args)

    def pbe_exchange_energy(self, mesh: Mesh3D, rho_spin: np.ndarray) -> float:
        """Semilocal PBE exchange energy (the part replaced by HF exchange)."""
        g_up = mesh.gradient(rho_spin[:, 0])
        g_dn = mesh.gradient(rho_spin[:, 1])
        s_uu = np.einsum("ij,ij->i", g_up, g_up)
        s_dd = np.einsum("ij,ij->i", g_dn, g_dn)
        up = np.maximum(rho_spin[:, 0], 1e-12)
        dn = np.maximum(rho_spin[:, 1], 1e-12)
        ex = 0.5 * _pbe_exchange_unpol(2.0 * up, 4.0 * s_uu)
        ex = ex + 0.5 * _pbe_exchange_unpol(2.0 * dn, 4.0 * s_dd)
        live = rho_spin.sum(axis=1) > 1e-12
        return float(mesh.integrate(np.where(live, ex, 0.0)))

    def post_scf_energy(self, mesh: Mesh3D, scf_result) -> float:
        """Hybrid total energy from a converged PBE ``SCFResult``."""
        from repro.core.density import orbitals_to_nodes

        e_x_hf = 0.0
        for ch, occ in zip(scf_result.channels, scf_result.occupations):
            phi = orbitals_to_nodes(mesh, ch.psi)
            occ = np.asarray(occ, dtype=float)
            if ch.spin is None:
                # spin-restricted: each spin channel carries occ/2
                e_x_hf += 2.0 * ch.weight * hf_exchange_energy(
                    mesh, phi, occ / 2.0
                )
            else:
                e_x_hf += ch.weight * hf_exchange_energy(mesh, phi, occ)
        e_x_pbe = self.pbe_exchange_energy(mesh, scf_result.rho_spin)
        return scf_result.energy + self.mixing * (e_x_hf - e_x_pbe)
