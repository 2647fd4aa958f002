"""Direct finite-element Poisson solver (electrostatics, "EP" step).

Solves the weak-form problem ``K v = 4*pi*M*rho`` for the electrostatic
potential of a charge (number-)density ``rho`` on the spectral-element mesh
*exactly*, by fast diagonalization of the Kronecker-sum stiffness
(:mod:`repro.fem.tensor`): three axis transforms, a pointwise division by
the summed 1D eigenvalues and three transforms back.  There is no
iteration, tolerance or warm start; a solve depends only on its input.

Boundary handling, for any per-axis mix of periodic and Dirichlet axes:

* Dirichlet axes — inhomogeneous values from a multipole (monopole +
  dipole) expansion of the net charge, imposed by lifting through the
  Kronecker-sum apply of the full 1D operators;
* fully periodic systems — the constant nullspace is dropped, so the
  right-hand side is projected onto the range of ``K`` (the cell must be
  charge neutral: electrons + smeared cores) and ``v`` has zero mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import trace_region

from .mesh import Mesh3D

__all__ = ["PoissonSolver", "multipole_boundary_values"]


def multipole_boundary_values(
    mesh: Mesh3D, rho_full: np.ndarray, center: np.ndarray | None = None
) -> np.ndarray:
    """Dirichlet values of the potential of ``rho`` on the outer boundary.

    Uses the monopole + dipole far-field expansion about ``center`` (default:
    charge-weighted centroid falls back to the box center for near-neutral
    densities).  Returns a full-node array that is zero away from the
    boundary.
    """
    coords = mesh.node_coords
    if center is None:
        center = 0.5 * mesh.lengths
    center = np.asarray(center, dtype=float)
    q = float(mesh.integrate(rho_full))
    dip = mesh.integrate(rho_full[:, None] * (coords - center))
    out = np.zeros(mesh.nnodes)
    b = mesh.boundary_mask
    d = coords[b] - center
    r = np.sqrt(np.einsum("ij,ij->i", d, d))
    out[b] = q / r + (d @ dip) / r**3
    return out


@dataclass
class PoissonResult:
    """Potential plus solver diagnostics."""

    potential: np.ndarray  #: full-node potential values
    #: solver iterations: always 0, the solve is direct (kept for callers
    #: that tally Poisson work per solve)
    iterations: int = 0


class PoissonSolver:
    """Exact tensor-product Poisson solver on a spectral-element mesh."""

    def __init__(self, mesh: Mesh3D, ledger=None) -> None:
        self.mesh = mesh
        self.ledger = ledger

    def solve(
        self, rho_full: np.ndarray, boundary_values: np.ndarray | None = None
    ) -> PoissonResult:
        """Solve ``-lap v = 4*pi*rho`` for the full-node potential ``v``.

        Parameters
        ----------
        rho_full:
            Charge number-density sampled at all mesh nodes.
        boundary_values:
            Full-node array with Dirichlet values at boundary nodes (see
            :func:`multipole_boundary_values`); ignored on fully periodic
            meshes.
        """
        mesh = self.mesh
        tensor = mesh.tensor
        free = mesh.free
        b = 4.0 * np.pi * mesh.mass_diag * rho_full
        v = np.zeros(mesh.nnodes, dtype=np.float64)
        flops = tensor.solve_flops
        with trace_region("Poisson", ndof=int(free.size)):
            if boundary_values is not None and free.size < mesh.nnodes:
                bnd = mesh.boundary_mask
                v[bnd] = boundary_values[bnd]
                b = b - tensor.stiffness_apply(v)
                flops += tensor.apply_flops
            v[free] = tensor.solve(b[free])
        if self.ledger is not None:
            self.ledger.add("poisson_gemm", flops)
        return PoissonResult(v)
