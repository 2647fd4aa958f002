"""Per-axis 1D operators of a tensor-product mesh: Poisson solve, kinetic apply.

Every mesh is a tensor product of 1D GLL grids with a diagonal mass, so the
assembled stiffness is exactly the Kronecker sum of assembled 1D operators,
``K = Kx (x) My (x) Mz + Mx (x) Ky (x) Mz + Mx (x) My (x) Kz``.  With the
per-axis generalized eigenpairs ``K_a S_a = M_a S_a L_a`` (``S_a^T M_a S_a
= I``) on the non-Dirichlet nodes,

.. math::

    (K + \\sigma M)^{-1} = S^{\\otimes 3}\\,
        (\\Lambda_x \\oplus \\Lambda_y \\oplus \\Lambda_z + \\sigma)^{-1}\\,
        S^{T\\otimes 3}:

three axis transforms, a pointwise division and three transforms back
(Lynch–Rice–Thomas fast diagonalization; Deville, Fischer & Mund,
*High-Order Methods for Incompressible Fluid Flow*).  On a fully periodic
mesh ``K`` annihilates constants; that single zero mode is dropped, which
projects the right-hand side onto the range of ``K`` and returns the
zero-mean solution.

The same structure makes the Löwdin kinetic operator of the Kohn-Sham
Hamiltonian a Kronecker sum of three small dense matrices: with ``M =
Mx (x) My (x) Mz``,

.. math::

    \\tfrac12 M^{-1/2} K M^{-1/2} = T_x \\oplus T_y \\oplus T_z, \\qquad
    T_a = \\tfrac12 M_a^{-1/2} K_a M_a^{-1/2},

so ``H X`` needs three axis GEMMs instead of a gather, batched cell GEMMs
and a scatter (sum factorization).  A Bloch phase ``exp(2 pi i k_a)`` on
the connectivity entries that wrapped around axis ``a`` factorizes per
axis as well: it enters only ``K_a(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cell import ReferenceCell

if TYPE_CHECKING:
    from .mesh import Mesh3D

__all__ = ["AxisOperators", "TensorOperators", "axis_operators"]

#: |k| at or below which a Bloch component counts as Gamma (as in
#: :meth:`Mesh3D.bloch_phases`)
_K_EPS = 1e-14


@dataclass(frozen=True)
class AxisOperators:
    """Assembled 1D operators of one mesh axis."""

    stiff: np.ndarray  #: (n, n) assembled stiffness over every axis node
    mass: np.ndarray  #: (n,) assembled diagonal (GLL) mass
    interior: np.ndarray  #: indices of the non-Dirichlet axis nodes
    evals: np.ndarray  #: (m,) ascending generalized eigenvalues on ``interior``
    evecs: np.ndarray  #: (m, m) mass-orthonormal eigenvectors, columns
    kinetic: np.ndarray  #: (m, m) ``½ M^{-1/2} K M^{-1/2}`` on ``interior``


def axis_stiffness(
    edges: np.ndarray,
    ref: ReferenceCell,
    conn: np.ndarray,
    phase: np.ndarray | None = None,
) -> np.ndarray:
    """Assembled 1D stiffness over every axis node.

    ``phase`` (same shape as ``conn``) holds per-entry Bloch factors; cell
    ``c`` then contributes ``conj(phase_c) (x) phase_c * k_c`` — the 1D
    factor of the cell path's gather-phase / conjugate-scatter pair.
    """
    n = int(conn.max()) + 1
    dt = np.float64 if phase is None else np.complex128
    stiff = np.zeros((n, n), dtype=dt)
    for c, (hc, idx) in enumerate(zip(np.diff(edges), conn)):
        kc = (2.0 / hc) * ref.stiff1d
        if phase is not None:
            kc = np.conj(phase[c])[:, None] * kc * phase[c][None, :]
        np.add.at(stiff, (idx[:, None], idx[None, :]), kc)
    return stiff


def axis_operators(
    edges: np.ndarray, ref: ReferenceCell, conn: np.ndarray, periodic: bool
) -> AxisOperators:
    """Assemble one axis's 1D stiffness and mass and their eigenpairs.

    ``conn`` is the axis connectivity ``(ncells, p+1)``, wrapped on periodic
    axes.  A non-periodic axis drops its two end nodes (the Dirichlet
    boundary); on a periodic axis the constant mode's eigenvalue is set to
    exactly zero.
    """
    stiff = axis_stiffness(edges, ref, conn)
    n = stiff.shape[0]
    mass = np.zeros(n, dtype=np.float64)
    for hc, idx in zip(np.diff(edges), conn):
        np.add.at(mass, idx, (0.5 * hc) * ref.weights1d)
    interior = np.arange(n) if periodic else np.arange(1, n - 1)
    scale = 1.0 / np.sqrt(mass[interior])
    sym = scale[:, None] * stiff[np.ix_(interior, interior)] * scale[None, :]
    evals, q = np.linalg.eigh(0.5 * (sym + sym.T))
    if periodic:
        evals[0] = 0.0
    return AxisOperators(
        stiff, mass, interior, evals, scale[:, None] * q, 0.5 * sym
    )


def _kron3(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``(a (x) b (x) c) x`` for ``x`` shaped (na, nb, nc), z fastest."""
    y = np.matmul(b, x @ c.T)
    out = a @ y.reshape(a.shape[1], -1)
    return out.reshape(a.shape[0], b.shape[0], c.shape[0])


class TensorOperators:
    """The three axes' operators of a mesh, and the solves and kinetic
    matrices built on them.

    Built once per mesh (:attr:`Mesh3D.tensor`) and immutable afterwards,
    so one instance is shared by every solver on the mesh and by threads.
    """

    def __init__(self, mesh: "Mesh3D") -> None:
        self.axes = tuple(
            axis_operators(e, mesh.ref, conn, per)
            for e, conn, per in zip(mesh.edges, mesh._axis_conn, mesh.pbc)
        )
        self._ref = mesh.ref
        self._cells = tuple(zip(mesh.edges, mesh._axis_conn, mesh._axis_wrap))
        self._pbc = mesh.pbc
        self.shape = tuple(a.mass.size for a in self.axes)
        self.free_shape = tuple(a.interior.size for a in self.axes)
        lx, ly, lz = (a.evals for a in self.axes)
        #: eigenvalues of the free-node stiffness, ``Lx (+) Ly (+) Lz``
        self.eigenvalues = lx[:, None, None] + ly[:, None] + lz
        self._inverse = np.zeros(self.free_shape, dtype=np.float64)
        np.divide(1.0, self.eigenvalues, out=self._inverse,
                  where=self.eigenvalues != 0.0)  # 0 at the constant mode
        #: GEMM FLOPs of one :meth:`solve` and one :meth:`stiffness_apply`
        self.solve_flops = 4 * int(np.prod(self.free_shape)) * sum(self.free_shape)
        self.apply_flops = 2 * int(np.prod(self.shape)) * sum(self.shape)

    def kinetic(
        self, kfrac: tuple[float, float, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Löwdin kinetic 1D matrices ``(Tx, Ty, Tz)`` on the free nodes.

        At Gamma these are the cached real matrices.  Any nonzero component
        of ``kfrac`` makes all three complex; each axis with a nonzero
        component is assembled from its own phased cell matrices.
        """
        if kfrac is None or all(abs(k) <= _K_EPS for k in kfrac):
            return tuple(a.kinetic for a in self.axes)
        out = []
        for a, k, (edges, conn, wrap), per in zip(
            self.axes, kfrac, self._cells, self._pbc
        ):
            if abs(k) <= _K_EPS:
                out.append(a.kinetic.astype(np.complex128))
                continue
            if not per:
                raise ValueError("nonzero k along a non-periodic axis")
            phase = np.where(wrap, np.exp(2j * np.pi * k), 1.0 + 0j)
            # periodic: every axis node is free, no boundary rows to drop
            s = 1.0 / np.sqrt(a.mass)
            stiff = axis_stiffness(edges, self._ref, conn, phase)
            out.append(0.5 * (s[:, None] * stiff * s[None, :]))
        return tuple(out)

    def stiffness_apply(self, x_full: np.ndarray) -> np.ndarray:
        """``K @ x`` on the full node set (no boundary conditions)."""
        (kx, mx), (ky, my), (kz, mz) = ((a.stiff, a.mass) for a in self.axes)
        x = x_full.reshape(self.shape)
        y = (kx @ x.reshape(self.shape[0], -1)).reshape(self.shape)
        y *= my[:, None] * mz
        y += mx[:, None, None] * np.matmul(ky, x) * mz
        y += (mx[:, None] * my)[:, :, None] * (x @ kz.T)
        return y.reshape(-1)

    def solve(self, b_free: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """Free-node ``u`` with ``(K + shift * M) u = b`` (Dirichlet rows out).

        ``shift == 0`` on a fully periodic mesh drops the constant mode:
        ``b`` is projected onto the range of ``K`` and ``u`` has zero mean.
        """
        sx, sy, sz = (a.evecs for a in self.axes)
        c = _kron3(sx.T, sy.T, sz.T, b_free.reshape(self.free_shape))
        if shift:
            c /= self.eigenvalues + shift
        else:
            c *= self._inverse
        return _kron3(sx, sy, sz, c).reshape(-1)
