"""Fast-diagonalization Poisson solve against the assembled cell stiffness."""

import numpy as np
import pytest

from repro.fem.assembly import CellStiffness
from repro.fem.mesh import Mesh3D, graded_edges
from repro.fem.poisson import PoissonSolver, multipole_boundary_values
from repro.hpc.flops import FlopLedger


def _mesh(pbc, degree=4):
    edges = (
        graded_edges(9.0, 4, center=4.0, ratio=2.5),
        graded_edges(7.0, 3, center=3.0, ratio=1.8),
        graded_edges(8.0, 4, center=5.0, ratio=2.0),
    )
    return Mesh3D(edges=edges, degree=degree, pbc=pbc)


MESHES = {
    "dirichlet": (False, False, False),
    "periodic": (True, True, True),
    "mixed_TFF": (True, False, False),
    "mixed_TTF": (True, True, False),
}


def _density(mesh):
    """Smooth, off-center charge (not neutral: the periodic case projects)."""
    c = 0.4 * mesh.lengths + 0.3
    r2 = np.sum((mesh.node_coords - c) ** 2, axis=1)
    return np.exp(-r2 / 1.5) - 0.5 * np.exp(-r2 / 4.0)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("pbc", MESHES.values(), ids=MESHES.keys())
def test_kronecker_sum_apply_matches_cell_stiffness(pbc):
    mesh = _mesh(pbc)
    x = np.random.default_rng(1).standard_normal(mesh.nnodes)
    ref = CellStiffness(mesh).apply_full(x)
    assert _rel(mesh.tensor.stiffness_apply(x), ref) <= 1e-13


@pytest.mark.parametrize("pbc", MESHES.values(), ids=MESHES.keys())
def test_poisson_solve_residual_against_cell_stiffness(pbc):
    """``K v = 4 pi M rho`` on the free rows, Dirichlet values on the rest."""
    mesh = _mesh(pbc)
    rho = _density(mesh)
    bc = None
    if mesh.free.size < mesh.nnodes:
        bc = multipole_boundary_values(mesh, rho)
    res = PoissonSolver(mesh).solve(rho, boundary_values=bc)
    assert res.iterations == 0
    v = res.potential
    free, w = mesh.free, mesh.mass_diag
    b = 4.0 * np.pi * w * rho
    if bc is None:
        # K annihilates constants: the solve answers the projected problem
        b = b - w * (np.sum(b) / np.sum(w))
        assert abs(float(mesh.integrate(v))) <= 1e-12 * np.sum(w) * np.abs(v).max()
    else:
        bnd = mesh.boundary_mask
        np.testing.assert_array_equal(v[bnd], bc[bnd])
    Kv = CellStiffness(mesh).apply_full(v)
    assert _rel(Kv[free], b[free]) <= 1e-12


def test_eigenpairs_are_mass_orthonormal_and_sorted():
    mesh = _mesh((True, False, False))
    for axis in mesh.tensor.axes:
        S, m = axis.evecs, axis.mass[axis.interior]
        np.testing.assert_allclose(S.T @ (m[:, None] * S), np.eye(m.size),
                                   atol=1e-12)
        assert np.all(np.diff(axis.evals) >= 0)
    periodic = mesh.tensor.axes[0]
    assert periodic.evals[0] == 0.0 and periodic.evals[1] > 0.0


def test_tensor_operators_are_built_once_per_mesh():
    mesh = _mesh((False, False, False))
    first = mesh.tensor
    PoissonSolver(mesh).solve(_density(mesh))
    assert mesh.tensor is first


def test_solve_charges_its_gemm_flops_to_the_ledger():
    mesh = _mesh((False, False, False), degree=3)
    ledger = FlopLedger()
    rho = _density(mesh)
    solver = PoissonSolver(mesh, ledger=ledger)
    solver.solve(rho)
    assert ledger["poisson_gemm"].flops_total == mesh.tensor.solve_flops > 0
    solver.solve(rho, boundary_values=multipole_boundary_values(mesh, rho))
    assert ledger["poisson_gemm"].flops_total == (
        2 * mesh.tensor.solve_flops + mesh.tensor.apply_flops
    )
