"""Poisson solver: Gaussian charges, multipole BCs, periodic neutrality."""

import numpy as np
from scipy.special import erf

from repro.fem.mesh import uniform_mesh
from repro.fem.poisson import PoissonSolver, multipole_boundary_values


def _gaussian_density(mesh, center, sigma, q=1.0):
    r2 = np.sum((mesh.node_coords - center) ** 2, axis=1)
    return q * np.exp(-r2 / (2 * sigma**2)) / (2 * np.pi * sigma**2) ** 1.5


def test_gaussian_potential_dirichlet():
    """Potential of a Gaussian charge: v(r) = erf(r / (sigma sqrt 2)) / r."""
    L = 16.0
    mesh = uniform_mesh((L, L, L), (5, 5, 5), degree=5)
    center = np.array([L / 2] * 3)
    sigma = 1.2
    rho = _gaussian_density(mesh, center, sigma)
    bc = multipole_boundary_values(mesh, rho, center=center)
    res = PoissonSolver(mesh).solve(rho, boundary_values=bc)
    r = np.sqrt(np.sum((mesh.node_coords - center) ** 2, axis=1))
    mask = (r > 1.0) & (r < 6.0)
    exact = erf(r[mask] / (sigma * np.sqrt(2))) / r[mask]
    assert np.allclose(res.potential[mask], exact, atol=3e-4)


def test_monopole_boundary_values():
    L = 10.0
    mesh = uniform_mesh((L, L, L), (4, 4, 4), degree=5)
    center = np.array([L / 2] * 3)
    rho = _gaussian_density(mesh, center, 1.1, q=2.5)
    bc = multipole_boundary_values(mesh, rho, center=center)
    b = mesh.boundary_mask
    r = np.sqrt(np.sum((mesh.node_coords[b] - center) ** 2, axis=1))
    assert np.allclose(bc[b], 2.5 / r, rtol=1e-3)


def test_dipole_correction_improves_offcenter():
    """Off-center charge: monopole+dipole BC beats pure monopole."""
    L = 12.0
    mesh = uniform_mesh((L, L, L), (4, 4, 4), degree=5)
    center = np.array([L / 2] * 3)
    src = center + np.array([1.2, 0.0, 0.0])
    rho = _gaussian_density(mesh, src, 1.0)
    bc = multipole_boundary_values(mesh, rho, center=center)
    b = mesh.boundary_mask
    r_src = np.sqrt(np.sum((mesh.node_coords[b] - src) ** 2, axis=1))
    exact = 1.0 / r_src
    r_c = np.sqrt(np.sum((mesh.node_coords[b] - center) ** 2, axis=1))
    mono = 1.0 / r_c
    err_bc = np.max(np.abs(bc[b] - exact))
    err_mono = np.max(np.abs(mono - exact))
    assert err_bc < 0.5 * err_mono


def test_periodic_neutral_solve():
    """Periodic cosine charge: -lap v = 4 pi rho has analytic solution."""
    L = 5.0
    mesh = uniform_mesh((L, L, L), (4, 3, 3), degree=4, pbc=(True, True, True))
    g = 2 * np.pi / L
    x = mesh.node_coords[:, 0]
    rho = np.cos(g * x)  # zero mean
    res = PoissonSolver(mesh).solve(rho)
    exact = 4 * np.pi * np.cos(g * x) / g**2
    # solution defined up to a constant; compare after mean removal
    v = res.potential - np.dot(mesh.mass_diag, res.potential) / L**3
    ex = exact - np.dot(mesh.mass_diag, exact) / L**3
    assert np.allclose(v, ex, atol=5e-4 * np.max(np.abs(ex)))


def test_convergence_with_mesh_refinement():
    """Potential error decreases with h-refinement at fixed degree."""
    L = 12.0
    sigma = 1.0
    errs = []
    for nc in (2, 4):
        mesh = uniform_mesh((L, L, L), (nc, nc, nc), degree=3)
        center = np.array([L / 2] * 3)
        rho = _gaussian_density(mesh, center, sigma)
        bc = multipole_boundary_values(mesh, rho, center=center)
        res = PoissonSolver(mesh).solve(rho, boundary_values=bc)
        r = np.sqrt(np.sum((mesh.node_coords - center) ** 2, axis=1))
        mask = (r > 1.5) & (r < 5.0)
        exact = erf(r[mask] / (sigma * np.sqrt(2))) / r[mask]
        errs.append(np.max(np.abs(res.potential[mask] - exact)))
    assert errs[1] < 0.2 * errs[0]
