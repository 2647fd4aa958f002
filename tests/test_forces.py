"""Hellmann-Feynman forces and structural relaxation."""

import numpy as np
import pytest

from repro.atoms.pseudo import AtomicConfiguration
from repro.core import DFTCalculation, SCFOptions
from repro.core.forces import hellmann_feynman_forces, relax
from repro.core.hamiltonian import Electrostatics
from repro.fem.mesh import uniform_mesh
from repro.xc.lda import LDA

L = 16.0


def _fixed_density(mesh):
    r2 = np.sum((mesh.node_coords - L / 2) ** 2, axis=1)
    rho = np.exp(-r2 / 4.0)
    return rho * (2.0 / float(mesh.integrate(rho)))


def _es_energy(mesh, d):
    cfg = AtomicConfiguration(
        ["H", "H"], [[L / 2 - d / 2, L / 2, L / 2], [L / 2 + d / 2, L / 2, L / 2]]
    )
    es = Electrostatics(mesh, cfg)
    rho = _fixed_density(mesh)
    v = es.solve(rho)
    return es.electrostatic_energy(rho, v), cfg, v


def test_forces_match_fd_of_electrostatic_energy():
    """F = -dE/dR against central differences (rho held fixed)."""
    mesh = uniform_mesh((L,) * 3, (5, 5, 5), degree=6)
    d0, h = 2.0, 0.02
    _, cfg, v = _es_energy(mesh, d0)
    F = hellmann_feynman_forces(mesh, cfg, v)
    ep, _, _ = _es_energy(mesh, d0 + 2 * h)
    em, _, _ = _es_energy(mesh, d0 - 2 * h)
    fd = -(ep - em) / (4 * h)  # = -dE/dx2
    assert np.isclose(F[1, 0], fd, rtol=0.03)
    # Newton's third law and symmetry
    assert np.allclose(F[0] + F[1], 0.0, atol=1e-6)
    assert np.allclose(F[:, 1:], 0.0, atol=1e-6)


def test_forces_vanish_for_symmetric_atom():
    """A single centered atom feels no force."""
    mesh = uniform_mesh((L,) * 3, (4, 4, 4), degree=5)
    cfg = AtomicConfiguration(["He"], [[L / 2, L / 2, L / 2]])
    calc = DFTCalculation(cfg, xc=LDA(), mesh=mesh)
    res = calc.run()
    F = hellmann_feynman_forces(mesh, cfg, res.v_tot)
    assert np.abs(F).max() < 1e-6


@pytest.mark.slow
def test_relax_h2_toward_equilibrium():
    """Relaxation from a compressed H2 moves toward the binding minimum."""
    mesh = uniform_mesh((L,) * 3, (4, 4, 4), degree=5)

    def run_scf(cfg):
        calc = DFTCalculation(
            cfg, xc=LDA(), mesh=mesh,
            options=SCFOptions(max_iterations=50, density_tol=1e-7),
        )
        res = calc.run()
        return res.energy, hellmann_feynman_forces(mesh, cfg, res.v_tot)

    start = AtomicConfiguration(
        ["H", "H"], [[L / 2 - 0.7, L / 2, L / 2], [L / 2 + 0.7, L / 2, L / 2]]
    )
    e0, f0 = run_scf(start)
    out = relax(run_scf, start, force_tol=5e-3, max_steps=10)
    d_final = np.linalg.norm(out.config.positions[1] - out.config.positions[0])
    assert out.energy < e0 - 1e-3  # energy strictly decreased
    assert d_final > 1.5  # bond stretched toward the ~2.5 Bohr minimum
    assert np.abs(out.forces).max() < np.abs(f0).max()


def test_relax_result_bookkeeping():
    """relax() with an analytic quadratic surface converges cleanly."""
    target = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])

    def run(cfg):
        d = cfg.positions - target
        e = 0.5 * float(np.sum(d**2))
        return e, -d

    start = AtomicConfiguration(["H", "H"], target + 0.3)
    out = relax(run, start, force_tol=1e-6, max_steps=200, step=0.5)
    assert out.converged
    assert np.allclose(out.config.positions, target, atol=1e-5)
    assert out.history[0]["fmax"] > out.history[-1]["fmax"]
