"""Analysis tools (stability fits, defect energetics) and the hybrid functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.defect_energetics import (
    HARTREE_TO_MEV,
    energy_per_dislocation_length,
    formation_energy,
    interaction_energy,
)
from repro.analysis.stability import crossover_size, fit_size_scaling


# ----- stability -----------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    eb=st.floats(-2.0, -0.1),
    es=st.floats(0.01, 1.0),
    seed=st.integers(0, 10**5),
)
def test_fit_recovers_planted_scaling(eb, es, seed):
    """Property: the fit recovers planted (e_bulk, e_surf) from clean data."""
    n = np.array([50, 120, 300, 700, 1500], dtype=float)
    e = eb * n + es * n ** (2 / 3)
    fit = fit_size_scaling(n, e)
    assert np.isclose(fit.e_bulk, eb, rtol=1e-9)
    assert np.isclose(fit.e_surf, es, rtol=1e-9)
    assert fit.residual < 1e-9


def test_crossover_size_analytic():
    """Phase A: lower bulk energy but higher surface energy -> crossover."""
    from repro.analysis.stability import SizeScalingFit

    a = SizeScalingFit(e_bulk=-1.00, e_surf=0.5, residual=0.0)
    b = SizeScalingFit(e_bulk=-0.99, e_surf=0.2, residual=0.0)
    nstar = crossover_size(a, b)
    # at N*, the energies cross: E_a(N*) == E_b(N*)
    assert np.isclose(a.energy(nstar), b.energy(nstar), rtol=1e-9)
    # below N*, the low-surface phase (b) wins; above, the low-bulk phase (a)
    assert b.energy(nstar / 4) < a.energy(nstar / 4)
    assert a.energy(nstar * 4) < b.energy(nstar * 4)


def test_crossover_no_crossing():
    from repro.analysis.stability import SizeScalingFit

    a = SizeScalingFit(e_bulk=-1.0, e_surf=0.1, residual=0.0)
    b = SizeScalingFit(e_bulk=-0.9, e_surf=0.2, residual=0.0)
    assert crossover_size(a, b) == np.inf  # a dominates at every size


def test_fit_requires_two_sizes():
    with pytest.raises(ValueError):
        fit_size_scaling(np.array([10.0]), np.array([-1.0]))


# ----- defect energetics ------------------------------------------------------
def test_interaction_energy_bookkeeping():
    assert interaction_energy(-10.0, -6.0, -5.0, -1.0) == pytest.approx(0.0)
    # attractive case
    assert interaction_energy(-10.2, -6.0, -5.0, -1.0) < 0


def test_formation_energy():
    assert formation_energy(-9.9, -10.0) == pytest.approx(0.1)


def test_energy_per_dislocation_length_units():
    """1 Ha over 1 nm of line = HARTREE_TO_MEV meV/nm."""
    d = energy_per_dislocation_length(1.0, 0.0, 1.0 / 0.0529177)
    assert np.isclose(d, HARTREE_TO_MEV, rtol=1e-10)
    with pytest.raises(ValueError):
        energy_per_dislocation_length(1.0, 0.0, 0.0)


# ----- hybrid functional ---------------------------------------------------------
@pytest.fixture(scope="module")
def h2_pbe():
    from repro.atoms.pseudo import AtomicConfiguration
    from repro.core import DFTCalculation
    from repro.xc.gga import PBE

    config = AtomicConfiguration(["H", "H"], [[0, 0, 0], [1.4, 0, 0]])
    calc = DFTCalculation(config, xc=PBE(), padding=8.0, cells_per_axis=4, degree=4)
    return calc, calc.run()


def test_hf_exchange_negative_and_sensible(h2_pbe):
    from repro.core.density import orbitals_to_nodes
    from repro.xc.hybrid import hf_exchange_energy

    calc, res = h2_pbe
    phi = orbitals_to_nodes(calc.mesh, res.channels[0].psi)
    occ = np.asarray(res.occupations[0]) / 2.0
    e_x = 2.0 * hf_exchange_energy(calc.mesh, phi, occ)
    assert e_x < 0
    # closed-shell 2-electron HF exchange = -E_H/2 = -(11|11)/... check scale
    assert -1.0 < e_x < -0.05


def test_hybrid_self_exchange_identity():
    """For a single doubly-occupied orbital, E_x^HF = -(ii|ii)."""
    from repro.fem.mesh import uniform_mesh
    from repro.fem.poisson import PoissonSolver, multipole_boundary_values
    from repro.xc.hybrid import hf_exchange_energy

    mesh = uniform_mesh((10.0,) * 3, (3, 3, 3), degree=4)
    r2 = np.sum((mesh.node_coords - 5.0) ** 2, axis=1)
    phi = np.exp(-r2 / 2.0)
    phi /= np.sqrt(float(mesh.integrate(phi**2)))
    # per-spin occupation 1.0
    e_x_spin = hf_exchange_energy(mesh, phi[:, None], np.array([1.0]))
    rho = phi**2
    bc = multipole_boundary_values(mesh, rho)
    v = PoissonSolver(mesh).solve(rho, boundary_values=bc).potential
    coulomb_ii = float(mesh.integrate(v * rho))
    assert np.isclose(e_x_spin, -0.5 * coulomb_ii, rtol=1e-8)


def test_pbe0_energy_differs_from_pbe(h2_pbe):
    from repro.xc.hybrid import PBE0

    calc, res = h2_pbe
    hyb = PBE0()
    e_hyb = hyb.post_scf_energy(calc.mesh, res)
    assert e_hyb != pytest.approx(res.energy, abs=1e-6)
    assert abs(e_hyb - res.energy) < 0.2  # a correction, not a rewrite


def test_pbe0_level_and_mixing():
    from repro.xc.hybrid import PBE0

    h = PBE0()
    assert h.level == 3
    assert h.mixing == 0.25
