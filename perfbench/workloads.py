"""The four benchmark workloads: inputs from a seed, set-up, solve, reference.

Each workload class turns ``--seed`` into the program's inputs (seed 0 is
the canonical input; other seeds perturb it as documented on the class),
builds the public object the program is driven through (:meth:`setup`),
runs the timed solve (:meth:`solve`) and reports an *outcome* dict that
:mod:`checks` compares with a reference.  :meth:`reference` derives that
reference, untimed, with ``poisson_tol=1e-13``.

This module runs inside ``worker.py`` processes, whose ``sys.path`` holds
the checkout's ``src/``; it imports ``repro`` only inside methods, so the
set-up time of each workload counts exactly the imports it needs.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import tempfile

import numpy as np

#: the tight Poisson tolerance the references are solved with; it agrees
#: with an exact solve to <= 1e-12 Ha on the library molecules
REFERENCE_POISSON_TOL = 1e-13


def _with_poisson_tol(options, tol: float):
    """``options`` with ``poisson_tol`` tightened, if the program has the knob.

    A program whose Poisson solve is exact has no such field; its default
    solve is then the reference solve.
    """
    fields = {f.name for f in dataclasses.fields(options)}
    if "poisson_tol" not in fields:
        return options
    return dataclasses.replace(options, poisson_tol=tol)


def _electrons(mesh, rho_spin: np.ndarray) -> float:
    return float(mesh.integrate(np.asarray(rho_spin).sum(axis=1)))


class Workload:
    """One workload at one seed (subclasses fill in the four stages)."""

    name = ""
    #: the ``repro`` modules set-up imports (the ``repro.import_s`` part)
    MODULES: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def perturbation(self, low: float, high: float, size=None):
        """This seed's uniform draw; the same on every call."""
        return np.random.default_rng(self.seed).uniform(low, high, size)

    def setup(self, ledger=None) -> None:
        """Import what the workload needs and construct its public object.

        ``ledger`` is a ``FlopLedger`` the traced run hands to the program.
        """
        raise NotImplementedError

    def solve(self) -> dict:
        """The timed call; returns the outcome (JSON-able)."""
        raise NotImplementedError

    def jobs(self) -> int:
        """Jobs completed by one solve (members of a campaign, else 1)."""
        return 1

    def untimed_facts(self, outcome: dict) -> None:
        """Add to ``outcome`` what the checks need but the solve is not timed on."""

    def reference(self) -> dict:
        """Untimed reference answer for this seed."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever :meth:`solve` left on disk."""

    def model_shape(self) -> dict | None:
        """Problem size for ``perfmodel.kernel_times`` (None: not modeled)."""
        return None


class _SCFWorkload(Workload):
    """A single ``DFTCalculation.run()``; subclasses build the inputs."""

    def _calculation(self, ledger=None, reference=False):
        raise NotImplementedError

    def setup(self, ledger=None) -> None:
        self.calc = self._calculation(ledger)

    def solve(self) -> dict:
        res = self.result = self.calc.run()
        config = self.calc.config
        return {
            "energy": float(res.energy),
            "converged": bool(res.converged),
            "iterations": int(res.n_iterations),
            "electrons": _electrons(self.calc.mesh, res.rho_spin),
            "n_electrons": int(config.n_electrons),
            "energy_tol": float(self.calc.options.energy_tol),
            "degradations": len(res.degradation or ()),
        }

    def reference(self) -> dict:
        res = self._calculation(reference=True).run()
        return {"energy": float(res.energy), "converged": bool(res.converged)}

    def model_shape(self) -> dict:
        channels = self.result.channels
        return {
            "M": float(channels[0].op.n),
            "N": float(channels[0].psi.shape[1]),
            "n_instances": len(channels),
            "npc": (self.calc.mesh.degree + 1) ** 3,
            "cheb_degree": self.calc.options.cheb_degree,
            "complex_arith": any(any(ch.kfrac) for ch in channels),
        }


class MolH2O(_SCFWorkload):
    """H2O, LDA, library default mesh, default ``SCFOptions``, serial.

    Seeds other than 0 jitter every coordinate by up to 0.02 Bohr.
    """

    name = "mol_h2o"
    MODULES = ("repro.core", "repro.pipeline", "repro.xc")
    JITTER = 0.02

    def _calculation(self, ledger=None, reference=False):
        from repro.atoms.pseudo import AtomicConfiguration
        from repro.core import DFTCalculation, SCFOptions
        from repro.pipeline import MOLECULE_LIBRARY
        from repro.xc import LDA

        symbols, positions, *_ = MOLECULE_LIBRARY["H2O"]
        pos = np.asarray(positions, dtype=float)
        if self.seed:
            pos = pos + self.perturbation(-self.JITTER, self.JITTER, pos.shape)
        options = SCFOptions()
        if reference:
            options = _with_poisson_tol(options, REFERENCE_POISSON_TOL)
        config = AtomicConfiguration(list(symbols), pos)
        return DFTCalculation(config, xc=LDA(), options=options, ledger=ledger)


class AlloyKpts(_SCFWorkload):
    """HCP Mg (1,1,2) supercell with one Li solute, 4 k-points, T=5e-3.

    Fully periodic, cells (2,3,6), degree 4.  The Li sits where
    ``substitute_solutes(seed=0)`` puts it.  Other seeds strain the lattice
    isotropically by up to 0.2%; they do not move the Li, because the
    eight sites sit in four different places relative to this coarse mesh,
    whose energies differ by up to 0.1 Ha and whose solves differ by ~25%
    in time -- four different systems, not perturbations of one.
    """

    name = "alloy_kpts"
    MODULES = ("repro.core", "repro.materials.defects", "repro.materials.lattice",
               "repro.materials.systems", "repro.xc")
    STRAIN = 0.002

    def _calculation(self, ledger=None, reference=False):
        from repro.core import DFTCalculation, SCFOptions
        from repro.materials.defects import substitute_solutes
        from repro.materials.lattice import MG_A, MG_C, hcp_orthorhombic, supercell
        from repro.materials.systems import kpoint_set
        from repro.xc import LDA

        scale = 1.0
        if self.seed:
            scale += float(self.perturbation(-self.STRAIN, self.STRAIN))
        lattice, symbols, frac = hcp_orthorhombic(MG_A * scale, MG_C * scale)
        config = supercell(lattice, symbols, frac, (1, 1, 2))
        config = substitute_solutes(config, "Li", 1, seed=0)
        options = SCFOptions(temperature=5e-3)
        if reference:
            options = _with_poisson_tol(options, REFERENCE_POISSON_TOL)
        return DFTCalculation(
            config, xc=LDA(), cells_per_axis=(2, 3, 6), degree=4,
            kpoints=kpoint_set(4, axis=2), options=options, ledger=ledger,
        )


class ScreenDimers(Workload):
    """8-member H2 bond scan (1.20-1.55 Bohr) through ``run_via_serve``.

    ``ScreenCampaign(degree=4, cells_per_axis=3, seeding=True,
    surrogate=True)`` with two serve workers and a fresh ``ResultCache``
    per campaign.  Seeds other than 0 shift the whole bond grid by up to
    0.002 Bohr.  Even that moves the campaign's SCF iteration total by
    several percent (182-198 against 187 on the canonical grid); shifts of
    0.02 Bohr moved it by up to 16%.
    """

    name = "screen_dimers"
    MODULES = ("repro.screen", "repro.serve")
    SHIFT = 0.002

    def bonds(self) -> tuple[float, ...]:
        shift = 0.0
        if self.seed:
            shift = float(self.perturbation(-self.SHIFT, self.SHIFT))
        return tuple(float(b) for b in np.linspace(1.20, 1.55, 8) + shift)

    def _campaign(self, seeding: bool, options=None):
        from repro.screen import ScreenCampaign, dimer_family

        return ScreenCampaign(
            dimer_family(bonds=self.bonds()), degree=4, cells_per_axis=3,
            seeding=seeding, surrogate=seeding, options=options,
        )

    def setup(self, ledger=None) -> None:
        from repro.serve import ResultCache

        self.workdir = pathlib.Path(
            tempfile.mkdtemp(prefix="screen-", dir=_work_root())
        )
        self.campaign = self._campaign(seeding=True)
        self.cache = ResultCache(self.workdir / "cache")

    def solve(self) -> dict:
        report = self.campaign.run_via_serve(
            self.workdir / "run", workers=2, cache=self.cache
        )
        family = self.campaign.family
        return {
            "members": [
                {
                    "name": o.name,
                    "energy": float(o.energy),
                    "converged": bool(o.converged),
                    "iterations": int(o.iterations),
                    "source": o.seed_source,
                }
                for o in report.outcomes
            ],
            "n_electrons": int(family.members[0].config.n_electrons),
            "energy_tol": float(self.campaign.options.energy_tol),
            "anchors": int(self.campaign.n_anchors),
            "total_iterations": int(report.total_iterations),
        }

    def untimed_facts(self, outcome: dict) -> None:
        """Electron count of every converged density the campaign saved."""
        from repro.core import load_initial_rho
        from repro.screen.family import domain_mesh, family_domain

        c = self.campaign
        lengths, _ = family_domain(c.family, c.padding)
        mesh = domain_mesh(lengths, c.cells_per_axis, c.degree, c.grading_ratio)
        paths = sorted((self.workdir / "run" / "artifacts").glob("*.rho.npz"))
        outcome["electrons"] = [
            _electrons(mesh, load_initial_rho(str(p), mesh)) for p in paths
        ]

    def jobs(self) -> int:
        return len(self.campaign.family)

    def reference(self) -> dict:
        """Cold start of every member, in-process, at the tight tolerance."""
        options = _with_poisson_tol(
            self._campaign(seeding=False).options, REFERENCE_POISSON_TOL
        )
        report = self._campaign(seeding=False, options=options).run()
        return {
            "energies": report.energies(),
            "converged": all(o.converged for o in report.outcomes),
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class InvdftH2(Workload):
    """``qmb_reference("H2", 4, 4)`` then ``InverseDFT.run`` from LDA.

    The inversion stops at :attr:`TARGET`, midway between the misfits of
    iterations 20 (1.491e-5) and 21 (1.410e-5) on the canonical input.
    Seeds other than 0 stretch or shrink the bond by up to 0.002 Bohr.
    """

    name = "invdft_h2"
    MODULES = ("repro.invdft", "repro.pipeline")
    TARGET = 1.45e-5
    MAX_ITERATIONS = 60
    JITTER = 0.002

    def molecule(self) -> str:
        """Library key of this seed's H2 (seed 0: the library entry)."""
        from repro.pipeline import MOLECULE_LIBRARY

        if not self.seed:
            return "H2"
        symbols, positions, n_a, n_b, n_orb = MOLECULE_LIBRARY["H2"]
        pos = np.asarray(positions, dtype=float)
        pos[1, 0] += float(self.perturbation(-self.JITTER, self.JITTER))
        key = f"H2-seed{self.seed}"
        MOLECULE_LIBRARY[key] = (symbols, pos.tolist(), n_a, n_b, n_orb)
        return key

    def setup(self, ledger=None) -> None:
        self.key = self.molecule()
        self.ledger = ledger

    def solve(self) -> dict:
        from repro.invdft import InverseDFT
        from repro.pipeline import qmb_reference
        from repro.xc.lda import LDA

        ref = qmb_reference(self.key, cells_per_axis=4, degree=4)
        mesh = ref.calc.mesh
        inv = InverseDFT(
            mesh, ref.calc.config, ref.rho_qmb_spin,
            nstates=max(ref.n_alpha, ref.n_beta) + 3,
            minres_tol=1e-6, minres_maxiter=150, ledger=self.ledger,
        )
        v0, _ = LDA().potential_and_energy(mesh, ref.rho_qmb_spin)
        out = inv.run(
            v0, eta=2.0, max_iterations=self.MAX_ITERATIONS, tol=self.TARGET
        )
        return {
            "e_fci": float(ref.e_fci),
            "misfit": float(out.density_error),
            "target": self.TARGET,
            "converged": bool(out.converged),
            "iterations": int(out.iterations),
            "electrons_qmb": _electrons(mesh, ref.rho_qmb_spin),
            "electrons_ks": _electrons(mesh, out.rho_ks),
            "n_electrons": int(ref.calc.config.n_electrons),
            "energy_tol": float(ref.calc.options.energy_tol),
        }

    def reference(self) -> dict:
        """The qmb stage of ``qmb_reference`` at the tight Poisson tolerance."""
        from repro.atoms.pseudo import AtomicConfiguration
        from repro.core import DFTCalculation, SCFOptions
        from repro.core.density import orbitals_to_nodes
        from repro.pipeline import MOLECULE_LIBRARY
        from repro.qmb.fci import FCISolver
        from repro.qmb.integrals import compute_integrals
        from repro.xc.lda import LDA

        symbols, positions, n_a, n_b, n_orb = MOLECULE_LIBRARY[self.molecule()]
        config = AtomicConfiguration(list(symbols), np.asarray(positions, float))
        options = _with_poisson_tol(
            SCFOptions(max_iterations=60), REFERENCE_POISSON_TOL
        )
        calc = DFTCalculation(
            config, xc=LDA(), padding=8.0, cells_per_axis=4, degree=4,
            nstates=max(n_orb, n_a + 2), options=options,
        )
        seed = calc.run()
        phi = orbitals_to_nodes(calc.mesh, seed.channels[0].psi)[:, :n_orb]
        ints = compute_integrals(
            calc.mesh, calc.config, phi, poisson_tol=REFERENCE_POISSON_TOL
        )
        fci = FCISolver(ints, n_a, n_b).ground_state()
        return {"e_fci": float(fci.energy), "converged": bool(seed.converged)}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (MolH2O, AlloyKpts, ScreenDimers, InvdftH2)
}


def _work_root() -> pathlib.Path:
    """Scratch space for campaign files, inside the benchmark directory."""
    root = pathlib.Path(__file__).resolve().parent / ".work"
    root.mkdir(exist_ok=True)
    return root
