"""Kronecker-sum KSOperator apply against the cell-level Löwdin operator.

The serial :class:`~repro.fem.assembly.KSOperator` applies its kinetic term
as ``Tx (+) Ty (+) Tz`` (three axis GEMMs).  The oracle here is the paper's
cell path: lift to all nodes with ``D^{-1/2}``, ``CellStiffness.apply_full``
(gather, batched cell GEMM, scatter), restrict, scale, add ``v x`` and the
separable nonlocal term.
"""

import numpy as np
import pytest

from repro.atoms.nonlocal_psp import NonlocalProjector, projector_matrix
from repro.fem import assembly
from repro.fem.assembly import CellStiffness, KSOperator
from repro.fem.mesh import Mesh3D, graded_edges
from repro.hpc.flops import FlopLedger

RTOL = 1e-14


def _mesh(pbc, degree=4):
    edges = (
        graded_edges(9.0, 4, center=4.0, ratio=2.5),
        graded_edges(7.0, 3, center=3.0, ratio=1.8),
        graded_edges(8.0, 4, center=5.0, ratio=2.0),
    )
    return Mesh3D(edges=edges, degree=degree, pbc=pbc)


def _cell_lowdin(mesh, kfrac, v_full, X, projectors=None):
    """Reference ``H~ X`` through the cell-level stiffness kernel."""
    stiff = CellStiffness(mesh, kfrac=kfrac)
    free = mesh.free
    ds = 1.0 / np.sqrt(mesh.mass_diag[free])
    full = np.zeros(
        (mesh.nnodes, X.shape[1]), dtype=np.result_type(stiff.dtype, X.dtype)
    )
    full[free] = ds[:, None] * X
    y = 0.5 * ds[:, None] * stiff.apply_full(full)[free]
    y += v_full[free, None] * X
    if projectors:
        B, D = projector_matrix(mesh, projectors)
        y += B @ (D[:, None] * (B.conj().T @ X))
    return y


def _cell_kinetic_diagonal(mesh):
    kd = CellStiffness(mesh).diagonal_full()
    return (0.5 * kd / mesh.mass_diag)[mesh.free]


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


CASES = {
    "graded_dirichlet": ((False, False, False), None),
    "periodic_gamma": ((True, True, True), None),
    "bloch_one_axis": ((True, True, True), (0.3, 0.0, 0.0)),
    "bloch_three_axes": ((True, True, True), (0.3, -0.125, 0.45)),
    "mixed_TFF_gamma": ((True, False, False), None),
    "mixed_TFF_bloch": ((True, False, False), (0.25, 0.0, 0.0)),
}


def _block(rng, n, B, complex_):
    X = rng.standard_normal((n, B))
    if complex_:
        X = X + 1j * rng.standard_normal((n, B))
    return X


@pytest.mark.parametrize("pbc,kfrac", CASES.values(), ids=CASES.keys())
def test_tensor_apply_matches_cell_path(pbc, kfrac):
    mesh = _mesh(pbc)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(mesh.nnodes)
    op = KSOperator(mesh, kfrac=kfrac)
    op.set_potential(v)
    assert op.dtype == (np.float64 if kfrac is None else np.complex128)
    X = _block(rng, mesh.ndof, 5, kfrac is not None)
    assert _rel(op.apply(X), _cell_lowdin(mesh, kfrac, v, X)) <= RTOL
    # a single vector takes the same path
    assert _rel(op.apply(X[:, 2]), _cell_lowdin(mesh, kfrac, v, X[:, 2:3])[:, 0]) <= RTOL


def test_tensor_apply_with_nonlocal_projectors():
    mesh = _mesh((False, False, False))
    projs = [
        NonlocalProjector(center=(4.0, 3.0, 5.0), coefficient=0.4, sigma=0.9),
        NonlocalProjector(center=(5.5, 3.5, 4.0), coefficient=-0.2, sigma=1.3),
    ]
    rng = np.random.default_rng(12)
    v = rng.standard_normal(mesh.nnodes)
    op = KSOperator(mesh, nonlocal_projectors=projs)
    op.set_potential(v)
    X = rng.standard_normal((mesh.ndof, 4))
    assert _rel(op.apply(X), _cell_lowdin(mesh, None, v, X, projs)) <= RTOL
    B, D = projector_matrix(mesh, projs)
    want = _cell_kinetic_diagonal(mesh) + v[mesh.free] + np.einsum(
        "ip,p,ip->i", B, D, B
    )
    np.testing.assert_allclose(op.diagonal(), want, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("pbc,kfrac", CASES.values(), ids=CASES.keys())
def test_diagonals_match_cell_path(pbc, kfrac):
    mesh = _mesh(pbc)
    v = np.random.default_rng(13).standard_normal(mesh.nnodes)
    op = KSOperator(mesh, kfrac=kfrac)
    op.set_potential(v)
    want = _cell_kinetic_diagonal(mesh)
    np.testing.assert_allclose(op.kinetic_diagonal(), want, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(
        op.diagonal(), want + v[mesh.free], rtol=RTOL, atol=1e-15
    )
    # the diagonal is that of the dense operator
    if mesh.ndof <= 3000:
        np.testing.assert_allclose(
            op.diagonal(), np.diag(op.matrix()).real, rtol=RTOL, atol=1e-15
        )


@pytest.mark.parametrize("kfrac", [None, (0.2, 0.1, 0.0)])
def test_noncontiguous_x_and_sliced_out(kfrac):
    """Layouts whose reshape would copy must not lose the result."""
    mesh = _mesh((True, True, True), degree=3)
    rng = np.random.default_rng(14)
    op = KSOperator(mesh, kfrac=kfrac)
    op.set_potential(rng.standard_normal(mesh.nnodes))
    X = _block(rng, mesh.ndof, 6, kfrac is not None)
    want = op.apply(X)
    # strided columns and Fortran order: non-contiguous inputs
    np.testing.assert_array_equal(op.apply(X[:, ::2]), op.apply(X[:, ::2].copy()))
    np.testing.assert_array_equal(op.apply(np.asfortranarray(X)), want)
    # ``out`` a column slice of a wider block: written in place
    wide = np.zeros((mesh.ndof, 9), dtype=want.dtype)
    got = op.apply(X, out=wide[:, 2:8])
    assert np.shares_memory(got, wide)
    np.testing.assert_array_equal(wide[:, 2:8], want)
    assert not wide[:, :2].any() and not wide[:, 8:].any()
    # a strided 1-D ``x`` and ``out`` (one column: compare like with like,
    # since BLAS may round a single column differently from a block)
    col = np.zeros((mesh.ndof, 3), dtype=want.dtype)
    op.apply(X[:, 4], out=col[:, 1])
    np.testing.assert_array_equal(col[:, 1], op.apply(X[:, 4].copy()))
    # a contiguous ``out`` receives the same bits
    dense = np.empty_like(want)
    op.apply(X, out=dense)
    np.testing.assert_array_equal(dense, want)


def test_operator_builds_no_cell_stiffness(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("KSOperator must not build a CellStiffness")

    monkeypatch.setattr(assembly.CellStiffness, "__init__", refuse)
    mesh = _mesh((True, False, False), degree=3)
    op = KSOperator(mesh, kfrac=(0.1, 0.0, 0.0))
    op.apply(np.ones((mesh.ndof, 2)))
    op.diagonal()
    tags = {key[0] for key in op.workspace._pool()}
    assert tags.isdisjoint({"ks_full", "ks_gather", "stiff_Xc", "stiff_out"})


def test_gamma_axis_matrices_shared_through_mesh():
    mesh = _mesh((True, True, False), degree=3)
    a, b = KSOperator(mesh), KSOperator(mesh)
    assert all(x is y for x, y in zip(a._kinetic, b._kinetic))
    assert all(t is ax.kinetic for t, ax in zip(a._kinetic, mesh.tensor.axes))


def test_nonzero_k_on_dirichlet_axis_rejected():
    with pytest.raises(ValueError, match="non-periodic"):
        KSOperator(_mesh((True, False, False), degree=2), kfrac=(0.0, 0.2, 0.0))


@pytest.mark.parametrize("kfrac,factor", [(None, 1), ((0.25, 0.0, 0.0), 4)])
def test_ledger_charges_tensor_gemm(kfrac, factor):
    mesh = _mesh((True, True, True), degree=2)
    ledger = FlopLedger()
    op = KSOperator(mesh, kfrac=kfrac, ledger=ledger)
    B = 3
    op.apply(np.ones((mesh.ndof, B)))
    nx, ny, nz = mesh.tensor.free_shape
    want = factor * 2 * mesh.ndof * B * (nx + ny + nz)
    assert ledger["ks_tensor_gemm"].flops_total == want
    assert ledger["cell_gemm"].flops_total == 0
