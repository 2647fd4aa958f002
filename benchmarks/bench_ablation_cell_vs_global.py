"""Ablation (Sec 5.4.1): cell-level batched GEMM vs global sparse matvec.

The paper's central kernel choice: recast ``H X`` as batched dense
cell-level products (``Assembly_FE {H_c X_c}``) instead of a global sparse
matrix apply.  Both are implemented here and benchmarked on identical
operators; the batched form wins for wavefunction blocks because of its
arithmetic intensity.  The cell-level side is the paper's kernel
(``_cellpath.CellPathKSOperator``), not the serial ``KSOperator``, whose
Kronecker-sum apply is timed alongside for context.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.assembly import KSOperator
from repro.fem.mesh import uniform_mesh

from _cellpath import CellPathKSOperator


@pytest.fixture(scope="module")
def operators():
    mesh = uniform_mesh((8.0,) * 3, (4, 4, 4), degree=4)
    op = CellPathKSOperator(mesh)
    rng = np.random.default_rng(0)
    v = rng.normal(size=mesh.nnodes) * 0.1
    op.set_potential(v)
    tensor = KSOperator(mesh)
    tensor.set_potential(v)
    H = sp.csr_matrix(op.matrix())
    X = rng.standard_normal((op.n, 64))
    return op, H, X, tensor


def test_cell_level_batched_apply(benchmark, operators):
    op, H, X, _ = operators
    Y = benchmark(op.apply, X)
    assert Y.shape == X.shape


def test_kronecker_sum_apply(benchmark, operators):
    op, H, X, tensor = operators
    Y = benchmark(tensor.apply, X)
    assert np.allclose(Y, H @ X, atol=1e-9)


def test_global_sparse_apply(benchmark, operators):
    op, H, X, _ = operators
    Y = benchmark(lambda: H @ X)
    assert Y.shape == X.shape


def test_both_paths_agree(operators, benchmark):
    op, H, X, _ = operators
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert np.allclose(op.apply(X), H @ X, atol=1e-9)


def test_sparse_matrix_density(operators, benchmark):
    """Context: the FE sparse operator is ~0.1-1% dense; cell matrices are
    small and dense — exactly the regime where batched GEMMs pay off."""
    op, H, X, _ = operators
    density = benchmark(lambda: H.nnz / (H.shape[0] * H.shape[1]))
    print(f"\n--- global sparse density {density:.2%}, "
          f"cell matrix {op.mesh.nodes_per_cell}^2 dense")
    assert density < 0.05
