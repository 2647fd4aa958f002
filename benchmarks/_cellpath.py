"""The paper's cell-level Löwdin Kohn-Sham apply, for the Sec 5.4.1 benchmarks.

The serial :class:`repro.fem.assembly.KSOperator` applies its kinetic term
as a Kronecker sum of 1D matrices.  The ablation and Fig-4 benchmarks time
the kernel the paper describes instead: lift the free-node block to all
nodes with ``D^{-1/2}``, gather onto cells, one batched cell GEMM, scatter
(:class:`repro.fem.assembly.CellStiffness`), restrict, scale and add the
diagonal potential.  The rank backends partition this same kernel.
"""

import numpy as np

from repro.fem.assembly import CellStiffness
from repro.fem.workspace import Workspace


class CellPathKSOperator:
    """``H~ = D^{-1/2} (K/2) D^{-1/2} + diag(v)`` through the cell kernel."""

    def __init__(self, mesh, kfrac=None, workspace=None):
        self.mesh = mesh
        self.stiff = CellStiffness(mesh, kfrac=kfrac)
        self.dtype = self.stiff.dtype
        self.workspace = workspace if workspace is not None else Workspace()
        self._dsf = 1.0 / np.sqrt(mesh.mass_diag[mesh.free])
        self._v_free = np.zeros(mesh.ndof, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.mesh.ndof

    def set_potential(self, v_full):
        self._v_free = np.ascontiguousarray(v_full[self.mesh.free])

    def apply(self, X, out=None):
        squeeze = X.ndim == 1
        Xb = X[:, None] if squeeze else X
        ws = self.workspace
        free = self.mesh.free
        ndof, B = Xb.shape
        rdt = np.result_type(self.dtype, Xb.dtype)
        # boundary rows of the expansion stay zero by invariant
        full = ws.get("cell_full", (self.mesh.nnodes, B), rdt, zero_on_create=True)
        full[free] = self._dsf[:, None] * Xb
        kx = self.stiff.apply_full(full, workspace=ws)
        y = 0.5 * self._dsf[:, None] * kx[free]
        y += self._v_free[:, None] * Xb
        if out is not None:
            out[...] = y[:, 0] if out.ndim == 1 else y
            return out
        return y[:, 0] if squeeze else y

    def matrix(self):
        return self.apply(np.eye(self.n, dtype=self.dtype))
