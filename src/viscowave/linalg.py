"""Block-diagonal inversion and the reduced stress-update solve.

Eliminating the velocity unknowns from the implicit midpoint update
leaves a symmetric positive definite system

    S = (1/dt + 1/2) A + (dt/4) B^T Cinv B

for the new stress coefficients.  The velocity mass matrix is block
diagonal by element, so Cinv is exact.  ``S`` can be solved either by a
factor-once sparse LU (default) or by Jacobi-preconditioned conjugate
gradients; both must end with relative residual at most ``tol``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ConvergenceError",
    "SingularBlockError",
    "block_diag_inverse",
    "build_schur",
    "SchurSolver",
]


class ConvergenceError(RuntimeError):
    """An iterative solve stopped above its residual tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


class SingularBlockError(RuntimeError):
    """A diagonal block was numerically singular."""


def block_diag_inverse(C: sp.spmatrix, block_size: int) -> sp.csr_matrix:
    """Exact inverse of a block-diagonal matrix with contiguous square blocks.

    Raises ``ValueError`` if the matrix has entries outside the diagonal
    blocks and ``SingularBlockError`` if any block cannot be inverted.
    """
    n = C.shape[0]
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"matrix is not square: {C.shape}")
    if block_size < 1 or n % block_size:
        raise ValueError(f"dimension {n} is not a multiple of block size {block_size}")
    coo = sp.coo_matrix(C)
    br = coo.row // block_size
    if np.any(br != coo.col // block_size):
        raise ValueError("matrix has entries outside the contiguous diagonal blocks")
    nb = n // block_size
    blocks = np.zeros((nb, block_size, block_size))
    np.add.at(blocks, (br, coo.row % block_size, coo.col % block_size), coo.data)
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"singular diagonal block: {err}") from err
    if not np.all(np.isfinite(inv)):
        raise SingularBlockError("diagonal block inversion produced non-finite entries")
    indptr = np.arange(nb + 1)
    return sp.bsr_matrix((inv, np.arange(nb), indptr), shape=(n, n)).tocsr()


class SchurSolver:
    """Prepared solver for the reduced stress system."""

    def __init__(self, S: sp.csr_matrix, method: str, tol: float):
        if method not in ("direct", "cg"):
            raise ValueError(f"unknown solve method {method!r}")
        if not 0.0 < tol < 1.0:
            raise ValueError(f"relative tolerance must lie in (0, 1), got {tol}")
        self.S = S
        self.method = method
        self.tol = tol
        if method == "direct":
            try:
                self._lu = spla.splu(S.tocsc(), permc_spec="COLAMD")
            except RuntimeError as err:
                raise SingularBlockError(f"reduced matrix cannot be factored: {err}") from err
            self._precond = None
        else:
            d = S.diagonal()
            if np.any(d <= 0.0):
                raise SingularBlockError("nonpositive diagonal in reduced matrix")
            self._lu = None
            self._precond = sp.diags(1.0 / d)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve S x = rhs to relative residual at most ``tol``."""
        rhs = np.asarray(rhs, float)
        norm_rhs = np.linalg.norm(rhs)
        if norm_rhs == 0.0:
            return np.zeros_like(rhs)
        if self.method == "direct":
            x = self._lu.solve(rhs)
            # One step of iterative refinement keeps the residual at rounding level.
            x += self._lu.solve(rhs - self.S @ x)
        else:
            maxiter = 5 * self.S.shape[0]
            x, info = spla.cg(
                self.S,
                rhs,
                rtol=self.tol,
                atol=0.0,
                M=self._precond,
                maxiter=maxiter,
            )
            if info > 0:
                res = np.linalg.norm(rhs - self.S @ x) / norm_rhs
                raise ConvergenceError(
                    f"conjugate gradients did not converge in {maxiter} iterations", res
                )
        res = np.linalg.norm(rhs - self.S @ x) / norm_rhs
        if res > self.tol:
            raise ConvergenceError("solve finished above tolerance", res)
        return x


def build_schur(
    A: sp.spmatrix,
    B: sp.spmatrix,
    Cinv: sp.spmatrix,
    dt: float,
    method: str,
    tol: float,
) -> SchurSolver:
    """Form S = (1/dt + 1/2) A + (dt/4) B^T Cinv B and prepare its solver."""
    if not dt > 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    r = A.shape[0]
    if A.shape != (r, r) or B.shape[1] != r or Cinv.shape != (B.shape[0], B.shape[0]):
        raise ValueError(
            f"inconsistent shapes A{A.shape}, B{B.shape}, Cinv{Cinv.shape}"
        )
    S = (1.0 / dt + 0.5) * A + (0.25 * dt) * (B.T @ Cinv @ B)
    return SchurSolver(sp.csr_matrix(S), method, tol)
