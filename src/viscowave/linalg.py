"""Block-diagonal inversion and the reduced stress-update solve.

Eliminating the velocity unknowns from the implicit midpoint update
leaves a symmetric positive definite system

    S = (1/dt + 1/2) A + (dt/4) B^T Cinv B

for the new stress coefficients.  The velocity mass matrix is block
diagonal by element, so Cinv is exact.  ``S`` is factored once by a
sparse LU, and every solve must end with relative residual at most
``tol``.  Both terms are checked before the factorization: each must be
finite, and the stress-mass term must not be lost in rounding against
the coupling.

The LU first condenses the element-interior stress dofs (the two ``hmz``
bubbles of each element; ``nedelec-q1q0`` has none).  They couple only
within their element, in A and in B^T Cinv B, so numbered element by
element their block S_ii is block diagonal and inverted exactly, and only
the Schur complement S_c = S_oo - S_oi S_ii^-1 S_io of the remaining dofs
is factored.  Those are ordered by geometric nested dissection at mesh
lines and factored in that order with diagonal pivots, which an SPD
matrix allows; letting SuperLU pivot off the diagonal instead can
multiply the fill when dt is large.  S_c is symmetric, so a solve uses
SuperLU's transposed path, which works by dot products (gathers) instead
of scattered updates and is the faster of the two; the refinement step
and the residual check against the full S are unchanged.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ConvergenceError",
    "SingularBlockError",
    "block_diag_inverse",
    "nested_dissection",
    "CondensedLU",
    "SchurSolver",
    "build_schur",
]

# Largest box that nested dissection leaves unsplit.  With 64 the fill on
# meshes of N <= 16 exceeds that of minimum degree on the full S.
ND_LEAF = 16

# Residual the set-up probe accepts when ``tol`` is tighter.  A sound factor
# leaves about u kappa(S) on a random right-hand side, which exceeds 1e-12 for
# ``hmz`` at dt = 0.25 from some N between 256 and 384 on; a matrix singular
# to working precision leaves far more.
PROBE_TOL = float(np.sqrt(np.finfo(float).eps))


class ConvergenceError(RuntimeError):
    """A solve finished above its residual tolerance."""

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


def nested_dissection(grid: np.ndarray) -> np.ndarray:
    """Nested-dissection order of dofs from their points on the half-step grid.

    ``grid`` (n, 2) holds the integer coordinates 2 x / h of each
    dof's point, so the mesh lines are the even coordinates.  Each box of
    more than ``ND_LEAF`` dofs is split along its longer side (the other one
    if the longer has no interior mesh line) at the even coordinate nearest
    its middle.  Elements on either side share only the dofs on that line,
    the separator, so the order is left box, right box, separator.  Dofs of
    a leaf, and of a separator, keep their relative order.  Returns the
    permutation ``p`` with ``p[k]`` the dof placed k-th.

    The tree is walked one level at a time: each dof's path from the root
    is kept as base-3 digits (left 0, right 1, separator 2) of an integer
    key, and a dof that stops descending is padded with zeros.  The paths
    of finished dofs are prefixes of no other path, so sorting the keys
    lists every left subtree before its right subtree and its separator.
    """
    grid = np.asarray(grid, dtype=np.int64)
    # One base-3 digit per level: 39 levels fit, far more than any mesh
    # that fits in memory needs.
    key = np.zeros(len(grid), dtype=np.int64)
    live = np.arange(len(grid))  # dofs still being split
    box = np.zeros(len(grid), dtype=np.intp)  # the box of each live dof
    lo = grid.min(axis=0, keepdims=True)  # inclusive bounds of each box
    hi = grid.max(axis=0, keepdims=True)
    while live.size:
        rows = np.arange(len(lo))
        mid = 2 * ((lo + hi + 2) // 4)
        can = (lo < mid) & (mid < hi)
        # The longer side if it can be cut, else the other one.
        longer_y = (hi - lo)[:, 1] > (hi - lo)[:, 0]
        axis = ((longer_y & can[:, 1]) | ~can[:, 0]).astype(np.intp)
        cut = mid[rows, axis]
        split = can[rows, axis] & (np.bincount(box, minlength=len(lo)) > ND_LEAF)
        coord = grid[live, axis[box]]
        side = np.where(coord < cut[box], 0, np.where(coord > cut[box], 1, 2))
        side[~split[box]] = 0
        key *= 3
        key[live] += side
        # Children of split box s are boxes 2 r and 2 r + 1, r its rank.
        s = np.flatnonzero(split)
        lo = np.repeat(lo[s], 2, axis=0)
        hi = np.repeat(hi[s], 2, axis=0)
        hi[0::2][np.arange(s.size), axis[s]] = cut[s] - 1
        lo[1::2][np.arange(s.size), axis[s]] = cut[s] + 1
        go = split[box] & (side < 2)
        live = live[go]
        box = 2 * (np.cumsum(split) - 1)[box[go]] + side[go]
    return np.argsort(key, kind="stable")


class CondensedLU:
    """LU factors of S after static condensation of the element-interior dofs.

    ``interior`` (n_elements, k) lists each element's interior dofs, which
    must couple in S with no other element's; ``block_diag_inverse`` raises
    ``ValueError`` if they do.  ``grid`` (n, 2) is the half-step grid point
    of every dof (see ``nested_dissection``).  ``solve`` takes and returns
    full-length vectors: it condenses the right-hand side, solves with S_c
    (transposed, which for a symmetric S_c is the same system), then
    back-substitutes the interior dofs.  ``L`` and ``U`` are the
    factors of S_c in nested-dissection order, built anew on each access.
    """

    def __init__(self, S: sp.csr_matrix, interior: np.ndarray, grid: np.ndarray):
        interior = np.asarray(interior)
        self.inner = interior.ravel()
        keep = np.ones(S.shape[0], dtype=bool)
        keep[self.inner] = False
        outer = np.flatnonzero(keep)
        self.outer = outer[nested_dissection(np.asarray(grid)[outer])]
        S_c = self._condense(S, interior.shape[1])
        try:
            self._lu = spla.splu(
                S_c,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as err:
            raise SingularBlockError(f"reduced matrix cannot be factored: {err}") from err

    def _condense(self, S, k):
        """Keep S_ii^-1, S_oi and W = S_ii^-1 S_io; return S_c = S_oo - S_oi W.

        The row slices of S die on return, before the factorization, which
        sets the peak memory.
        """
        rows_o, rows_i = S[self.outer], S[self.inner]
        S_ii = rows_i[:, self.inner]
        self._Sii_inv = block_diag_inverse(S_ii, k) if k else S_ii
        self._S_oi = rows_o[:, self.inner]
        self._W = self._Sii_inv @ rows_i[:, self.outer]
        return (rows_o[:, self.outer] - self._S_oi @ self._W).tocsc()

    @property
    def L(self) -> sp.csc_matrix:
        return self._lu.L

    @property
    def U(self) -> sp.csc_matrix:
        return self._lu.U

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._Sii_inv @ b[self.inner]
        b_o = b[self.outer]
        b_o -= self._S_oi @ y
        x_o = self._lu.solve(b_o, trans="T")
        y -= self._W @ x_o
        x = np.empty_like(b)
        x[self.outer] = x_o
        x[self.inner] = y
        return x


class SchurSolver:
    """Prepared solver for the reduced stress system: S factored as a
    ``CondensedLU`` with the element-interior dofs ``interior`` and the
    half-step grid points ``grid``."""

    def __init__(self, S: sp.csr_matrix, tol: float, interior: np.ndarray, grid: np.ndarray):
        if not 0.0 < tol < 1.0:
            raise ValueError(f"relative tolerance must lie in (0, 1), got {tol}")
        self.S = S
        self.tol = tol
        self._lu = CondensedLU(S, interior, grid)
        # A matrix singular to working precision can factor without an
        # exactly zero pivot; its factor then solves no generic right-hand
        # side to ``max(tol, PROBE_TOL)``, which one solve here checks.
        try:
            self._solve(np.random.default_rng(0).standard_normal(S.shape[0]), max(tol, PROBE_TOL))
        except ConvergenceError as err:
            raise SingularBlockError(f"reduced matrix cannot be factored: {err}") from err

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve S x = rhs to relative residual at most ``tol``."""
        return self._solve(rhs, self.tol)

    def _solve(self, rhs, tol):
        rhs = np.asarray(rhs, float)
        norm_rhs = np.linalg.norm(rhs)
        if norm_rhs == 0.0:
            return np.zeros_like(rhs)
        x = self._lu.solve(rhs)
        # One step of iterative refinement keeps the residual at rounding level.
        x += self._lu.solve(rhs - self.S @ x)
        res = np.linalg.norm(rhs - self.S @ x) / norm_rhs
        if not res <= tol:  # a NaN residual fails too
            raise ConvergenceError("solve finished above tolerance", res)
        return x


def build_schur(system, Cinv: sp.spmatrix, dt: float, tol: float) -> SchurSolver:
    """Form S = (1/dt + 1/2) A + (dt/4) B^T Cinv B and prepare its solver.

    ``system`` is the ``AssembledSystem`` of A and B; its stress space gives
    the element-interior dofs, element by element, and the half-step grid
    point of every dof.  ``Cinv`` is the inverse of its velocity mass.
    """
    if not dt > 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    A, B, space = system.A, system.B, system.stress_space
    if Cinv.shape != (B.shape[0], B.shape[0]):
        raise ValueError(f"Cinv{Cinv.shape} does not match B{B.shape}")
    # A tiny dt or a huge dt / rho overflows a term, and a stiff material
    # loses the stress-mass term in rounding; both are named here, before S
    # is factored.  With A SPD, S is SPD in exact arithmetic.  The terms die
    # before the factorization, which sets the peak memory.
    with np.errstate(over="ignore"):
        mass = (1.0 / dt + 0.5) * A
        coupling = (0.25 * dt) * (B.T @ Cinv @ B)
    mass_max, coupling_max = mass.diagonal().max(), coupling.diagonal().max()
    if not np.isfinite(mass_max):
        raise SingularBlockError(
            f"the stress-mass term (1/dt + 1/2) A overflows (dt = {dt:.3g}): "
            "take a larger dt or a stiffer material"
        )
    if not np.isfinite(coupling_max):
        raise SingularBlockError(
            f"the coupling term (dt/4) B^T Cinv B overflows (dt = {dt:.3g}): "
            "take a smaller dt or a denser material"
        )
    # The ratio is formed only below machine epsilon, so it cannot overflow.
    if mass_max < np.finfo(float).eps * coupling_max:
        raise SingularBlockError(
            f"the largest diagonal of the stress-mass term (1/dt + 1/2) A is "
            f"{mass_max / coupling_max:.3g} times that of (dt/4) B^T Cinv B, so the "
            "stress-mass term is lost in rounding: take a smaller dt or a less stiff material"
        )
    S = mass + coupling
    del mass, coupling
    return SchurSolver(sp.csr_matrix(S), tol, space.interior, space.grid)
