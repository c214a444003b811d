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
is factored.  On the uniform mesh of the unit square, with one isotropic
material, S commutes with the reflections x -> 1 - x and y -> 1 - y, each
a signed permutation of the dofs, and so does S_c.  A basis of signed
sums over the orbits of the two mirrors splits S_c exactly into four
independent sectors of about a quarter of its size (a symmetry-adapted
basis; Healey & Treacy, Int. J. Numer. Meth. Eng., 1991).  Each sector
is gathered from rows of S_c, ordered by geometric nested dissection at
mesh lines and factored in that order with diagonal pivots, which an SPD
matrix allows; letting SuperLU pivot off the diagonal instead can
multiply the fill when dt is large.  Smaller fronts leave less fill: at
N = 256 the four sectors of ``hmz`` at dt = 0.25 fill 20.1 M entries, S_c
in one piece 24.1 M.  A solve uses SuperLU's transposed path, which works
by dot products (gathers) instead of scattered updates and is the faster
of the two; the refinement step and the residual check against the full
S are unchanged, so a split that did not hold would be refused, not
returned.
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
    nb = n // block_size
    bsr = sp.bsr_matrix(C, blocksize=(block_size, block_size))
    if np.any(bsr.indices != np.repeat(np.arange(nb), np.diff(bsr.indptr))):
        raise ValueError("matrix has entries outside the contiguous diagonal blocks")
    if len(bsr.indices) < nb:  # a block with no entry is absent
        zero = np.flatnonzero(np.diff(bsr.indptr) == 0)[0]
        raise SingularBlockError(f"singular diagonal block: block {zero} is zero")
    try:
        inv = np.linalg.inv(bsr.data)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"singular diagonal block: {err}") from err
    if not np.all(np.isfinite(inv)):
        raise SingularBlockError("diagonal block inversion produced non-finite entries")
    out = sp.bsr_matrix((inv, bsr.indices, bsr.indptr), shape=(n, n)).tocsr()
    out.eliminate_zeros()
    return out


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


def _halves(p, s):
    """The even and odd halves of a signed involution on m indices.

    The involution maps e_a to s_a e_p(a), with p(p(a)) = a and s_p(a) = s_a.
    Its even half has the basis vectors e_a + s_a e_p(a), its odd half
    e_a - s_a e_p(a), one per pair a < p(a); a fixed point a = p(a) is a
    vector of the even half if s_a = 1 and of the odd half if s_a = -1.
    Returns, for each half, ``(col, coef, rep)``: the basis vector that
    holds index a (-1 if none), a's coefficient in it, and for each vector
    its first index, whose coefficient is 1.
    """
    a = np.arange(len(p))
    out = []
    for sign in (1.0, -1.0):
        rep = np.flatnonzero((a < p) | ((a == p) & (s == sign)))
        col = np.full(len(p), -1)
        coef = np.zeros(len(p))
        col[rep] = col[p[rep]] = np.arange(len(rep))
        coef[rep] = 1.0
        coef[p[rep]] = sign * s[rep]
        out.append((col, coef, rep))
    return out


def _sectors(n, mirrors):
    """Split n indices by signed involutions that commute with each other.

    Each involution ``(p, s)`` halves every sector so far (see ``_halves``)
    in that sector's basis, so k of them leave 2^k sectors.  A sector is
    ``(col, coef, rep)``: the basis vector that holds each index (-1 if
    none), the index's coefficient there (+-1, or 0 if none), and for each
    vector the index it is named after, whose coefficient is 1.  Each
    vector is a signed sum over one orbit of the involutions.
    """
    sectors = [(np.arange(n), np.ones(n), np.arange(n))]
    for p, s in mirrors:
        halved = []
        for col, coef, rep in sectors:
            # The involution takes the vector named after r to s_r coef[p(r)]
            # times the vector that holds p(r).
            q = p[rep]
            held = col >= 0
            for col2, coef2, rep2 in _halves(col[q], s[rep] * coef[q]):
                col_h = np.full(n, -1)
                col_h[held] = col2[col[held]]
                halved.append((col_h, coef * coef2[col], rep[rep2]))
        sectors = halved
    return sectors


class CondensedLU:
    """LU factors of S after static condensation and a split by its mirrors.

    ``interior`` (n_elements, k) lists each element's interior dofs, which
    must couple in S with no other element's; ``block_diag_inverse`` raises
    ``ValueError`` if they do.  ``grid`` (n, 2) is the half-step grid point
    of every dof (see ``nested_dissection``).  ``mirrors`` holds signed dof
    permutations ``(p, s)`` (see ``fespace.StressSpace.mirrors``) that
    commute with S and with each other and keep the interior dofs interior;
    ``()`` splits nothing.

    The condensed matrix S_c is split into sectors by ``_sectors``.  A
    sector's basis Q holds a signed sum over each orbit of the mirrors that
    the sector has a vector for, named after the orbit's first dof.  S_c
    commutes with the mirrors, so S_c Q lies in the span of Q, and the
    sector matrix M = S_c[named] Q, the rows of S_c at the named dofs with
    their columns summed by Q, satisfies Q^T S_c Q = diag(|orbit|) M.  Each
    M is ordered by nested dissection of the named dofs' points, gathered
    and factored in turn; S_c is freed before the last factorization.
    ``solve`` takes and returns full-length vectors: it condenses the
    right-hand side, gathers every sector's right-hand side with one
    product with the stacked Q^T, scaled by 1/|orbit|, solves each sector,
    scatters the result with one product with Q, then back-substitutes the
    interior dofs.  ``L`` and ``U`` are the factors block-diagonal over the
    sectors, built anew on each access.
    """

    def __init__(
        self, S: sp.csr_matrix, interior: np.ndarray, grid: np.ndarray, mirrors: tuple
    ):
        interior = np.asarray(interior)
        self.inner = interior.ravel()
        keep = np.ones(S.shape[0], dtype=bool)
        keep[self.inner] = False
        self.outer = np.flatnonzero(keep)
        S_c = self._condense(S, interior.shape[1])
        n = len(self.outer)
        at = np.full(S.shape[0], -1)
        at[self.outer] = np.arange(n)
        mirrors = [(at[p[self.outer]], s[self.outer]) for p, s in mirrors]
        grid = np.asarray(grid)[self.outer]
        sectors, self._parts = [], []
        for col, coef, rep in _sectors(n, mirrors):
            order = nested_dissection(grid[rep])
            rank = np.empty(len(order), dtype=np.int32)
            rank[order] = np.arange(len(order), dtype=np.int32)
            start = self._parts[-1].stop if self._parts else 0
            self._parts.append(slice(start, start + len(rep)))
            sectors.append((rep[order], np.where(col >= 0, rank[col], -1).astype(np.int32), coef))
        self._Q, self._inv_size = self._basis(n, sectors, self._parts)
        # Each sector is gathered just before its factorization, and S_c is
        # freed before the last one: gathering all four first leaves more
        # freed memory with the process, and the run's peak rises.
        self._lus = []
        while sectors:
            block = self._sector(S_c, *sectors.pop(0))
            if not sectors:
                del S_c
            self._lus.append(self._factor(*block))
            del block

    @staticmethod
    def _basis(n, sectors, parts):
        """The stacked basis Q and 1 / |orbit| for each of its vectors."""
        held, vec, coef = [], [], []
        for (_, col, c), part in zip(sectors, parts):
            h = np.flatnonzero(col >= 0)
            held.append(h)
            vec.append(part.start + col[h])
            coef.append(c[h])
        held, vec, coef = map(np.concatenate, (held, vec, coef))
        return sp.csr_matrix((coef, (held, vec)), shape=(n, n)), 1.0 / np.bincount(vec, minlength=n)

    @staticmethod
    def _factor(data, indices, indptr):
        """Factor the sector whose CSR arrays these are; read as CSC they are
        its transpose, so ``solve`` solves transposed."""
        m = len(indptr) - 1
        try:
            return spla.splu(
                sp.csc_matrix((data, indices, indptr), shape=(m, m)),
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as err:
            raise SingularBlockError(f"reduced matrix cannot be factored: {err}") from err

    def _condense(self, S, k):
        """Keep S_ii^-1, S_oi and W = S_ii^-1 S_io; return S_c = S_oo - S_oi W.

        The row slices of S die on return, before any factorization.
        """
        rows_o, rows_i = S[self.outer], S[self.inner]
        S_ii = rows_i[:, self.inner]
        self._Sii_inv = block_diag_inverse(S_ii, k) if k else S_ii
        self._S_oi = rows_o[:, self.inner]
        self._W = self._Sii_inv @ rows_i[:, self.outer]
        return rows_o[:, self.outer] - self._S_oi @ self._W

    @staticmethod
    def _sector(S_c, rep, col, coef):
        """CSR arrays of S_c[rep] Q, with Q's column ``col[k]`` holding index k
        with coefficient ``coef[k]``, duplicates not yet summed."""
        rows = S_c[rep]
        j = col[rows.indices]
        kept = j >= 0
        data = (rows.data * coef[rows.indices])[kept]
        indptr = np.concatenate([[0], np.cumsum(kept, dtype=np.int32)])[rows.indptr]
        return data, j[kept], indptr

    @property
    def L(self) -> sp.csc_matrix:
        return sp.block_diag([lu.L for lu in self._lus], format="csc")

    @property
    def U(self) -> sp.csc_matrix:
        return sp.block_diag([lu.U for lu in self._lus], format="csc")

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._Sii_inv @ b[self.inner]
        b_o = b[self.outer]
        b_o -= self._S_oi @ y
        g = self._Q.T @ b_o
        g *= self._inv_size
        for lu, part in zip(self._lus, self._parts):
            g[part] = lu.solve(g[part], trans="T")
        x_o = self._Q @ g
        y -= self._W @ x_o
        x = np.empty_like(b)
        x[self.outer] = x_o
        x[self.inner] = y
        return x


class SchurSolver:
    """Prepared solver for the reduced stress system: S factored as a
    ``CondensedLU`` with the element-interior dofs ``interior``, the
    half-step grid points ``grid`` and the ``mirrors`` that split it."""

    def __init__(
        self, S: sp.csr_matrix, tol: float, interior: np.ndarray, grid: np.ndarray, mirrors: tuple
    ):
        if not 0.0 < tol < 1.0:
            raise ValueError(f"relative tolerance must lie in (0, 1), got {tol}")
        self.S = S
        self.tol = tol
        self._lu = CondensedLU(S, interior, grid, mirrors)
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
    return SchurSolver(sp.csr_matrix(S), tol, space.interior, space.grid, space.mirrors)
