"""Block-diagonal inversion and the reduced stress-update solve.

Eliminating the velocity unknowns from the implicit midpoint update
leaves a symmetric positive definite system

    S = (1/dt + 1/2) A + (dt/4) B^T Cinv B

for the new stress coefficients.  The velocity mass matrix is block
diagonal by element, so Cinv is exact.  ``S`` is solved by sparse LU
factors, each built once, and every solve must end with normwise
backward error at most ``tol`` (``SchurSolver``).  Both terms are checked
before S is formed: each must be finite, and the stress-mass term must not
be lost in rounding against the coupling.

The LU first condenses the element-interior stress dofs (the two ``hmz``
bubbles of each element; ``nedelec-q1q0`` has none).  They couple only
within their element, in A and in B^T Cinv B, so numbered element by
element their block S_ii is block diagonal and inverted exactly, and only
the Schur complement S_c = S_oo - S_oi S_ii^-1 S_io of the remaining dofs
is factored, block by block.  On the uniform mesh of the unit square,
with one isotropic material, S commutes with the reflections x -> 1 - x
and y -> 1 - y and, since the mesh is N x N, with the diagonal reflection
(x, y) -> (y, x), each a signed permutation of the dofs (the stress
space's ``generators``); so does S_c.  Together they generate D4,
the symmetry group of the square, and a symmetry-adapted basis of signed
sums over orbits splits S_c exactly (Healey & Treacy, Int. J. Numer.
Meth. Eng., 1991; Bossavit, Comput. Methods Appl. Mech. Eng. 56, 1986;
Fässler & Stiefel, Group Theoretical Methods and Their Applications,
Birkhäuser, 1992), one block per irreducible representation, each built
as the ``symmetry.fold`` of a subgroup of D4 with a one-dimensional
character (``_blocks``), each factored once and solved with one column.
In the four of dimension one both mirrors act as m = +-1 and the diagonal
as d = +-1: four blocks of an eighth of S_c.  The fifth, E, is odd under
the rotation XY.  Without D in the run's group its halves are the mirror
sectors, even under x -> 1 - x and odd under y -> 1 - y and the reverse, a
quarter of S_c each; with D, the half a run reaches is where D acts as chi(D).
``build_schur`` first checks that A, B and Cinv, so S, commute with each
reflection, and names any matrix and reflection that do not: A and B where
their symmetry comes from, the one element matrix commuting with each
space's ``local_generators``, from which its ``generators`` are built
element by element, and Cinv by one product per reflection.  Each block
is ordered by geometric nested dissection at mesh lines and factored in
that order with diagonal pivots, which an SPD matrix allows; letting
SuperLU pivot off the diagonal instead can multiply the fill when dt is
large.  Smaller fronts leave less fill: at N = 256 the six blocks of the
whole ``hmz`` S at dt = 0.25 fill 19.3 M entries, E's mirror sectors 10.1 M
of them, a split by the mirrors alone 20.1 M and S_c in one piece 24.1 M.
SuperLU factors a panel of columns at a time (Demmel, Eisenstat, Gilbert,
Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999), and its panel work arrays,
about 15 bytes per row and column, are held while a block factors.  The
first factor sets a run's peak memory, so the panel is 4 columns
(``PANEL_SIZE``), not scipy's 20: the fill is the same and the factor no
slower, where one column factors slower at N = 512.

A run's data has a symmetry group G of its own (``symmetry.find_group``),
so S is folded to one dof per orbit of G (``symmetry.Fold``), P^T S P =
Lambda S[reps] P, formed from its rows at the representatives alone.  It
holds only the blocks of G's span: blocks 1 and 3 for example 1 of
``mms``, E's half even under the diagonal for example 2, and all three for
example 3.  The blocks fold the stress space's own dofs, their orbits named
in the (gx, gy) order that names G's (``symmetry.grid_rank``), so their
representatives are G's and those of the interior orbits are dropped.
S_c is never formed, and the first solve forms, factors and probes each
block (``CondensedLU``, which ``build_schur`` builds and a ``SchurSolver``
wraps).  A solve uses SuperLU's transposed path, which works by dot
products (gathers) instead of scattered updates and is the faster of the
two; it is refined once and checked against S, so a split that did not
hold would be refused, not returned.

The velocity mass C is not assembled: on the uniform mesh each of its
blocks is its element matrix, so ``block_diag_inverse`` inverts that one
block and tiles it (``block_diag_csr``).  The ``hmz`` bubble block S_ii is
read through COO into its dense blocks, its structure checked, and one
block is inverted when all are equal (``_diagonal_block_inverse``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import symmetry
from .symmetry import Fold, SymmetryGroup

__all__ = [
    "ConvergenceError",
    "SingularBlockError",
    "block_diag_csr",
    "block_diag_inverse",
    "nested_dissection",
    "CondensedLU",
    "SchurSolver",
    "build_schur",
    "check_symmetry",
]

log = logging.getLogger(__name__)

# Largest box that nested dissection leaves unsplit.  With 64 the fill on
# meshes of N <= 16 exceeds that of minimum degree on the full S.
ND_LEAF = 16

# Columns of a SuperLU panel.  While a block factors, SuperLU holds dense
# and integer work arrays of about 15 bytes per row and panel column.  On
# the one block of ``hmz`` example 2 at dt = 0.25 (49 408 rows at N = 256,
# 197 120 at N = 512) every width left the same fill, and each column cost
# 0.75 MB at N = 256: 4 columns raised the factor's high-water mark by 58
# MB, scipy's default of 20 by 70 MB (267 against 315 MB at N = 512).  4
# factored as fast as 20, in interleaved runs: 0.181 against 0.195 s at
# N = 256 (median of 8) and 1.07 against 1.04 s at N = 512 (best of 5),
# where 1 column was the slowest (1.21 s).
PANEL_SIZE = 4

# Residual the probe of each block accepts.  A sound factor leaves about
# u kappa on a random right-hand side, which may exceed a solve's ``tol``; a
# block singular to working precision leaves far more.
PROBE_TOL = float(np.sqrt(np.finfo(float).eps))

# Ulps of k max|M| by which P M x and M Q x may differ in
# ``check_symmetry``.  Both families at N <= 128 and two materials leave at
# most 0.35 for A, 0.75 for B and 0.67 for Cinv.
SYMMETRY_ULPS = 4


class ConvergenceError(RuntimeError):
    """A solve finished above its tolerance, by the ``measure`` it names."""

    def __init__(self, message, residual, measure):
        super().__init__(f"{message} ({measure} {residual:.3e})")
        self.residual = residual


class SingularBlockError(RuntimeError):
    """A diagonal block was numerically singular."""


def block_diag_csr(blocks: np.ndarray, count: int) -> sp.csr_matrix:
    """The matrix of ``count`` contiguous diagonal blocks (count, k, k), or of one
    (1, k, k) tiled, its nonzeros written straight into CSR arrays of scipy's index type."""
    k, tiles = blocks.shape[-1], count if len(blocks) == 1 else 1
    idx = np.int32 if count * k * k < 2**31 else np.int64
    b, r, c = (a.astype(idx) for a in np.nonzero(blocks))
    shift = np.arange(tiles, dtype=idx)[:, None]
    indptr = np.zeros(k * count + 1, dtype=idx)  # each row's end, past its tile's start
    indptr[1:].reshape(tiles, -1)[:] = len(b) * shift + np.cumsum(np.count_nonzero(blocks, axis=2))
    data, indices = np.tile(blocks[b, r, c], tiles), (k * shift + (k * b + c)).ravel()
    return sp.csr_matrix((data, indices, indptr), shape=(k * count, k * count))


def block_diag_inverse(blocks: np.ndarray, count: int) -> sp.csr_matrix:
    """Exact inverse of the block-diagonal matrix of ``count`` dense k x k
    blocks (count, k, k), or of one (1, k, k) tiled, written by
    ``block_diag_csr``, which stores no zero.

    A run inverts the velocity mass from its one element block.  Raises
    ``SingularBlockError`` if any block cannot be inverted.
    """
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"singular diagonal block: {err}") from err
    if not np.all(np.isfinite(inv)):
        raise SingularBlockError("diagonal block inversion produced non-finite entries")
    return block_diag_csr(inv, count)


def _diagonal_block_inverse(M: sp.spmatrix, k: int) -> sp.csr_matrix:
    """``block_diag_inverse`` of a sparse matrix with contiguous k x k diagonal
    blocks, read through COO into a dense (n / k, k, k) array: of one block
    when every block is the same.

    Raises ``ValueError`` if k does not divide the matrix or it has entries
    outside the diagonal blocks, and ``SingularBlockError`` if a block has
    no entry.
    """
    coo, (nb, rest) = M.tocoo(), divmod(M.shape[0], k)
    block = coo.row // k
    if rest or np.any(block != coo.col // k):
        raise ValueError(f"matrix has entries outside the contiguous diagonal blocks of {k}")
    zero = np.flatnonzero(np.bincount(block, minlength=nb) == 0)
    if zero.size:
        raise SingularBlockError(f"singular diagonal block: block {zero[0]} is zero")
    blocks = np.zeros((nb, k, k))
    blocks.reshape(-1)[k * coo.row + coo.col % k] = coo.data  # at (row // k, row % k, col % k)
    return block_diag_inverse(blocks[:1] if np.all(blocks == blocks[0]) else blocks, nb)


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


def _blocks(generators: dict, rank, fold: Fold) -> list:
    """The ``Fold`` of each D4 block that the span of ``fold``'s symmetric
    vectors holds: of X, Y and D (``generators``, by name) under a subgroup
    with a one-dimensional character, orbits named by ``rank``, and ``fold``
    itself for its own group.  The candidates are D4's four one-dimensional
    characters and E's halves: with D in the group the half where XY acts
    as -1 and D as chi(D), without it the two mirror sectors, odd under Y
    or under X.  A block is held if its character is the group's on the
    group; on a tiny mesh it may be empty."""
    chi = dict(fold.group.members())  # by index in MEMBERS: D is 4
    one_dim = [(("X", m), ("Y", m), ("D", d)) for m in (1, -1) for d in (1, -1)]
    e = [(("XY", -1), ("D", chi[4]))] if 4 in chi else [(("X", m), ("Y", -m)) for m in (1, -1)]
    out = []
    for g in map(SymmetryGroup, one_dim + e):
        members = dict(g.members())
        if chi.items() <= members.items():
            out.append(fold if members == chi else symmetry.fold(generators, g, rank))
    return out


class CondensedLU:
    """LU factors of S after static condensation and a split by its symmetries,
    each block factored by the first solve.

    S is folded by ``fold`` (``symmetry.Fold``), trivial if S is whole: P^T
    S P on the values at the representatives, solved for the right-hand side
    P^T b.  ``interior`` (n_elements, k) lists each element's interior dofs,
    which must couple in S with no other element's (``_diagonal_block_inverse``
    raises ``ValueError`` if they do); an element's interior representatives,
    1 to k of them, are one block of S_ii.  ``grid`` (n, 2) is the half-step
    grid point of every dof (see ``nested_dissection``).  ``blocks`` is
    ``_blocks`` of a space's ``generators`` (X, Y and D), rank and ``fold``
    (``build_schur``), one ``symmetry.Fold`` each; the generators must
    commute with S, keep the interior dofs interior and satisfy D4's
    relations.  Identity maps split nothing.  ``interior``, ``grid`` and
    ``blocks`` number every dof, folded or not.

    Each block is a fold of every dof under a subgroup of D4 whose character
    holds ``fold``'s, its orbits named after their dof first in (gx, gy)
    order (``symmetry.grid_rank``), as ``fold`` names its representatives:
    so a one-dimensional block is named in the triangle gx <= gy, not across
    the quarter, and its representatives are ``fold``'s.  Those of its outer
    orbits are kept, in ascending dof order, and a block with none, as on a
    tiny mesh, is dropped.  Each block's named dofs are ordered by nested
    dissection of their points, and its columns of the basis Q are its
    fold's ``Fold.P()``, read at the outer representatives alone, in that
    order.  S_c Q lies in the span of Q, and the block M = S_c[named] Q
    satisfies Q^T S_c Q = diag(n / Lambda_named) M, n the sum of Lambda over
    the vector's representatives, read from Q as |Q|^T Lambda.

    Set-up keeps ``S``, S_ii^-1, W = S_ii^-1 S_io and the stacked Q, with W^T
    and Q^T as CSC views.  ``solve`` condenses b to b_o - W^T b_i (S_ii is
    symmetric), gathers every block's right-hand side by one product with
    Q^T scaled by Lambda_named / n, solves each block with one column,
    scatters with Q and back-substitutes the interior dofs.  The first solve
    forms each block, its rows S[named][:, outer] - S[named][:, inner] W of
    S_c times its columns of Q, and factors and probes it (``_probe``).
    Each block keeps its own SuperLU factor: one factor of the block-diagonal
    of all blocks gives the same bits, but forms and factors them all at
    once, which raised ``hmz`` N = 512 peaks by 100 to 146 MB.
    ``L`` and ``U`` are the factors built so far, block-diagonal, built anew
    on each access; 0 x 0 if none.
    """

    def __init__(
        self, S: sp.csr_matrix, interior: np.ndarray, grid: np.ndarray, blocks: list, fold: Fold
    ):
        interior, grid = np.asarray(interior), np.asarray(grid)
        self.S, self.fold = S, fold
        at = np.full(len(grid), -1)
        at[fold.reps] = np.arange(S.shape[0])
        # The interior representatives, element by element, by their count.
        pos = at[interior]
        count = (pos >= 0).sum(axis=1)
        kinds = [(k, pos[count == k]) for k in range(interior.shape[1], 0, -1)]
        kinds = [(k, rows[rows >= 0]) for k, rows in kinds if rows.size]
        self.inner = np.concatenate([pos[:0].ravel()] + [dofs for _, dofs in kinds])
        self.outer = np.delete(np.arange(S.shape[0]), self.inner)
        rows_i = S[self.inner]
        inverses = [_diagonal_block_inverse(S[d][:, d], k) for k, d in kinds]
        inverses = inverses or [rows_i[:, self.inner]]
        self._Sii_inv = inverses[0] if len(inverses) == 1 else sp.block_diag(inverses, "csr")
        self._W = self._Sii_inv @ rows_i[:, self.outer]
        self._Wt = self._W.T
        del rows_i, inverses  # held while Q is built, they raise the run's peak
        # The split is found on every dof and kept at the outer representatives:
        # a block's are the run's, so row[rep] < 0 drops its interior orbits.
        dofs = fold.reps[self.outer]
        row = np.full(len(grid), -1)
        row[dofs] = np.arange(len(dofs))
        self._reps, self._parts, columns = [], [], []
        for f in blocks:
            kept = np.flatnonzero(row[f.reps] >= 0)
            if not kept.size:
                continue
            order = kept[nested_dissection(grid[f.reps[kept]])]
            start = self._parts[-1].stop if self._parts else 0
            columns.append(replace(f, index=f.index[dofs], sign=f.sign[dofs]).P()[:, order])
            self._reps.append(row[f.reps[order]])
            self._parts.append(slice(start, start + len(order)))
        self._Q = sp.hstack(columns, format="csr")
        self._Qt = self._Q.T
        sizes = fold.sizes[self.outer]
        self._inv_size = sizes[np.concatenate(self._reps)] / (abs(self._Q).T @ sizes)
        self._lus = [None] * len(self._reps)
        log.debug("split S (%d rows) into blocks of %s rows", S.shape[0], [*map(len, self._reps)])

    def _factor(self, k):
        """Form block k, S_c[named] Q, factor it and probe the factor.

        The block is S_c's rows at the named dofs times its columns of Q,
        one sparse product with its indices sorted, so ``splu`` finds nothing
        to sum and leaves its arrays as they are.  Its CSR arrays, read as
        CSC, are its transpose, so ``solve`` solves transposed.
        """
        start = time.perf_counter()
        rep, part = self._reps[k], self._parts[k]
        m = len(rep)
        try:
            block = self._rows(rep) @ self._Q[:, part]
            block.sort_indices()
            try:
                lu = _superlu(block.T)
            except RuntimeError as err:
                raise SingularBlockError(f"reduced matrix cannot be factored: {err}") from err
            _probe(lu, block)
        except MemoryError as err:  # from any step; SuperLU's has no message
            raise MemoryError(
                f"out of memory factoring block {k + 1} of {len(self._lus)} ({m} rows) "
                f"of the reduced stress matrix S ({self.S.shape[0]} rows)"
            ) from err
        self._lus[k] = lu
        # SuperLU's own count: reading ``lu.L`` or ``lu.U`` would copy the factor.
        log.debug(
            "factored block %d of %d: %d rows, SuperLU stores %d entries, %.3f s",
            k + 1, len(self._lus), m, lu.nnz, time.perf_counter() - start,
        )

    def _rows(self, rep):
        """The rows ``rep`` of S_c, S_oo - S_oi W, from S's rows at those outer dofs."""
        rows = self.S[self.outer[rep]]
        return rows[:, self.outer] - rows[:, self.inner] @ self._W

    def _stacked(self, name):
        factors = [getattr(lu, name) for lu in self._lus if lu is not None]
        return sp.block_diag(factors, format="csc") if factors else sp.csc_matrix((0, 0))

    @property
    def L(self) -> sp.csc_matrix:
        return self._stacked("L")

    @property
    def U(self) -> sp.csc_matrix:
        return self._stacked("U")

    def solve(self, b: np.ndarray) -> np.ndarray:
        b_i = b[self.inner]
        y = self._Sii_inv @ b_i
        g = self._Qt @ (b[self.outer] - self._Wt @ b_i)
        g *= self._inv_size
        for k, part in enumerate(self._parts):
            if self._lus[k] is None:
                self._factor(k)
            g[part] = self._lus[k].solve(g[part], trans="T")
        x_o = self._Q @ g
        y -= self._W @ x_o
        x = np.empty_like(b)  # made last: held through a block's factor, it raises the peak
        x[self.outer] = x_o
        x[self.inner] = y
        return x


def _superlu(M: sp.csc_matrix):
    """SuperLU's factor of M in its own column order, with diagonal pivots,
    which an SPD matrix allows, and panels of ``PANEL_SIZE`` columns: the
    one set of options every block is factored with."""
    return spla.splu(
        M,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        panel_size=PANEL_SIZE,
        options=dict(SymmetricMode=True),
    )


def _probe(lu, block):
    """Refuse the factor ``lu`` (transposed) of ``block`` if it solves a random
    right-hand side to no better than ``PROBE_TOL``.

    A matrix singular to working precision can factor without an exactly
    zero pivot, and then solves no generic right-hand side.  A sound factor
    meets the bound with its first solve, so the probe refines only when
    that misses it.
    """
    z = np.random.default_rng(0).standard_normal(block.shape[0])
    x = lu.solve(z, trans="T")
    r = z - block @ x
    if not np.linalg.norm(r) <= PROBE_TOL * np.linalg.norm(z):
        x += lu.solve(r, trans="T")
        r = z - block @ x
    res = np.linalg.norm(r) / np.linalg.norm(z)
    if not res <= PROBE_TOL:  # a NaN residual fails too
        err = ConvergenceError("solve finished above tolerance", res, "relative residual")
        raise SingularBlockError(f"reduced matrix cannot be factored: {err}") from err


class SchurSolver:
    """Prepared solver for the reduced stress system around its built factor
    ``lu``, a ``CondensedLU``, whose S it reads.

    Each solve is refined once and accepted if its normwise backward error

        eta = |r| / (|S| |x| + |b|),  r = b - S x,

    in the infinity norm, is at most ``tol`` (Rigal & Gaches, J. ACM 14,
    1967): x then solves a system within relative distance eta of S x = b.
    The vectors are the lifted ones, P the factor's ``fold``: for the folded
    residual r = P^T (b - S P x), |P r| = max|r / Lambda|, |P x| = max|x| and
    |P b| = max|rhs / Lambda|.  ``norm`` is |S|, the largest absolute row
    sum of S at the representatives, read before its columns are folded
    (``build_schur``).  ``worst`` is the largest eta of the solves so far.
    A factor that fails its probe raises ``SingularBlockError`` from the
    first solve.  ``dt`` records the time step S was formed for.
    """

    def __init__(self, lu: CondensedLU, tol: float, dt: float, norm: float):
        if not 0.0 < tol < 1.0:
            raise ValueError(f"relative tolerance must lie in (0, 1), got {tol}")
        self.S, self.tol, self.dt, self.norm, self._lu = lu.S, tol, dt, norm, lu
        self._weight = 1.0 / lu.fold.sizes
        self.worst = 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve S x = rhs to backward error at most ``tol``.

        A right-hand side with an entry that is not finite is refused with
        ``ValueError`` before any block is factored.  Any other is solved
        scaled by the power of two that brings its largest entry into
        [1/2, 1), so that neither x nor |S| |x| overflows or underflows.  The
        scaling is exact: 2^k rhs gives 2^k times the x of rhs, bit for bit,
        as long as neither holds subnormal numbers.
        """
        rhs = np.asarray(rhs, float)
        top = np.abs(rhs).max(initial=0.0)
        if not np.isfinite(top):
            raise ValueError("the right-hand side of the stress solve is not finite")
        if top == 0.0:
            return np.zeros_like(rhs)
        exponent = np.frexp(top)[1]
        rhs = np.ldexp(rhs, -exponent)
        x = self._lu.solve(rhs)
        # One step of iterative refinement keeps the residual at rounding level.
        x += self._lu.solve(rhs - self.S @ x)
        r = rhs - self.S @ x
        w = self._weight
        eta = np.abs(w * r).max() / (self.norm * np.abs(x).max() + np.abs(w * rhs).max())
        if not eta <= self.tol:  # a NaN fails too
            raise ConvergenceError("solve finished above tolerance", eta, "backward error")
        self.worst = max(self.worst, eta)
        return np.ldexp(x, exponent)


def build_schur(system, Cinv: sp.spmatrix, dt: float, tol: float) -> SchurSolver:
    """Form S = (1/dt + 1/2) A + (dt/4) B^T Cinv B, folded, build its
    ``CondensedLU`` and wrap it in a ``SchurSolver``.

    ``system`` is the ``AssembledSystem``; its stress space gives the
    element-interior dofs, element by element, the half-step grid point of
    every dof and the ``fold``.  ``Cinv`` is the inverse of its velocity
    mass.  Only the rows of S at the representatives are formed, from A and
    B at the rows they read (``AssembledSystem.at_rows``), so S is not
    checked against the reflections: A and B are, on their element matrices
    with each space's ``local_generators``, from which its ``generators``
    are built, and Cinv with the velocity ``generators`` (``check_symmetry``).
    Every group takes one path, the trivial one with P the identity; a stress
    fold with no dof is refused by name, before anything is reduced.
    """
    if not dt > 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    space, vspace = system.stress_space, system.velocity_space
    if Cinv.shape != (vspace.dim, vspace.dim):
        raise ValueError(f"Cinv{Cinv.shape} does not match B{(vspace.dim, space.dim)}")
    # Split first, so the generators and the rank die before S's terms are formed.
    blocks, fold = _blocks(*space.symmetries()), space.fold
    if not len(fold.reps):
        raise ValueError(f"the stress fold of {fold.group} at N = {space.mesh.n} has no dof")
    _check_symmetries(system, Cinv)
    A, B = system.at_rows
    # A tiny dt or a huge dt / rho overflows a term, and a stiff material
    # loses the stress-mass term in rounding; both are named here, before S
    # is factored, from the diagonals at the representatives, which are
    # equal on each orbit.  With A SPD, S is SPD in exact arithmetic.  The
    # terms die before the factorization, which sets the peak memory.
    with np.errstate(over="ignore"):
        mass = (1.0 / dt + 0.5) * A[fold.reps]
        # In CSR, with the rows of B^T Cinv sorted, each entry is summed in
        # the order the CSC product of B.T sums it, so the bits are the same,
        # and B and Cinv need no conversion to CSC.  Sorted rows of the
        # coupling keep the order of S's entries, which the factor's bits
        # depend on.
        BtCinv = B.T[fold.reps].tocsr() @ Cinv
        BtCinv.sort_indices()
        coupling = (0.25 * dt) * (BtCinv @ B)
        coupling.sort_indices()
        del BtCinv
    mass_max, coupling_max = (M[np.arange(M.shape[0]), fold.reps].max() for M in (mass, coupling))
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
    norm = np.add.reduceat(np.abs(S.data), S.indptr[:-1]).max()  # no row at a rep is empty
    S = S @ fold.P()
    S.data *= np.repeat(fold.sizes, np.diff(S.indptr))
    log.debug("formed S at %d of %d rows: %d entries", len(fold.reps), len(fold.index), S.nnz)
    return SchurSolver(CondensedLU(S, space.interior, space.grid, blocks, fold), tol, dt, norm)


def _check_symmetries(system, Cinv) -> None:
    """``check_symmetry`` of A and B, on their element matrices with each
    space's ``local_generators``, and of Cinv, with the velocity generators,
    which die here: held on, they would sit under the matrices set-up makes
    next and leave a hole in the heap that the first factor does not fill."""
    gv = system.velocity_space.symmetries()[0]
    ls, lv = system.stress_space.local_generators, system.velocity_space.local_generators
    A, B, _ = system.elements
    for name, M, rows, cols in ("A", A, ls, ls), ("B", B, lv, ls), ("Cinv", Cinv, gv, gv):
        check_symmetry(M, rows, cols, name)


def check_symmetry(M, generators: dict, cols: dict, name: str) -> None:
    """Refuse the matrix ``M`` (sparse or dense), named ``name``, unless
    P M = M Q for each signed permutation ``(p, s)`` by name, P of
    ``generators`` on its rows and Q of ``cols`` on its columns.

    The split of ``CondensedLU`` is exact only then.  For one random x in
    [0, 1)^n, P M x and M Q x, with (P x)_i = s_i x_p(i), may differ only by
    the rounding of the products, a few ulps of k max|M|, k the longest row
    of M; a system that breaks the symmetry leaves far more.  An element
    matrix with each space's ``local_generators`` stands for every element,
    as each space's ``generators`` are built from them (``fespace``).
    """
    M = sp.csr_matrix(M)
    x = np.random.default_rng(0).random(M.shape[1])
    Mx = M @ x
    size = np.diff(M.indptr).max() * max(M.data.max(initial=0.0), -M.data.min(initial=0.0))
    for (g, (p, s)), (q, t) in zip(generators.items(), cols.values()):
        gap = np.abs(s * Mx[p] - M @ (t * x[q])).max()
        if not gap <= SYMMETRY_ULPS * np.finfo(float).eps * size:
            raise ValueError(
                f"{name} does not commute with the reflection {g} (gap {gap / size:.3g} "
                f"of k max|{name}|): the assembled system breaks that symmetry"
            )
