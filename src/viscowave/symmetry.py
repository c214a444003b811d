"""The reflections that a run's fields share, found once per run from the fields.

The composite rule (``quadrature.COMPOSITE``) splits each element along its
lower-left to upper-right diagonal.  Two reflections of the unit square map
that rule on every element onto the rule on an element: the rotation by pi,
XY, (x, y) -> (1 - x, 1 - y), and the diagonal reflection D,
(x, y) -> (y, x).  The mirrors X and Y alone map the diagonal onto the
other one, so they are left out: the rule they move is not the rule.

A vector field u is symmetric under a reflection R with character
chi = +-1 when R u(R x) = chi u(x), and a tensor field sigma when
R sigma(R x) R^T = chi sigma(x), R acting about the centre of the square.
``find_group`` probes a run's fields at a few points; the reflections that
all of them satisfy with one character form a ``SymmetryGroup``.  Discrete
fields made from such data share its symmetry, so an integrand formed from
them has the same integral on every element of an orbit, and each integral
needs one element per orbit (``mesh.StructuredMesh.orbits``).

D4 is declared here alone: its members (``MEMBERS``), a group's
reflections (``reflections``) and members (``images``) as signed
permutations, composed only here, into the folds (``fold``, one per group)
of the elements (the mesh's orbits), the dofs and the stress solve's
blocks.  Every fold names an orbit after its first member in (gx, gy)
order: stress dofs by ``grid_rank``, elements and velocity dofs by the
mesh's ``rank``, so velocity representatives sit on stress ones' elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

__all__ = [
    "X", "Y", "D", "MEMBERS", "REFLECTIONS", "RULE_REFLECTIONS", "SymmetryGroup", "TRIVIAL",
    "Fold", "find_group", "fold", "folded", "grid_rank", "images", "matrix", "reflections",
]

# The generators of the square's group, D4, named as in the spaces'
# ``generators``, and each one's matrix about the centre of the square.
X, Y, D = "x -> 1 - x", "y -> 1 - y", "(x, y) -> (y, x)"
_MATRICES = {X: np.diag([-1, 1]), Y: np.diag([1, -1]), D: np.array([[0, 1], [1, 0]])}
# D4's eight members as words in the generators, which act in turn, in the
# order that doubling over X, Y and D gives: e, X, Y, XY, D, XD, YD, XYD.
# The first 2^k are the subgroup of the first k generators; ``images``
# lists theirs in this order.
MEMBERS = ((), (X,), (Y,), (X, Y), (D,), (X, D), (Y, D), (X, Y, D))
# Reflections as words in the generators: those that keep the composite rule, and all.
RULE_REFLECTIONS = {"XY": (X, Y), "D": (D,)}
REFLECTIONS = {"X": (X,), "Y": (Y,), **RULE_REFLECTIONS}

# Interior points on no line that a reflection of the square fixes, and a
# time past 0, at which a run's fields are probed.
PROBE_POINTS = np.array(
    [[0.137, 0.291], [0.613, 0.178], [0.389, 0.742], [0.853, 0.467], [0.271, 0.926]]
)
PROBE_TIME = 0.37
PROBE_RTOL = 1e-12


@dataclass(frozen=True)
class SymmetryGroup:
    """Reflections of ``REFLECTIONS`` with the character of each.

    ``characters`` holds (name, chi) pairs, each reflection doubling the
    group of those before it; with none it is the trivial group.  Reflections
    that do not double it, whose 2^k words are not distinct members closed
    under composition (Y and D, say, generate all eight), are refused with
    ``ValueError``, and so are characters with chi(a) chi(b) != chi(ab) for
    some members a, b (chi(X) != chi(Y) with D, which maps X onto Y).
    """

    characters: tuple = ()

    def __post_init__(self):
        _members(self.characters)

    def members(self) -> list:
        """Every member as (its index in ``MEMBERS``, chi), in ``images``' order."""
        return list(_members(self.characters))


@cache  # each set-up asks a few groups for their members several times
def _members(characters) -> tuple:
    out = [((), 1)]
    for name, chi in characters:
        out += [(word + REFLECTIONS[name], c * chi) for word, c in out]
    mats = [matrix(word).tolist() for word in MEMBERS]
    members = tuple((mats.index(matrix(word).tolist()), chi) for word, chi in out)
    chi = dict(members)
    prod = {(a, b): mats.index((np.array(mats[a]) @ mats[b]).tolist()) for a in chi for b in chi}
    names = [name for name, _ in characters]
    if len(chi) < len(members) or not set(prod.values()) <= chi.keys():
        raise ValueError(
            f"the reflections {names} do not double the group: their {len(members)} words "
            f"are not {len(members)} distinct members closed under composition"
        )
    if any(chi[a] * chi[b] != chi[ab] for (a, b), ab in prod.items()):
        raise ValueError(
            f"the reflections {names} with the characters {[c for _, c in characters]} are "
            "not a character of the group they generate: chi(a) chi(b) != chi(ab) for members a, b"
        )
    return members


def images(generators, a):
    """The images of the indices ``a`` under the members, and their signs.

    ``generators`` are signed permutations ``(p, s)``, g e_a = s_a e_p(a),
    each doubling the group of those before it: X, Y and D, with rows in
    ``MEMBERS``'s order, or a group's ``reflections``.  Members compose as
    g2 g1 = (p2[p1], s1 s2[p1]); the identity's signs are int8 ones, so
    each sign row keeps its generators' dtype.
    """
    out = [(a, np.ones(len(a), dtype=np.int8))]
    for g, t in generators:
        out += [(g[q], r * t[q]) for q, r in out]
    p, s = zip(*out)
    return np.array(p), np.array(s)


def reflections(generators: dict, group) -> list:
    """``group``'s reflections as signed permutations ``(p, s)``, each its word
    in ``generators`` (X, Y and D by name) composed as in ``images``."""
    out = []
    for name, _ in group.characters:
        (p, s), *rest = (generators[g] for g in REFLECTIONS[name])
        for q, t in rest:
            p, s = q[p], s * t[p]
        out.append((p, s))
    return out


@dataclass(frozen=True, eq=False)
class Fold:
    """A vector of ``group``'s symmetry by its values at the representatives
    ``reps`` (ascending) of its orbits, of integer sizes Lambda (``sizes``).  Its lift
    ``P a = sign * a[index]`` gives each dof its representative's value times
    its sign, 0 where a member fixes the dof with the sign -1; ``sign`` is
    int8 and ``index`` ``np.intp``, which a step's gathers need to be fast."""

    group: SymmetryGroup
    reps: np.ndarray
    index: np.ndarray
    sign: np.ndarray
    sizes: np.ndarray

    def lift(self, a) -> np.ndarray:
        return self.sign * a[self.index] if len(a) else np.zeros(len(self.index))

    def P(self) -> sp.csr_matrix:
        """The lift as a sparse matrix, built anew on each call: a caller
        keeps it only while it needs it, and builds it once."""
        on = self.sign != 0  # one entry a row, so its CSR arrays are written directly
        data, indptr = self.sign[on].astype(float), np.append(0, np.cumsum(on))
        return sp.csr_matrix((data, self.index[on], indptr), (len(on), len(self.reps)))


def fold(generators: dict, group, rank) -> Fold:
    """The ``Fold`` of the x with s_g x[p_g] = chi(g) x for each member g of
    ``group``, from the signed dof permutations of X, Y and D by name, an
    orbit represented by its dof of lowest ``rank``; a character drops an
    orbit that a member fixes with the sign -1."""
    refl, low = reflections(generators, group), rank
    for p, _ in refl:
        low = np.minimum(low, low[p])
    named = np.flatnonzero(low == rank)
    p, s = images(refl, named)
    fixed = p == named
    sign = np.array([chi for _, chi in group.members()])[:, None] * s
    has = ~np.any(fixed & (sign < 0), axis=0)
    p, sign, fixed = p[:, has], sign[:, has], fixed[:, has]
    index, lift = np.zeros(len(rank), dtype=np.intp), np.zeros(len(rank), dtype=np.int8)
    index[p], lift[p] = np.arange(p.shape[1]), sign
    return Fold(group, named[has], index, lift, len(p) // fixed.sum(axis=0))


def grid_rank(grid) -> np.ndarray:
    """Each point's place in (gx, gy) order, points that coincide in index
    order: the rank that names a stress space's orbits after their first
    dof, in its ``fold`` and in the blocks of its solve alike."""
    rank = np.empty(len(grid), dtype=np.intp)
    rank[np.lexsort((grid[:, 1], grid[:, 0]))] = np.arange(len(grid))
    return rank


def folded(M, rows: Fold, P) -> sp.csr_matrix:
    """M[rows.reps] P, M's rows at ``rows``' representatives with its columns
    summed over the orbits of the fold whose ``Fold.P`` is P."""
    return sp.csr_matrix(M[rows.reps] @ P)


def matrix(word) -> np.ndarray:
    """The 2x2 integer matrix, about the centre of the square, of a word in
    the generators, which act in turn, the first first."""
    out = np.eye(2, dtype=int)
    for g in word:
        out = _MATRICES[g] @ out
    return out


TRIVIAL = SymmetryGroup()


def _act(R, values):
    """R u for vectors (..., 2) and R sigma R^T for Voigt tensors (..., 3)."""
    if values.shape[-1] == 2:
        return values @ R.T
    tensors = R @ values[..., [[0, 2], [2, 1]]] @ R.T
    return tensors[..., [0, 1, 0], [0, 1, 1]]


def find_group(fields) -> SymmetryGroup:
    """The reflections of ``RULE_REFLECTIONS`` that every field satisfies with one character.

    Each field ``(x, y, t) -> (..., d)`` is a vector field for d = 2 and a
    Voigt tensor field for d = 3.  It is called at ``PROBE_POINTS`` and at
    their images, at ``PROBE_TIME``; a reflection joins with character chi
    when every field's image differs from chi times its values by at most
    ``PROBE_RTOL`` of their largest magnitude.  A field with no symmetry
    gives the trivial group.
    """
    Rs = [matrix(word) for word in RULE_REFLECTIONS.values()]
    # The points and their images under each reflection, in one call per field.
    x, y = np.vstack([PROBE_POINTS] + [0.5 + (PROBE_POINTS - 0.5) @ R.T for R in Rs]).T.copy()
    k = len(PROBE_POINTS)
    values = [np.asarray(f(x, y, PROBE_TIME), float) for f in fields]
    found = []
    for r, (name, R) in enumerate(zip(RULE_REFLECTIONS, Rs), 1):
        for chi in (1, -1):
            if all(
                abs(_act(R, v[r * k : (r + 1) * k]) - chi * v[:k]).max()
                <= PROBE_RTOL * abs(v[:k]).max()
                for v in values
            ):
                found.append((name, chi))
                break
    return SymmetryGroup(tuple(found))
