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

D4 is declared here alone: its members (``MEMBERS``), their images as
signed permutations (``images``) and their signs in a one-dimensional
representation (``character``), read by the mesh's orbits, the velocity
gather and the sectors of the stress solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "X", "Y", "D", "MEMBERS", "RULE_REFLECTIONS", "SymmetryGroup", "TRIVIAL",
    "character", "find_group", "images", "matrix",
]

# The generators of the square's group, D4, named as in the spaces'
# ``generators``, and each one's matrix about the centre of the square.
X, Y, D = "x -> 1 - x", "y -> 1 - y", "(x, y) -> (y, x)"
_MATRICES = {X: np.diag([-1, 1]), Y: np.diag([1, -1]), D: np.array([[0, 1], [1, 0]])}
# D4's eight members as words in the generators, which act in turn, in the
# order that doubling over X, Y and D gives: e, X, Y, XY, D, XD, YD, XYD.
# The first 2^k are the subgroup of the first k generators; ``images`` and
# ``character`` list theirs in this order.
MEMBERS = ((), (X,), (Y,), (X, Y), (D,), (X, D), (Y, D), (X, Y, D))
# The reflections that map the composite rule onto itself, as words in the generators.
RULE_REFLECTIONS = {"XY": (X, Y), "D": (D,)}

# Interior points on no line that a reflection of the square fixes, and a
# time past 0, at which a run's fields are probed.
PROBE_POINTS = np.array(
    [[0.137, 0.291], [0.613, 0.178], [0.389, 0.742], [0.853, 0.467], [0.271, 0.926]]
)
PROBE_TIME = 0.37
PROBE_RTOL = 1e-12


@dataclass(frozen=True)
class SymmetryGroup:
    """Reflections of ``RULE_REFLECTIONS`` with the character of each.

    ``characters`` holds (name, chi) pairs in the order of
    ``RULE_REFLECTIONS``; with none it is the trivial group.
    """

    characters: tuple = ()

    def members(self) -> list:
        """Every member as (its index in ``MEMBERS``, chi), the identity first."""
        out = [((), 1)]
        for name, chi in self.characters:
            out += [(word + RULE_REFLECTIONS[name], c * chi) for word, c in out]
        mats = [matrix(word).tolist() for word in MEMBERS]
        return [(mats.index(matrix(word).tolist()), chi) for word, chi in out]


TRIVIAL = SymmetryGroup()


def images(generators, a):
    """The images of the indices ``a`` under the members, and their signs.

    ``generators`` are signed permutations ``(p, s)`` of X, Y and D, or of
    the first one or two, with g e_a = s_a e_p(a); the result is two arrays,
    one row per member in ``MEMBERS``'s order, composed as
    g2 g1 = (p2[p1], s1 s2[p1]).  The identity's signs are int8 ones, so
    each sign row keeps its generators' dtype.
    """
    out = [(a, np.ones(len(a), dtype=np.int8))]
    for g, t in generators:
        out += [(g[q], r * t[q]) for q, r in out]
    p, s = zip(*out)
    return np.array(p), np.array(s)


def character(signs) -> tuple:
    """Each member's sign, in ``MEMBERS``'s order, in the one-dimensional
    representation in which X, Y and D, or the first one or two, act as ``signs``."""
    out = (1,)
    for sign in signs:
        out += tuple(c * sign for c in out)
    return out


def matrix(word) -> np.ndarray:
    """The 2x2 integer matrix, about the centre of the square, of a word in
    the generators, which act in turn, the first first."""
    out = np.eye(2, dtype=int)
    for g in word:
        out = _MATRICES[g] @ out
    return out


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
