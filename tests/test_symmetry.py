"""D4's member table, the symmetry group of a run's data, the element
orbits, and the reduced integrals.

A kernel of a space with a symmetry group integrates on one element per
orbit; the loads, projections and error norms it gives must agree with the
trivial group's, which integrates on every element, and the loads and
projections must lie in the span of the velocity space's fold.
"""

import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp

from viscowave.analysis import StressErrorEvaluator, VelocityErrorEvaluator
from viscowave.assembly import assemble_load
from viscowave.cli import RunConfig
from viscowave.fespace import FAMILIES, StressSpace, VelocitySpace
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.symmetry import (
    MEMBERS, REFLECTIONS, RULE_REFLECTIONS, TRIVIAL, D, SymmetryGroup, X, Y, find_group, images,
    matrix,
)
from viscowave.timestepper import run

from fehelpers import ONE_DIM, character, velocity_generators

GROUPS = {
    1: SymmetryGroup((("XY", 1), ("D", 1))),
    2: SymmetryGroup((("XY", -1), ("D", 1))),
    3: SymmetryGroup((("D", 1),)),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_a_fold_lifts_the_symmetric_vectors_from_one_dof_per_orbit(family, n):
    # A random vector averaged over the group, chi(g) g x, is symmetric; its
    # values at the representatives lift to it.  Each representative comes
    # first in its space's rank among the dofs it lifts to, and its orbit's
    # size counts them; P^T P is diag(Lambda).
    mesh = StructuredMesh(n)
    for group, space in itertools.product(GROUPS.values(), (StressSpace, VelocitySpace)):
        space = space(mesh, family, group)
        fold = space.fold
        if isinstance(space, VelocitySpace):  # the tests' element-by-element reference
            reference = velocity_generators(space).values()
            for (p, s), (q, t) in zip(space.generators.values(), reference):
                assert np.array_equal(p, q) and np.array_equal(s, t)
        p, s = images(tuple(space.generators.values()), np.arange(space.dim))
        x = np.random.default_rng(n).standard_normal(space.dim)
        members = group.members()
        sym = sum(chi * s[k] * x[p[k]] for k, chi in members) / len(members)
        for k, chi in members:
            np.testing.assert_allclose(s[k] * sym[p[k]], chi * sym, atol=1e-15)
        np.testing.assert_allclose(fold.lift(sym[fold.reps]), sym, atol=1e-15)
        on = fold.sign != 0
        assert np.all(space.rank[fold.reps[fold.index[on]]] <= space.rank[on])
        assert np.array_equal(np.bincount(fold.index[on], minlength=len(fold.reps)), fold.sizes)
        P = fold.P()
        assert np.array_equal((P.T @ P).toarray(), np.diag(fold.sizes))
        assert np.abs(sym[~on]).max(initial=0.0) <= 1e-15
        # Written straight into CSR arrays, P's arrays are those of the COO
        # route, dtypes included.
        rows = np.flatnonzero(on)
        coo = sp.csr_matrix((fold.sign[on].astype(float), (rows, fold.index[on])), P.shape)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(P, name), getattr(coo, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_members_are_the_doubling_of_the_generators():
    words = [()]
    for g in (X, Y, D):
        words += [word + (g,) for word in words]
    assert list(MEMBERS) == words


def product_table():
    """k with matrix(MEMBERS[k]) = matrix(MEMBERS[b]) matrix(MEMBERS[a]), a then b, by (a, b)."""
    mats = [matrix(word) for word in MEMBERS]
    keys = [m.tobytes() for m in mats]
    pairs = itertools.product(range(8), repeat=2)
    return {(a, b): keys.index((mats[b] @ mats[a]).tobytes()) for a, b in pairs}


def test_member_matrices_are_distinct_and_closed_under_products():
    mats = [matrix(word) for word in MEMBERS]
    assert len({m.tobytes() for m in mats}) == 8
    for m in mats:
        assert abs(round(np.linalg.det(m))) == 1 and np.array_equal(m @ m.T, np.eye(2))
    product_table()  # every product is a member


@pytest.mark.parametrize("m, d", ONE_DIM)
def test_character_is_multiplicative(m, d):
    # D4 with X and Y acting as m and D as d, the group of a one-dimensional
    # block of the stress solve, lists MEMBERS in order, with the reference
    # table's signs.
    members = SymmetryGroup((("X", m), ("Y", m), ("D", d))).members()
    assert [k for k, _ in members] == list(range(8))
    chi = tuple(c for _, c in members)
    assert chi == character((m, m, d)) and chi[0] == 1
    for (a, b), k in product_table().items():
        assert chi[k] == chi[a] * chi[b]
    # The first four members are the mirrors' subgroup, e, X, Y and XY.
    assert character((m, -m)) == (1, m, -m, -1)
    assert SymmetryGroup((("X", m), ("Y", -m))).members() == list(enumerate((1, m, -m, -1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_images_compose_as_the_member_matrices(n):
    # The elements' images under X, Y and D, composed by ``images``, are the
    # elements that each member's matrix maps their centres to.
    e = np.arange(n * n)
    i, j = e % n, e // n
    ones = np.ones(n * n)
    grid = e.reshape(n, n)
    generators = [(p.ravel(), ones) for p in (grid[:, ::-1], grid[::-1], grid.T)]
    p, s = images(generators, e)
    assert p.shape == s.shape == (8, n * n) and np.all(s == 1.0)
    centres = np.stack([2 * i + 1 - n, 2 * j + 1 - n])  # doubled, about the square's centre
    for k, word in enumerate(MEMBERS):
        cx, cy = matrix(word) @ centres
        np.testing.assert_array_equal(p[k], (cy + n - 1) // 2 * n + (cx + n - 1) // 2)


def test_group_members_index_the_member_table():
    assert TRIVIAL.members() == [(0, 1)]
    assert GROUPS[1].members() == [(0, 1), (3, 1), (4, 1), (7, 1)]
    assert GROUPS[2].members() == [(0, 1), (3, -1), (4, 1), (7, -1)]
    assert GROUPS[3].members() == [(0, 1), (4, 1)]
    # A word is matched by its matrix, so the reflections may come in any order.
    assert SymmetryGroup((("D", 1), ("XY", -1))).members() == [(0, 1), (4, 1), (3, -1), (7, -1)]


def test_a_group_may_name_the_mirrors():
    # Without D, E's sectors are folds of the mirrors' subgroup, even under X
    # and odd under Y, or the reverse.
    assert SymmetryGroup((("X", 1), ("Y", -1))).members() == [(0, 1), (1, 1), (2, -1), (3, -1)]
    assert SymmetryGroup((("X", -1), ("Y", 1))).members() == [(0, 1), (1, -1), (2, 1), (3, -1)]
    assert SymmetryGroup((("Y", -1),)).members() == [(0, 1), (2, -1)]


@pytest.mark.parametrize(
    "names",
    [names for k in (2, 3) for names in itertools.product(REFLECTIONS, repeat=k)],
    ids="-".join,
)
def test_a_group_whose_reflections_do_not_double_is_refused(names):
    # The 2^k words of k reflections are the group they generate exactly
    # when they are distinct and it has 2^k members; Y and D, say, give the
    # four words e, Y, D and YD but generate all eight members of D4.
    mats = [matrix(REFLECTIONS[name]) for name in names]
    generated, grown = set(), {np.eye(2, dtype=int).tobytes()}
    while grown != generated:
        generated = set(grown)
        grown |= {(m @ np.frombuffer(g, dtype=int).reshape(2, 2)).tobytes()
                  for m in mats for g in generated}
    words = [np.eye(2, dtype=int)]
    for m in mats:
        words += [m @ w for w in words]
    characters = tuple((name, 1) for name in names)
    if len({w.tobytes() for w in words}) == len(generated) == 2 ** len(names):
        keys = [matrix(word).tobytes() for word in MEMBERS]
        members = SymmetryGroup(characters).members()
        assert {k for k, _ in members} == {keys.index(g) for g in generated}
    else:
        with pytest.raises(ValueError, match=re.escape(f"the reflections {list(names)} ")):
            SymmetryGroup(characters)


@pytest.mark.parametrize(
    "names",
    [names for k in (1, 2, 3) for names in itertools.product(REFLECTIONS, repeat=k)],
    ids="-".join,
)
def test_characters_that_are_not_a_character_of_the_group_are_refused(names):
    # Reflections that double the group, with each choice of characters: the
    # choice is accepted, with the members and characters that doubling
    # gives, exactly when chi(a) chi(b) = chi(ab) for all members a and b.
    try:
        SymmetryGroup(tuple((name, 1) for name in names))
    except ValueError:
        return  # they do not double the group
    keys, table = [matrix(word).tobytes() for word in MEMBERS], product_table()
    for chis in itertools.product((1, -1), repeat=len(names)):
        words = [(np.eye(2, dtype=int), 1)]
        for name, c in zip(names, chis):
            words += [(matrix(REFLECTIONS[name]) @ w, chi * c) for w, chi in words]
        chi = {keys.index(w.tobytes()): c for w, c in words}
        pairs = itertools.product(chi, repeat=2)
        characters = tuple(zip(names, chis))
        if all(chi[a] * chi[b] == chi[table[a, b]] for a, b in pairs):
            assert dict(SymmetryGroup(characters).members()) == chi
        else:
            message = f"the reflections {list(names)} with the characters {list(chis)} are not"
            with pytest.raises(ValueError, match=re.escape(message)):
                SymmetryGroup(characters)


def test_every_group_that_a_run_or_the_split_names_is_a_character():
    # D maps X onto Y, so no character of D4 has chi(X) != chi(Y).
    message = r"^the reflections \['X', 'Y', 'D'\] with the characters \[1, -1, 1\] are not"
    with pytest.raises(ValueError, match=message):
        SymmetryGroup((("X", 1), ("Y", -1), ("D", 1)))
    # ``find_group``'s groups, those the tests fold by, and ``linalg._blocks``'
    # one-dimensional characters and E's sectors.
    for names in (("XY",), ("D",), ("XY", "D"), ("D", "XY"), ("X", "Y")):
        for chis in itertools.product((1, -1), repeat=len(names)):
            SymmetryGroup(tuple(zip(names, chis)))
    for m, d in ONE_DIM:
        SymmetryGroup((("X", m), ("Y", m), ("D", d)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_loads_and_projections_lie_in_the_velocity_folds_span(example, n, family):
    # Every dof takes its orbit representative's value times its sign, bit
    # for bit, and a dof that a member fixes with the sign -1 is zero.
    sol = exact_fields(example)
    vs = VelocitySpace(StructuredMesh(n), family, GROUPS[example])
    fold = vs.fold
    for x in (
        assemble_load(vs, sol.f, 0.37),
        vs.project(lambda x, y: sol.v(x, y, 0.0)),
    ):
        assert np.array_equal(x, fold.lift(x[fold.reps]))


def group_of(example):
    sol = exact_fields(example)
    return find_group((sol.sigma, sol.v, sol.f))


@pytest.mark.parametrize("example", [1, 2, 3])
def test_probe_finds_each_examples_group(example):
    assert group_of(example) == GROUPS[example]


def test_an_asymmetric_field_gets_the_trivial_group():
    sol = exact_fields(1)
    # A planted part of 1e-9 of the force's scale, far above the probe's
    # 1e-12, that no reflection of the rule keeps.
    planted = lambda x, y, t: sol.f(x, y, t) + 1e-9 * np.stack([x, x * y * y], axis=-1)
    assert find_group((sol.sigma, sol.v, planted)) == TRIVIAL
    # Fields that are each symmetric but with different characters share
    # only the reflection on which their characters agree.
    other = exact_fields(2)
    assert find_group((sol.sigma, sol.v, other.f)) == SymmetryGroup((("D", 1),))


def test_the_probe_names_only_the_rules_reflections():
    # Fields even under both mirrors: the composite rule breaks X and Y, so
    # the probe names the rotation XY they imply, and D where it holds.
    def mirrored(x, y, t):
        u, w = x - 0.5, y - 0.5
        return np.stack([u * (1 + w * w), w * (1 + 2 * u * u)], axis=-1) * (1 + t)

    def radial(x, y, t):
        return np.stack([x - 0.5, y - 0.5], axis=-1) * (1 + t)

    assert find_group((mirrored,)) == SymmetryGroup((("XY", 1),))
    assert find_group((radial,)) == SymmetryGroup((("XY", 1), ("D", 1)))
    assert list(RULE_REFLECTIONS) == ["XY", "D"]


def test_a_run_integrates_under_its_datas_group():
    for example in (1, 2, 3):
        result = run(RunConfig(element="hmz", example=example, nx=3, n_steps=2))
        assert result.stress_space.group == result.velocity_space.group == GROUPS[example]
        # Only the representatives' points were built, never the full set.
        assert list(result.stress_space.mesh._orbits) == [GROUPS[example]]


def element_images(n, group):
    """Each member's element map, written out from (i, j) for the test."""
    maps = {
        "X": lambda i, j: (n - 1 - i, j),
        "Y": lambda i, j: (i, n - 1 - j),
        "XY": lambda i, j: (n - 1 - i, n - 1 - j),
        "D": lambda i, j: (j, i),
    }
    words = [()]
    for name, _ in group.characters:
        words += [word + (name,) for word in words]
    out = []
    for word in words:
        i, j = np.arange(n * n) % n, np.arange(n * n) // n
        for name in word:
            i, j = maps[name](i, j)
        out.append(j * n + i)
    return out


MIRRORS = SymmetryGroup((("X", 1), ("Y", 1)))
D4 = SymmetryGroup((("X", 1), ("Y", 1), ("D", 1)))


@pytest.mark.parametrize(
    "group",
    [TRIVIAL, *GROUPS.values(), MIRRORS, D4],
    ids=["trivial", "example1", "example2", "example3", "mirrors", "D4"],
)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_orbits_hold_one_representative_per_orbit(group, n):
    # Each orbit is named after its first element in (gx, gy) order, that
    # is, by the least i n + j of its members (i, j).
    mesh = StructuredMesh(n)
    orbits = mesh.orbits(group)
    images = np.array(element_images(n, group))
    first = np.argmin((images % n) * n + images // n, axis=0)
    orbit_of = images[first, np.arange(n * n)]
    assert sorted(orbits.elements) == sorted(set(orbit_of))
    for size, rows in orbits.sizes:
        for e in orbits.elements[rows]:
            assert len(set(images[:, e])) == size
    sizes = [size for size, _ in orbits.sizes]
    assert sizes == sorted(set(sizes), reverse=True)
    assert sum(size * (rows.stop - rows.start) for size, rows in orbits.sizes) == n * n
    counts = {size: rows.stop - rows.start for size, rows in orbits.sizes}
    odd = n % 2
    if group == D4:
        # 8 in general, 4 on the diagonals and the middle lines, 1 at the centre for odd N.
        four = n - 1 if odd else n // 2
        want = {8: (n * n - odd - 4 * four) // 8, 4: four, 1: odd}
    elif group == MIRRORS:
        # 4 in general, 2 on the middle lines, 1 at the centre for odd N.
        want = {4: (n - odd) ** 2 // 4, 2: odd * (n - 1), 1: odd}
    elif len(group.members()) == 4:
        # 4 in general, 2 on the diagonals, 1 at the centre for odd N.
        want = {4: (n * n - 2 * n + odd) // 4, 2: n - odd, 1: odd}
    elif group.characters:
        want = {2: n * (n - 1) // 2, 1: n}  # D alone fixes the diagonal
    else:
        want = {1: n * n}
    assert counts == {size: k for size, k in want.items() if k}
    x, y = orbits.x, orbits.y
    assert x.base is None and not x.flags.writeable and y.base is None
    assert mesh.orbits(group) is orbits


ACCEPTED = []
for k in range(4):
    for names in itertools.product(REFLECTIONS, repeat=k):
        for chis in itertools.product((1, -1), repeat=k):
            try:
                ACCEPTED.append(SymmetryGroup(tuple(zip(names, chis))))
            except ValueError:
                pass


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_velocity_representatives_lie_on_the_stress_representatives_elements(family, n):
    # Every fold names an orbit after its first member in (gx, gy) order, so
    # for each group that ``SymmetryGroup`` accepts the velocity fold's
    # representatives lie on the element orbits' representatives and on
    # elements that hold a stress representative: B's rows there
    # (``AssembledSystem.at_rows``) hold them.
    assert len(ACCEPTED) == 105  # the trivial group and 104 others
    mesh = StructuredMesh(n)
    for group in ACCEPTED:
        ss, vs = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)
        on = vs.fold.reps // vs.n_local
        assert np.isin(on, mesh.orbits(group).elements).all(), group
        assert np.isin(ss.eldof[on], ss.fold.reps).any(axis=1).all(), group


def symmetric_spaces(family, n, group):
    mesh = StructuredMesh(n)
    full = StressSpace(mesh, family), VelocitySpace(mesh, family)
    reduced = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)
    return full, reduced


def close(got, want, rtol=1e-14):
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_reduced_integrals_agree_with_the_full_ones(example, n, family):
    sol = exact_fields(example)
    (ss0, vs0), (ss, vs) = symmetric_spaces(family, n, GROUPS[example])
    assert len(vs.quad.x) < n * n
    material = IsotropicMaterial()
    for t in (0.0, 0.3, 1.0):
        assert close(assemble_load(vs, sol.f, t), assemble_load(vs0, sol.f, t))
        v_t = lambda x, y: sol.v(x, y, t)
        assert close(vs.project(v_t), vs0.project(v_t))
        # Coefficients of the group's symmetry whose distance to the field is
        # a fair part of its norm, so the norms compare to rounding.
        alpha = ss0.interpolate(lambda x, y: 1.1 * sol.sigma(x, y, t + 0.5))
        beta = vs0.project(lambda x, y: 0.9 * sol.v(x, y, t + 0.5))
        for evaluator, full, reduced, coeffs, field in (
            (StressErrorEvaluator, ss0, ss, alpha, sol.sigma),
            (VelocityErrorEvaluator, vs0, vs, beta, sol.v),
        ):
            want = evaluator(full, material)(coeffs, field, t)
            assert abs(evaluator(reduced, material)(coeffs, field, t) - want) <= 1e-14 * want


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_fields_are_called_on_the_representatives_points_only(example, n, family):
    sol = exact_fields(example)
    group = GROUPS[example]
    _, (ss, vs) = symmetric_spaces(family, n, group)
    seen = []

    def recorded(field):
        def call(x, y, *t):
            seen.append((x, y))
            return field(x, y, *t)

        return call

    material = IsotropicMaterial()
    assemble_load(vs, recorded(sol.f), 0.3)
    vs.project(lambda x, y: recorded(sol.v)(x, y, 0.0))
    StressErrorEvaluator(ss, material)(np.zeros(ss.dim), recorded(sol.sigma), 0.3)
    VelocityErrorEvaluator(vs, material)(np.zeros(vs.dim), recorded(sol.v), 0.3)
    assert len(seen) == 4
    # The points are those of one element per orbit, each element's points
    # about its centre, and the orbits of those elements cover the mesh once.
    h = 1.0 / n
    images = np.array(element_images(n, group))
    for x, y in seen:
        i = np.floor(x.mean(axis=1) / h).astype(int)
        j = np.floor(y.mean(axis=1) / h).astype(int)
        elements = j * n + i
        covered = np.concatenate([np.unique(images[:, e]) for e in elements])
        np.testing.assert_array_equal(np.sort(covered), np.arange(n * n))
