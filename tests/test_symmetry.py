"""D4's member table, the symmetry group of a run's data, the element
orbits, and the reduced integrals.

A kernel of a space with a symmetry group integrates on one element per
orbit; the loads, projections and error norms it gives must agree with the
trivial group's, which integrates on every element, and its gather must
be the one that walking each member's word dof by dof gives.
"""

import itertools

import numpy as np
import pytest

from viscowave.analysis import StressErrorEvaluator, VelocityErrorEvaluator
from viscowave.assembly import assemble_load
from viscowave.cli import RunConfig
from viscowave.fespace import FAMILIES, StressSpace, VelocitySpace
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave import linalg
from viscowave.symmetry import (
    MEMBERS, TRIVIAL, D, SymmetryGroup, X, Y, character, find_group, images, matrix
)
from viscowave.timestepper import run

from fehelpers import walked_gather

GROUPS = {
    1: SymmetryGroup((("XY", 1), ("D", 1))),
    2: SymmetryGroup((("XY", -1), ("D", 1))),
    3: SymmetryGroup((("D", 1),)),
}


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


@pytest.mark.parametrize("m, d", linalg._ONE_DIM)
def test_character_is_multiplicative(m, d):
    chi = character((m, m, d))
    assert len(chi) == 8 and chi[0] == 1
    for (a, b), k in product_table().items():
        assert chi[k] == chi[a] * chi[b]
    # The first four members are the mirrors' subgroup, e, X, Y and XY.
    assert character((m, -m)) == (1, m, -m, -1)


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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize(
    "group", [TRIVIAL, *GROUPS.values()], ids=["trivial", "example1", "example2", "example3"]
)
def test_gather_is_the_walk_of_each_members_word(group, n, family):
    index, sign = VelocitySpace(StructuredMesh(n), family, group).gather
    want_index, want_sign = walked_gather(VelocitySpace(StructuredMesh(n), family, group))
    assert index.dtype == want_index.dtype and sign.dtype == want_sign.dtype
    np.testing.assert_array_equal(index, want_index)
    np.testing.assert_array_equal(sign, want_sign)


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


def test_a_run_integrates_under_its_datas_group():
    for example in (1, 2, 3):
        result = run(RunConfig(element="hmz", example=example, nx=3, n_steps=2))
        assert result.stress_space.group == result.velocity_space.group == GROUPS[example]
        # Only the representatives' points were built, never the full set.
        assert list(result.stress_space.mesh._orbits) == [GROUPS[example]]


def element_images(n, group):
    """Each member's element map, written out from (i, j) for the test."""
    i, j = np.arange(n * n) % n, np.arange(n * n) // n
    maps = {(): (i, j), ("XY",): (n - 1 - i, n - 1 - j), ("D",): (j, i)}
    maps[("XY", "D")] = (n - 1 - j, n - 1 - i)
    names = [()]
    for name, _ in group.characters:
        names += [word + (name,) for word in names]
    return [maps[word][1] * n + maps[word][0] for word in names]


@pytest.mark.parametrize(
    "group", [TRIVIAL, *GROUPS.values()], ids=["trivial", "example1", "example2", "example3"]
)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_orbits_hold_one_representative_per_orbit(group, n):
    mesh = StructuredMesh(n)
    orbits = mesh.orbits(group)
    images = np.array(element_images(n, group))
    orbit_of = images.min(axis=0)
    assert sorted(orbits.elements) == sorted(set(orbit_of))
    for size, rows in orbits.sizes:
        for e in orbits.elements[rows]:
            assert len(set(images[:, e])) == size
    sizes = [size for size, _ in orbits.sizes]
    assert sizes == sorted(set(sizes), reverse=True)
    assert sum(size * (rows.stop - rows.start) for size, rows in orbits.sizes) == n * n
    # Each element reaches its representative through its member.
    e = np.arange(n * n)
    np.testing.assert_array_equal(images[orbits.member, e], orbit_of)
    np.testing.assert_array_equal(orbits.elements[orbits.position], orbit_of)
    counts = {size: rows.stop - rows.start for size, rows in orbits.sizes}
    odd = n % 2
    if len(group.members()) == 4:
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
