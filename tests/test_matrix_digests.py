"""The assembled matrices, S, the symmetry generators, the split of the
condensed matrix and the built-in fields, bit for bit.

``tests/data/matrix_digests.json`` holds the SHA-256 digest of each array
(its dtype, then its bytes) for both families at N in {3, 8}: the CSR
arrays of A, B, C and S for the unit material at dt = 0.25, and each
generator's ``p`` and ``s``.  Under ``"<family> N=<n> split"`` it holds
the split of the condensed matrix that S's ``CondensedLU`` makes: the CSR
arrays of the stacked basis Q, the inverse orbit sizes, and each block's
named dofs and the bounds of its columns in Q, and the CSR arrays of each
block matrix M that a solve factors.  Under ``"<family> N=<n> fields"`` it holds,
for each built-in example, v, sigma and f on the quadrature points at
t = 0.37, the load of f there, and the projection of v and the
interpolant of sigma at t = 0.  Under ``"<family> N=<n> group"`` it
holds, for each example, what the spaces built with the group that
``find_group`` gives that example's fields integrate through: the load of f
at t = 0.37 and the projection of v at t = 0, the velocity kernel's signed
gather, and the orbits' representatives and members.  Under
``"<family> N=<n> run"``, for N in {7, 8}, it holds each example's whole
run of M = 4 steps of dt = 0.25: the energy and both errors at every node
and the final alpha and beta.  The digests see the sign of a zero.  A
change that moves a bit on purpose rewrites the file with
``PYTHONPATH=src python tests/test_matrix_digests.py`` and says why in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from viscowave import linalg
from viscowave.assembly import assemble_load, assemble_system
from viscowave.cli import RunConfig
from viscowave.fespace import FAMILIES, StressSpace, VelocitySpace
from viscowave.linalg import block_diag_inverse, build_schur
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.symmetry import TRIVIAL, find_group
from viscowave.timestepper import run

DIGESTS = Path(__file__).parent / "data" / "matrix_digests.json"
SIZES = (3, 8)
RUN_SIZES = (7, 8)
DT = 0.25
TIME = 0.37


def _digest(array) -> str:
    return hashlib.sha256(array.dtype.str.encode() + array.tobytes()).hexdigest()


def solver(family, n):
    """The assembled system of one family on the n-by-n mesh and its stress solver."""
    mesh = StructuredMesh(n)
    ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
    system = assemble_system(ss, vs, IsotropicMaterial())
    return system, build_schur(system, block_diag_inverse(system.C, vs.n_local), DT, 1e-12)


def digests(family, n) -> dict:
    """Digest of every guarded array of one family on the n-by-n mesh."""
    system, schur = solver(family, n)
    ss, S = system.stress_space, schur.S
    out = {}
    for name, M in (("A", system.A), ("B", system.B), ("C", system.C), ("S", S)):
        for part in ("data", "indices", "indptr"):
            out[f"{name}.{part}"] = _digest(getattr(M, part))
    for name, (p, s) in ss.generators.items():
        out[f"{name} p"] = _digest(p)
        out[f"{name} s"] = _digest(s)
    return out


def split_digests(family, n) -> dict:
    """Digest of the basis, orbit sizes and blocks of the split of S_c, and
    of each block matrix M, caught as it is probed: a random right-hand
    side reaches every block."""
    lu = solver(family, n)[1]._lu
    blocks, probe = [], linalg._probe

    def spy(factor, block):
        blocks.append(block)
        probe(factor, block)

    with mock.patch.object(linalg, "_probe", spy):
        lu.solve(np.random.default_rng(0).standard_normal(lu.outer.size + lu.inner.size))
    out = {f"Q.{part}": _digest(getattr(lu._Q, part)) for part in ("data", "indices", "indptr")}
    out["inv_size"] = _digest(lu._inv_size)
    for k, (rep, part) in enumerate(zip(lu._reps, lu._parts)):
        out[f"block {k} reps"] = _digest(rep)
        out[f"block {k} parts"] = _digest(np.array([part.start, part.stop]))
    for k, M in enumerate(blocks):
        for part in ("data", "indices", "indptr"):
            out[f"block {k} M.{part}"] = _digest(getattr(M, part))
    return out


def field_digests(family, n) -> dict:
    """Digest of every built-in field, load, projection and interpolant on the n-by-n mesh."""
    mesh = StructuredMesh(n)
    ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
    orbits = mesh.orbits(TRIVIAL)
    x, y = orbits.x, orbits.y
    out = {}
    for example in (1, 2, 3):
        ex = exact_fields(example)
        for name in ("v", "sigma", "f"):
            out[f"{example} {name}"] = _digest(getattr(ex, name)(x, y, TIME))
        out[f"{example} load"] = _digest(assemble_load(vs, ex.f, TIME))
        out[f"{example} project"] = _digest(vs.project(lambda x, y: ex.v(x, y, 0.0)))
        out[f"{example} interpolate"] = _digest(ss.interpolate(lambda x, y: ex.sigma(x, y, 0.0)))
    return out


def group_digests(family, n) -> dict:
    """Digest of each example's load, projection, velocity gather and orbits
    on the spaces built with the group of its fields."""
    out = {}
    for example in (1, 2, 3):
        ex = exact_fields(example)
        group = find_group((ex.sigma, ex.v, ex.f))
        mesh = StructuredMesh(n)
        vs = VelocitySpace(mesh, family, group)
        out[f"{example} load"] = _digest(assemble_load(vs, ex.f, TIME))
        out[f"{example} project"] = _digest(vs.project(lambda x, y: ex.v(x, y, 0.0)))
        index, sign = vs.gather
        out[f"{example} gather index"] = _digest(index)
        out[f"{example} gather sign"] = _digest(sign)
        orbits = mesh.orbits(group)
        out[f"{example} elements"] = _digest(orbits.elements)
        out[f"{example} member"] = _digest(orbits.member)
    return out


def run_digests(family, n) -> dict:
    """Digest of each example's energy, errors and final state over M = 4 steps of dt = 0.25."""
    out = {}
    for example in (1, 2, 3):
        result = run(RunConfig(element=family, example=example, nx=n, n_steps=4))
        assert result.times[1] == DT
        for name in ("energy", "err_sigma", "err_v"):
            out[f"{example} {name}"] = _digest(getattr(result, name))
        out[f"{example} alpha"] = _digest(result.final_state.alpha)
        out[f"{example} beta"] = _digest(result.final_state.beta)
    return out


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_matrices_and_generators_keep_their_bits(family, n):
    assert digests(family, n) == json.loads(DIGESTS.read_text())[f"{family} N={n}"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_split_of_the_condensed_matrix_keeps_its_bits(family, n):
    assert split_digests(family, n) == json.loads(DIGESTS.read_text())[f"{family} N={n} split"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_fields_loads_and_projections_keep_their_bits(family, n):
    expected = json.loads(DIGESTS.read_text())[f"{family} N={n} fields"]
    assert field_digests(family, n) == expected


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_group_loads_gathers_and_orbits_keep_their_bits(family, n):
    assert group_digests(family, n) == json.loads(DIGESTS.read_text())[f"{family} N={n} group"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", RUN_SIZES)
def test_whole_runs_keep_their_bits(family, n):
    assert run_digests(family, n) == json.loads(DIGESTS.read_text())[f"{family} N={n} run"]


if __name__ == "__main__":
    table = {f"{f} N={n}": digests(f, n) for f in FAMILIES for n in SIZES}
    table |= {f"{f} N={n} split": split_digests(f, n) for f in FAMILIES for n in SIZES}
    table |= {f"{f} N={n} fields": field_digests(f, n) for f in FAMILIES for n in SIZES}
    table |= {f"{f} N={n} group": group_digests(f, n) for f in FAMILIES for n in SIZES}
    table |= {f"{f} N={n} run": run_digests(f, n) for f in FAMILIES for n in RUN_SIZES}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
