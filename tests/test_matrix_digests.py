"""The assembled matrices, S, the symmetry generators and the built-in fields, bit for bit.

``tests/data/matrix_digests.json`` holds the SHA-256 digest of each array
(its dtype, then its bytes) for both families at N in {3, 8}: the CSR
arrays of A, B, C and S for the unit material at dt = 0.25, and each
generator's ``p`` and ``s``.  Under ``"<family> N=<n> fields"`` it holds,
for each built-in example, v, sigma and f on the quadrature points at
t = 0.37, the load of f there, and the projection of v and the
interpolant of sigma at t = 0.  The digests see the sign of a zero.  A
change that moves a bit on purpose rewrites the file with
``PYTHONPATH=src python tests/test_matrix_digests.py`` and says why in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from viscowave.assembly import assemble_load, assemble_system
from viscowave.fespace import FAMILIES, StressSpace, VelocitySpace
from viscowave.linalg import block_diag_inverse, build_schur
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields

DIGESTS = Path(__file__).parent / "data" / "matrix_digests.json"
SIZES = (3, 8)
DT = 0.25
TIME = 0.37


def _digest(array) -> str:
    return hashlib.sha256(array.dtype.str.encode() + array.tobytes()).hexdigest()


def digests(family, n) -> dict:
    """Digest of every guarded array of one family on the n-by-n mesh."""
    mesh = StructuredMesh(n)
    ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
    system = assemble_system(ss, vs, IsotropicMaterial())
    S = build_schur(system, block_diag_inverse(system.C, vs.n_local), DT, 1e-12).S
    out = {}
    for name, M in (("A", system.A), ("B", system.B), ("C", system.C), ("S", S)):
        for part in ("data", "indices", "indptr"):
            out[f"{name}.{part}"] = _digest(getattr(M, part))
    for name, (p, s) in ss.generators.items():
        out[f"{name} p"] = _digest(p)
        out[f"{name} s"] = _digest(s)
    return out


def field_digests(family, n) -> dict:
    """Digest of every built-in field, load, projection and interpolant on the n-by-n mesh."""
    mesh = StructuredMesh(n)
    ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
    x, y = mesh.quad_points
    out = {}
    for example in (1, 2, 3):
        ex = exact_fields(example)
        for name in ("v", "sigma", "f"):
            out[f"{example} {name}"] = _digest(getattr(ex, name)(x, y, TIME))
        out[f"{example} load"] = _digest(assemble_load(vs, ex.f, TIME))
        out[f"{example} project"] = _digest(vs.project(lambda x, y: ex.v(x, y, 0.0)))
        out[f"{example} interpolate"] = _digest(ss.interpolate(lambda x, y: ex.sigma(x, y, 0.0)))
    return out


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_matrices_and_generators_keep_their_bits(family, n):
    assert digests(family, n) == json.loads(DIGESTS.read_text())[f"{family} N={n}"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_fields_loads_and_projections_keep_their_bits(family, n):
    expected = json.loads(DIGESTS.read_text())[f"{family} N={n} fields"]
    assert field_digests(family, n) == expected


if __name__ == "__main__":
    table = {f"{f} N={n}": digests(f, n) for f in FAMILIES for n in SIZES}
    table |= {f"{f} N={n} fields": field_digests(f, n) for f in FAMILIES for n in SIZES}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
