"""The assembled matrices, S and the symmetry generators, bit for bit.

``tests/data/matrix_digests.json`` holds the SHA-256 digest of each array
(its dtype, then its bytes) for both families at N in {3, 8}: the CSR
arrays of A, B, C and S for the unit material at dt = 0.25, and each
generator's ``p`` and ``s``.  A change that moves a bit on purpose
rewrites the file with ``PYTHONPATH=src python tests/test_matrix_digests.py``
and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from viscowave.assembly import assemble_system
from viscowave.fespace import FAMILIES, StressSpace, VelocitySpace
from viscowave.linalg import block_diag_inverse, build_schur
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh

DIGESTS = Path(__file__).parent / "data" / "matrix_digests.json"
SIZES = (3, 8)
DT = 0.25


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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_matrices_and_generators_keep_their_bits(family, n):
    assert digests(family, n) == json.loads(DIGESTS.read_text())[f"{family} N={n}"]


if __name__ == "__main__":
    table = {f"{f} N={n}": digests(f, n) for f in FAMILIES for n in SIZES}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
