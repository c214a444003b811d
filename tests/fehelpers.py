"""Pointwise field and basis evaluation, rule application and reference formulas.

Voigt-triple algebra (``VoigtTensor``, ``voigt_inner``, ``stiffness_matrix``,
``apply_compliance``, ``apply_stiffness``, ``compliance_bounds``), the mesh's
vertex, element and edge tables (``vertex_index``, ``element_index``,
``element_at``, ``vertex_coords``, ``elem_vertices``, ``edge_counts``,
``elem_edges``, ``edge_elements``, ``edge_vertices``, ``edge_normal_axis``,
``boundary_vertex``, ``boundary_edge``) and the unforced energy-identity
defects ``energy_residuals`` are used only here and by the tests.  Vertices,
elements and edges are numbered lexicographically with x running fastest;
the vertical edges (unit normal +x) come first, then the horizontal ones
(unit normal +y).

The solver itself works with whole-mesh basis tables; these helpers evaluate
one element at a time so the tests can check the tables point by point, and
``dof_component`` gives each stress dof's Voigt component.
``mirrors`` picks the two mirrors out of a stress space's generators, and
``reflections`` finds all three by searching the grid, the reference the
generators' index table is checked against.  ``velocity_generators``
spreads a velocity space's ``local_generators`` to every element: the
reference the velocity space's generators are checked against.
``stress_gram`` integrates the stress mass with either rule; with the
composite one it is the consistent ``nedelec-q1q0`` matrix that the
scheme's corner lumping replaces.
``einsum_load`` and ``einsum_error`` are the load and error-norm formulas
written as single einsums over all elements, the references the solver's
matrix-product kernels are checked against.  ``reference_fields`` gives the
manufactured solutions as one closure per field and component, each
evaluating its time and space parts on every call: the reference the
time-separable fields of ``viscowave.mms`` are checked against.
``verify_residuals`` checks that a manufactured solution's ``f``, ``sigma``
and ``v`` satisfy the momentum and constitutive equations, by finite
differences at quasi-random points.  ``full_scatter`` scatters every entry
of a local matrix, exact zeros included: the reference the assembly's
scatter of the nonzero entries is checked against.  ``oversized`` names the
sparse matrices whose arrays sit in buffers larger than their entries.
``assemble_mass_velocity`` tiles the velocity mass C, which no run
assembles, and ``bsr_block_diag_inverse`` inverts a block-diagonal matrix
through BSR, repeating one inverse when every block is the same, and drops
its zeros: the reference the inverse a run tiles from C's element matrix,
and the one it reads of the bubble block S_ii, are checked against;
``velocity_inverse``, imported from ``timestepper``, is the first.
``full_B`` assembles a system's full-size B, which no run forms.
``folded_schur`` forms the full S and folds it: the reference the folded S
that ``build_schur`` forms at the representatives alone is checked against.
``sectors`` builds the stress solve's D4 blocks from a table of characters
(``ONE_DIM``, ``character``) by gathers over the mirrors' minima: the
reference the blocks that ``CondensedLU`` folds are checked against.
``outer_split`` builds ``CondensedLU``'s split on the outer dofs alone,
numbered a second time: the reference the split on the space's own dofs
is checked against.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.stats import qmc

from viscowave.analysis import energy
from viscowave.assembly import _local_velocity_gram, assemble_coupling
from viscowave.fespace import StressSpace, VelocitySpace
from viscowave.linalg import block_diag_csr, nested_dissection
from viscowave.material import VOIGT_DOT, IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import ExactSolution
from viscowave.quadrature import COMPOSITE
from viscowave.symmetry import TRIVIAL, D, X, Y, folded, images
from viscowave.timestepper import velocity_inverse

DIAGONAL = "(x, y) -> (y, x)"


class VoigtTensor(NamedTuple):
    """Symmetric 2x2 tensor stored as (t11, t22, t12)."""

    t11: float
    t22: float
    t12: float


def voigt_inner(a, b):
    """Tensor dot product of Voigt triples; broadcasts over leading axes."""
    return (np.asarray(a, dtype=float) * np.asarray(b, dtype=float)) @ VOIGT_DOT.diagonal()


def stiffness_matrix(material: IsotropicMaterial) -> np.ndarray:
    """Matrix of the stiffness map C e = 2 mu e + lam tr(e) I on (t11, t22, t12)."""
    two_mu, lam = 2.0 * material.mu, material.lam
    return np.array(
        [
            [two_mu + lam, lam, 0.0],
            [lam, two_mu + lam, 0.0],
            [0.0, 0.0, two_mu],
        ]
    )


def apply_compliance(material: IsotropicMaterial, stress) -> np.ndarray:
    """Strain produced by a stress given as (..., 3) Voigt triples."""
    return np.asarray(stress, dtype=float) @ material.compliance_matrix().T


def apply_stiffness(material: IsotropicMaterial, strain) -> np.ndarray:
    """Stress produced by a strain given as (..., 3) Voigt triples."""
    arr = np.asarray(strain, dtype=float)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected Voigt triples in the last axis, got shape {arr.shape}")
    return arr @ stiffness_matrix(material).T


def compliance_bounds(material: IsotropicMaterial) -> tuple[float, float]:
    """Spectral bounds (M0, M1) of the compliance under the tensor dot product."""
    return (
        1.0 / (2.0 * material.mu + 2.0 * material.lam),
        1.0 / (2.0 * material.mu),
    )


def vertex_index(mesh: StructuredMesh, i, j):
    """Global id of vertex (i, j), 0 <= i, j <= n."""
    return j * (mesh.n + 1) + i


def element_index(mesh: StructuredMesh, i, j):
    """Global id of element (i, j), 0 <= i, j < n."""
    return j * mesh.n + i


def vertex_coords(mesh: StructuredMesh) -> np.ndarray:
    """Coordinates of every vertex, shape (n_vertices, 2)."""
    X, Y = np.meshgrid(mesh.h * np.arange(mesh.n + 1), mesh.h * np.arange(mesh.n + 1))
    return np.column_stack([X.ravel(), Y.ravel()])


def elem_vertices(mesh: StructuredMesh) -> np.ndarray:
    """Vertex ids of every element, counterclockwise from the lower-left corner."""
    e = np.arange(mesh.n_elements)
    ll = e + e // mesh.n
    return np.column_stack([ll, ll + 1, ll + mesh.n + 2, ll + mesh.n + 1])


def edge_counts(mesh: StructuredMesh) -> tuple[int, int]:
    """Numbers of vertical and of horizontal edges."""
    return (mesh.n + 1) * mesh.n, mesh.n * (mesh.n + 1)


def elem_edges(mesh: StructuredMesh) -> np.ndarray:
    """Edge ids of every element in the order (left, right, bottom, top)."""
    e = np.arange(mesh.n_elements)
    left = e + e // mesh.n
    bottom = edge_counts(mesh)[0] + e
    return np.column_stack([left, left + 1, bottom, bottom + mesh.n])


def edge_elements(mesh: StructuredMesh) -> dict:
    """Map edge id -> the ids of the one or two elements that touch it."""
    touch = {}
    for e, edges in enumerate(elem_edges(mesh)):
        for k in edges:
            touch.setdefault(int(k), []).append(e)
    return touch


def edge_vertices(mesh: StructuredMesh) -> np.ndarray:
    """End vertices of every edge, shape (n_edges, 2): vertical edges first, then horizontal."""
    n = mesh.n
    iv, jv = np.meshgrid(np.arange(n + 1), np.arange(n))
    vlow = (jv * (n + 1) + iv).ravel()
    ih, jh = np.meshgrid(np.arange(n), np.arange(n + 1))
    hlow = (jh * (n + 1) + ih).ravel()
    return np.vstack(
        [np.column_stack([vlow, vlow + n + 1]), np.column_stack([hlow, hlow + 1])]
    )


def edge_normal_axis(mesh: StructuredMesh) -> np.ndarray:
    """0 where an edge's fixed unit normal is +x (vertical edges), 1 where it is +y."""
    return np.repeat([0, 1], edge_counts(mesh))


def boundary_vertex(mesh: StructuredMesh) -> np.ndarray:
    """True for the vertices on the domain boundary."""
    xy = vertex_coords(mesh)
    gx, gy = np.rint(xy / mesh.h).astype(int).T
    return (gx == 0) | (gx == mesh.n) | (gy == 0) | (gy == mesh.n)


def boundary_edge(mesh: StructuredMesh) -> np.ndarray:
    """True for the edges on the domain boundary."""
    n = mesh.n
    iv = np.tile(np.arange(n + 1), n)
    jh = np.repeat(np.arange(n + 1), n)
    return np.concatenate([(iv == 0) | (iv == n), (jh == 0) | (jh == n)])


def element_at(mesh: StructuredMesh, x, y) -> int:
    """Id of an element that holds the point (x, y)."""
    return int(min(x // mesh.h, mesh.n - 1) + min(y // mesh.h, mesh.n - 1) * mesh.n)


def local_coords(mesh: StructuredMesh, elem, x, y):
    """Map physical coordinates to (xi, eta) in [-1, 1]^2 on element ``elem``.

    The extent is taken from the element's lower-left and upper-right
    vertices; the printed margins of acceptance criterion 8 depend on that
    rounding.
    """
    i, j = elem % mesh.n, elem // mesh.n
    lower = mesh.h * np.array([i, j])
    upper = mesh.h * np.array([i + 1, j + 1])
    center, half = 0.5 * (lower + upper), 0.5 * (upper - lower)
    xi = (np.asarray(x, float) - center[0]) / half[0]
    return xi, (np.asarray(y, float) - center[1]) / half[1]


def eval_stress(space: StressSpace, coeffs, elem, xi, eta) -> np.ndarray:
    """Stress field of a coefficient vector on element ``elem`` at local coords."""
    vals = space.local_values(xi, eta)
    c = np.asarray(coeffs, float)[space.eldof[elem]]
    return np.einsum("...la,l->...a", vals, c)


def eval_velocity(space: VelocitySpace, coeffs, elem, xi, eta) -> np.ndarray:
    """Velocity field of a coefficient vector on element ``elem`` at local coords."""
    vals = space.local_values(xi, eta)
    c = np.asarray(coeffs, float)[space.eldof[elem]]
    return np.einsum("...ld,l->...d", vals, c)


def _local_point(space, elem, ldof, x, y):
    if not 0 <= elem < space.mesh.n_elements:
        raise ValueError(f"element id {elem} out of range")
    if not 0 <= ldof < space.n_local:
        raise ValueError(f"local dof {ldof} out of range for {space.family}")
    xi, eta = local_coords(space.mesh, elem, x, y)
    if abs(xi) > 1.0 + 1e-12 or abs(eta) > 1.0 + 1e-12:
        raise ValueError(f"point ({x}, {y}) lies outside element {elem}")
    return xi, eta


def dof_component(space: StressSpace) -> np.ndarray:
    """Voigt component of every stress dof (0, 1, 2 for t11, t22, t12), read
    from the local-dof table through the local-to-global map."""
    comp = np.full(space.dim, -1)
    for l, (c, _) in enumerate(space.table):
        comp[space.eldof[:, l]] = c
    return comp


def mirrors(space: StressSpace) -> tuple:
    """The reflections x -> 1 - x and y -> 1 - y among the space's generators."""
    generators = space.generators
    return generators["x -> 1 - x"], generators["y -> 1 - y"]


def reflections(space: StressSpace) -> dict:
    """The generators of ``space``, found dof by dof: the image of each dof is
    the dof at the reflected grid point that holds the reflected component.

    The mirrors keep the component and put the sign -1 on the shear; the
    diagonal swaps t11 and t22.
    """
    m = 2 * space.mesh.n
    comp = dof_component(space)
    maps = {
        "x -> 1 - x": (lambda gx, gy: (m - gx, gy), (0, 1, 2), -1.0),
        "y -> 1 - y": (lambda gx, gy: (gx, m - gy), (0, 1, 2), -1.0),
        DIAGONAL: (lambda gx, gy: (gy, gx), (1, 0, 2), 1.0),
    }
    out = {}
    for name, (reflect, swap, shear_sign) in maps.items():
        p, s = np.empty(space.dim, dtype=np.intp), np.ones(space.dim)
        for i, point in enumerate(space.grid):
            (p[i],) = np.flatnonzero(
                np.all(space.grid == reflect(*point), axis=1) & (comp == swap[comp[i]])
            )
        s[comp == 2] = shear_sign
        out[name] = (p, s)
    return out


def velocity_generators(space: VelocitySpace) -> dict:
    """The reflections X, Y and D as signed permutations ``(p, s)`` of every velocity dof.

    The image of the field with coefficients ``b`` has coefficients
    ``s * b[p]``: under the mirror of axis a an element takes its
    coefficients from its mirror image, under the diagonal from its
    transpose, each local dof as ``local_generators`` says.
    """
    n = space.mesh.n
    grid = np.arange(n * n).reshape(n, n)  # by (j, i)
    images = (grid[:, ::-1], grid[::-1], grid.T)
    return {
        name: (((space.n_local * image.ravel())[:, None] + p).ravel(), np.tile(s, n * n))
        for name, image, (p, s) in zip((X, Y, D), images, space.local_generators.values())
    }


def stress_gram(space: StressSpace, weight3, rule=COMPOSITE) -> sp.csr_matrix:
    """Stress Gram matrix int (weight3 sigma_j) : tau_i, every element by ``rule``.

    ``weight3`` is the (3, 3) pointwise weight on Voigt triples, the
    compliance matrix for the stress mass; ``quadrature.CORNERS`` as the rule
    lumps it.
    """
    points, fractions = rule
    vals = space.local_values(points[:, 0], points[:, 1])
    w = space.mesh.h * space.mesh.h * fractions
    local = np.einsum("qia,ab,qjb,q->ij", vals, VOIGT_DOT @ weight3, vals, w)
    return full_scatter(local, space.eldof, space.eldof, (space.dim, space.dim))


def stress_basis_value(space: StressSpace, elem, ldof, x, y) -> VoigtTensor:
    """Value of one local stress basis function at a physical point of its element."""
    xi, eta = _local_point(space, elem, ldof, x, y)
    return VoigtTensor(*space.local_values(xi, eta)[ldof])


def stress_basis_divergence(space: StressSpace, elem, ldof, x, y) -> np.ndarray:
    """Divergence of one local stress basis function at a physical point."""
    xi, eta = _local_point(space, elem, ldof, x, y)
    return space.local_divergence(xi, eta)[ldof]


def velocity_basis_value(space: VelocitySpace, elem, ldof, x, y) -> np.ndarray:
    """Value of one local velocity basis function at a physical point."""
    xi, eta = _local_point(space, elem, ldof, x, y)
    return space.local_values(xi, eta)[ldof]


def full_scatter(local, row_dofs, col_dofs, shape, rows=None) -> sp.csr_matrix:
    """Scatter every entry of the local matrix onto every element and sum;
    with ``rows``, every other row is dropped afterwards."""
    ne, nr = row_dofs.shape
    nc = col_dofs.shape[1]
    i = np.broadcast_to(row_dofs[:, :, None], (ne, nr, nc))
    j = np.broadcast_to(col_dofs[:, None, :], (ne, nr, nc))
    data = np.broadcast_to(local, (ne, nr, nc))
    out = sp.coo_matrix((data.ravel(), (i.ravel(), j.ravel())), shape=shape).tocsr()
    out.sum_duplicates()
    if rows is not None:
        dropped = np.ones(shape[0], dtype=bool)
        dropped[rows] = False
        out.data[np.repeat(dropped, np.diff(out.indptr))] = 0.0
    out.eliminate_zeros()
    return out


def oversized(matrices: dict) -> list:
    """Names of the matrices whose ``data`` or ``indices`` is a view of a
    buffer with more slots than the matrix has entries."""
    return [
        name
        for name, M in matrices.items()
        if any(a.base is not None and a.base.size > M.nnz for a in (M.data, M.indices))
    ]


def assemble_mass_velocity(space: VelocitySpace, material) -> sp.csr_matrix:
    """Density-weighted velocity mass matrix C, its element matrix tiled."""
    local = material.rho * _local_velocity_gram(space)
    return block_diag_csr(local[None], space.mesh.n_elements)


def bsr_block_diag_inverse(C, k: int) -> sp.csr_matrix:
    """The inverse of the block-diagonal C with contiguous k x k blocks, by
    BSR: one block inverted and repeated if all are the same, every block
    inverted otherwise; converted to CSR, its zeros dropped and copied."""
    bsr = sp.bsr_matrix(C, blocksize=(k, k))
    uniform = np.all(bsr.data == bsr.data[0])
    inv = np.linalg.inv(bsr.data[:1] if uniform else bsr.data)
    if uniform:
        inv = np.repeat(inv, len(bsr.data), axis=0)
    out = sp.bsr_matrix((inv, bsr.indices, bsr.indptr), shape=C.shape).tocsr()
    out.eliminate_zeros()
    return out.copy()


def full_B(system) -> sp.csr_matrix:
    """The full-size B of ``system``, the coupling of its two spaces."""
    return assemble_coupling(system.stress_space, system.velocity_space)


def unfolded_schur(system, Cinv, dt: float) -> sp.csr_matrix:
    """The full S = (1/dt + 1/2) A + (dt/4) B^T Cinv B, unfolded: the
    coupling's rows formed from the rows of B^T Cinv, both sorted."""
    mass = (1.0 / dt + 0.5) * system.A
    B = full_B(system)
    BtCinv = B.T.tocsr() @ Cinv
    BtCinv.sort_indices()
    coupling = (0.25 * dt) * (BtCinv @ B)
    coupling.sort_indices()
    return mass + coupling


def folded_schur(system, Cinv, dt: float) -> sp.csr_matrix:
    """Lambda S[reps] P from ``unfolded_schur``, folded by the stress space's
    ``fold`` through its ``Fold.P``, whatever its group."""
    fold = system.stress_space.fold
    S = folded(unfolded_schur(system, Cinv, dt), fold, fold.P())
    S.data *= np.repeat(fold.sizes, np.diff(S.indptr))
    return S


def integrate(rule, f) -> float:
    """Apply a ``(points, weights)`` rule to ``f(x, y)``, one vectorized call."""
    points, weights = rule
    vals = np.asarray(f(points[:, 0], points[:, 1]), dtype=float)
    if vals.shape != weights.shape:
        raise ValueError(f"integrand returned shape {vals.shape}, expected {weights.shape}")
    return float(weights @ vals)


def _element_rule(space):
    """Composite-rule weights, local basis values and physical points of every element."""
    mesh = space.mesh
    points, fractions = COMPOSITE
    physical = mesh.element_centers()[:, None, :] + (0.5 * mesh.h) * points
    return mesh.h * mesh.h * fractions, space.local_values(points[:, 0], points[:, 1]), physical


def einsum_load(space: VelocitySpace, f, t) -> np.ndarray:
    """Reference load vector F[i] = int f . w_i, by one einsum over all elements."""
    w, vals, pts = _element_rule(space)
    fv = np.asarray(f(pts[..., 0], pts[..., 1], t), float)
    local = np.einsum("eqd,qld,q->el", fv, vals, w)
    return np.bincount(space.eldof.ravel(), weights=local.ravel(), minlength=space.dim)


def einsum_error(space, weight, coeffs, field, t) -> float:
    """Reference weighted L2 distance between a coefficient field and ``field``.

    ``weight`` is the pointwise (d, d) weight: the Voigt-dot compliance for
    the stress a-norm, ``rho * I`` for the velocity c-norm.
    """
    w, vals, pts = _element_rule(space)
    field_h = np.einsum("qla,el->eqa", vals, np.asarray(coeffs, float)[space.eldof])
    diff = field_h - np.asarray(field(pts[..., 0], pts[..., 1], t), float)
    val = np.einsum("eqa,ab,eqb,q->", diff, weight, diff, w)
    return float(np.sqrt(max(val, 0.0)))


# ------------------------------------------------- manufactured-field references


def _bcast(x, y, t):
    return np.broadcast_arrays(
        np.asarray(x, float), np.asarray(y, float), np.asarray(t, float)
    )


def _vec(a, b):
    return np.stack(np.broadcast_arrays(a, b), axis=-1)


def _voigt(a, b, c):
    return np.stack(np.broadcast_arrays(a, b, c), axis=-1)


def _reference_example1(rho):
    def g(z):
        return z * z * (z - 1.0) ** 2

    def gp(z):
        return 2.0 * z * (z - 1.0) * (2.0 * z - 1.0)

    def gpp(z):
        return 12.0 * z * z - 12.0 * z + 2.0

    def gppp(z):
        return 24.0 * z - 12.0

    def v(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(-t)
        return _vec(e * g(x) * gp(y), e * g(y) * gp(x))

    def v_t(x, y, t):
        return -v(x, y, t)

    def _sigma_spatial(x, y):
        s11 = 4.0 * gp(x) * gp(y)
        s12 = g(x) * gpp(y) + g(y) * gpp(x)
        return s11, s11, s12

    def sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        s11, s22, s12 = _sigma_spatial(x, y)
        return _voigt(te * s11, te * s22, te * s12)

    def div_sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        d1 = te * (5.0 * gpp(x) * gp(y) + g(x) * gppp(y))
        d2 = te * (5.0 * gp(x) * gpp(y) + g(y) * gppp(x))
        return _vec(d1, d2)

    def f(x, y, t):
        return rho * v_t(x, y, t) - div_sigma(x, y, t)

    return dict(v=v, sigma=sigma, f=f)


def _reference_example2(rho):
    pi = np.pi

    def v(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(-t) * np.sin(pi * x) * np.sin(pi * y)
        return _vec(e, e.copy())

    def v_t(x, y, t):
        return -v(x, y, t)

    def _sigma_spatial(x, y):
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        s11 = pi * (3.0 * cx * sy + sx * cy)
        s22 = pi * (3.0 * sx * cy + cx * sy)
        s12 = pi * (sx * cy + cx * sy)
        return s11, s22, s12

    def sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        s11, s22, s12 = _sigma_spatial(x, y)
        return _voigt(te * s11, te * s22, te * s12)

    def div_sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        d = pi * pi * te * (
            2.0 * np.cos(pi * x) * np.cos(pi * y)
            - 4.0 * np.sin(pi * x) * np.sin(pi * y)
        )
        return _vec(d, d.copy())

    def f(x, y, t):
        return rho * v_t(x, y, t) - div_sigma(x, y, t)

    return dict(v=v, sigma=sigma, f=f)


def _reference_example3(rho):
    pi = np.pi

    def p(z):
        return z**1.5 - z**2.5

    def pp(z):
        return 1.5 * z**0.5 - 2.5 * z**1.5

    def ppp(z):
        return 0.75 / np.sqrt(z) - 3.75 * np.sqrt(z)

    def v(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(t)
        return _vec(e * np.sin(pi * x) * p(y), e * np.sin(pi * y) * p(x))

    v_t = v

    def sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(t)
        s11 = pi * e * (1.5 * np.cos(pi * x) * p(y) + 0.5 * np.cos(pi * y) * p(x))
        s22 = pi * e * (1.5 * np.cos(pi * y) * p(x) + 0.5 * np.cos(pi * x) * p(y))
        s12 = 0.5 * e * (np.sin(pi * x) * pp(y) + np.sin(pi * y) * pp(x))
        return _voigt(s11, s22, s12)

    def div_sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(t)
        d1 = e * (
            -1.5 * pi * pi * np.sin(pi * x) * p(y)
            + pi * np.cos(pi * y) * pp(x)
            + 0.5 * np.sin(pi * x) * ppp(y)
        )
        d2 = e * (
            -1.5 * pi * pi * np.sin(pi * y) * p(x)
            + pi * np.cos(pi * x) * pp(y)
            + 0.5 * np.sin(pi * y) * ppp(x)
        )
        return _vec(d1, d2)

    def f(x, y, t):
        return rho * v_t(x, y, t) - div_sigma(x, y, t)

    return dict(v=v, sigma=sigma, f=f)


def reference_fields(example, rho=1.0) -> dict:
    """The fields (v, sigma, f) of a built-in example, as in ``viscowave.mms.ExactSolution``."""
    builders = {1: _reference_example1, 2: _reference_example2, 3: _reference_example3}
    return builders[example](rho)


# --------------------------------------------- manufactured-solution residual check


class ResidualReport(NamedTuple):
    """Maximum absolute momentum and constitutive residuals over the sample."""

    momentum: float
    constitutive: float


def _fd_scale(num, h):
    h = np.asarray(h, float)
    if h.ndim:
        h = h.reshape(h.shape + (1,) * (num.ndim - h.ndim))
    return num / (12.0 * h)


def _fd_t(fn, x, y, t, h):
    num = (
        -fn(x, y, t + 2 * h) + 8 * fn(x, y, t + h) - 8 * fn(x, y, t - h) + fn(x, y, t - 2 * h)
    )
    return _fd_scale(num, h)


def _fd_x(fn, x, y, t, h):
    num = (
        -fn(x + 2 * h, y, t) + 8 * fn(x + h, y, t) - 8 * fn(x - h, y, t) + fn(x - 2 * h, y, t)
    )
    return _fd_scale(num, h)


def _fd_y(fn, x, y, t, h):
    num = (
        -fn(x, y + 2 * h, t) + 8 * fn(x, y + h, t) - 8 * fn(x, y - h, t) + fn(x, y - 2 * h, t)
    )
    return _fd_scale(num, h)


def verify_residuals(
    solution: ExactSolution,
    material: IsotropicMaterial | None = None,
    n_samples: int = 1000,
    t_final: float = 1.0,
    margin: float | None = None,
    seed: int = 7,
) -> ResidualReport:
    """Check both model equations at quasi-random interior sample points.

    The momentum residual ``rho v_t - div sigma - f`` and the constitutive
    residual ``sigma + sigma_t - C eps(v)`` are formed from ``f``, ``sigma``
    and ``v`` alone: time derivatives of ``v`` and ``sigma`` and space
    derivatives for ``div sigma`` and ``eps(v)`` are fourth-order central
    differences (step 1e-4).  For the reduced-regularity example 3 the
    space step shrinks linearly with the distance to the singular edges and
    a boundary margin (default 1e-3) is excluded from the sample.
    """
    material = material or IsotropicMaterial()
    if margin is None:
        margin = 1e-3 if solution.example == 3 else 0.0
    sampler = qmc.Halton(d=3, scramble=True, seed=seed)
    pts = sampler.random(n_samples)
    x = margin + (1.0 - 2.0 * margin) * pts[:, 0]
    y = margin + (1.0 - 2.0 * margin) * pts[:, 1]
    t = t_final * pts[:, 2]

    ht = 1e-4
    if solution.example == 3:
        hx = np.minimum(1e-4, x / 300.0)
        hy = np.minimum(1e-4, y / 300.0)
    else:
        hx = hy = 1e-4

    sig, vel = solution.sigma, solution.v
    dsx = _fd_x(sig, x, y, t, hx)
    dsy = _fd_y(sig, x, y, t, hy)
    div_fd = np.stack([dsx[:, 0] + dsy[:, 2], dsx[:, 2] + dsy[:, 1]], axis=-1)
    momentum = (
        material.rho * _fd_t(vel, x, y, t, ht) - div_fd - solution.f(x, y, t)
    )

    dvx = _fd_x(vel, x, y, t, hx)
    dvy = _fd_y(vel, x, y, t, hy)
    strain_fd = np.stack(
        [dvx[:, 0], dvy[:, 1], 0.5 * (dvy[:, 0] + dvx[:, 1])], axis=-1
    )
    constitutive = (
        sig(x, y, t) + _fd_t(sig, x, y, t, ht) - apply_stiffness(material, strain_fd)
    )
    return ResidualReport(
        momentum=float(np.abs(momentum).max()),
        constitutive=float(np.abs(constitutive).max()),
    )


# ------------------------------------------------------------- energy identity


def energy_residuals(system, states, dt: float) -> np.ndarray:
    """Relative defect of the unforced energy identity along a trajectory.

    For states produced with zero body force, the energy at node J plus
    twice the accumulated midpoint dissipation must equal the initial
    energy; returns |defect| / E_0 for J = 1..M.
    """
    if len(states) < 2:
        raise ValueError("need at least two states")
    e0 = energy(system, states[0])
    if e0 <= 0.0:
        raise ValueError("initial energy must be positive")
    out = np.empty(len(states) - 1)
    dissipated = 0.0
    for j in range(1, len(states)):
        mid = 0.5 * (states[j - 1].alpha + states[j].alpha)
        dissipated += 2.0 * dt * float(mid @ (system.A @ mid))
        out[j - 1] = abs(energy(system, states[j]) + dissipated - e0) / e0
    return out


# D4's one-dimensional representations: the signs of the mirrors and of
# the diagonal in each, in block order.  E follows them (see ``sectors``).
ONE_DIM = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def character(signs) -> tuple:
    """Each member's sign, in ``MEMBERS``'s order, in the one-dimensional
    representation in which X, Y and D, or the first one or two, act as ``signs``."""
    out = (1,)
    for sign in signs:
        out += tuple(c * sign for c in out)
    return out


def sector(n, p, s, chi, named):
    """The sector of character ``chi`` of n indices, ``(rep, (col, coef))``,
    from the images ``p``, with signs ``s``, of its candidate names ``named``.

    The vector named after a is the sum of chi(g) g e_a, with coefficient 1
    at a; there is none when an element that fixes a carries the sign
    -chi(g).  ``rep`` holds the names, ``col`` the vector that holds each
    index (-1 if none) and ``coef`` the index's coefficient there (0 if none).
    """
    sign = np.array(chi)[:, None] * s
    has = ~np.any((p == named) & (sign < 0), axis=0)
    col = np.full(n, -1)
    coef = np.zeros(n, dtype=np.int8)
    col[p[:, has]] = np.arange(np.count_nonzero(has))
    coef[p[:, has]] = sign[:, has]
    return named[has], (col, coef)


def sectors(generators, rank, group=TRIVIAL):
    """The D4 blocks that the span of ``group``'s symmetric vectors holds, each
    ``(rep, (col, coef))``, one sector (see ``sector``).

    ``generators`` are X, Y and D.  A vector is named after the member of its
    orbit of lowest ``rank``, found by gathers of the minima over X, then Y,
    then D.  A one-dimensional block is held if its character is the group's
    on the group.  E, where XY acts as -1, has two sectors.  Without D in
    the group they are the mirror sectors, even under X and odd under Y and
    the reverse, each named on the orbits of the mirrors and held if its
    character is the group's there.  With D it is one sector, E's half where
    D acts as chi(D), named on the orbits of e, XY, D and XYD, held unless
    the group has XY with +1.  A block with no vector, which a tiny mesh can
    have, is left out.
    """
    (px, sx), (py, sy), (pd, sd) = generators
    chi = dict(group.members())  # by index in MEMBERS: XY is 3 and D is 4

    def held(signs):
        return all(signs[k] == c for k, c in chi.items())

    low = np.minimum(rank, rank[px])
    low = np.minimum(low, low[py])
    named = np.flatnonzero(low == rank)  # the minima over the mirrors
    d4_min = np.minimum(low, low[pd])[named] == rank[named]  # and over D4
    p, s = images(generators, named)
    blocks = []
    for m, d in ONE_DIM:
        signs = character((m, m, d))
        if held(signs):
            blocks.append(sector(len(rank), p[:, d4_min], s[:, d4_min], signs, named[d4_min]))
    if 4 not in chi:  # E's mirror sectors on the members of the mirrors, e, X, Y and XY
        for m in (1, -1):
            if held(character((m, -m))):
                blocks.append(sector(len(rank), p[:4], s[:4], character((m, -m)), named))
    elif chi.get(3, -1) == -1:  # E's half on the members e, XY, D and XYD
        xy = (py[px], sx * sy[px])
        low = np.minimum(rank, rank[xy[0]])
        named = np.flatnonzero(np.minimum(low, low[pd]) == rank)
        p, s = images((xy, (pd, sd)), named)
        blocks.append(sector(len(rank), p, s, character((-1, chi[4])), named))
    return [block for block in blocks if len(block[0])]


def outer_split(lu, interior, grid, generators):
    """``lu``'s split as it was found on the outer dofs alone: X, Y and D
    (``generators``, by name, on every dof) taken to the outer dofs by
    ``np.searchsorted``, the outer points ranked again in (gx, gy) order and
    the blocks of ``sectors`` under ``lu.fold``'s group, kept at the outer
    representatives.  Returns what ``CondensedLU`` keeps of it: ``Q``, the
    representatives of each block in nested-dissection order, each block's
    part of the columns and the scale Lambda_named / n of each column."""
    fold = lu.fold
    outer = np.delete(np.arange(len(grid)), interior)
    n, m = len(outer), len(lu.outer)
    perms = tuple((np.searchsorted(outer, p[outer]), s[outer]) for p, s in generators.values())
    grid = grid[outer]
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((grid[:, 1], grid[:, 0]))] = np.arange(n)
    row = np.full(len(fold.index), -1)
    row[fold.reps[lu.outer]] = np.arange(m)
    row, sizes = row[outer], fold.sizes[lu.outer]
    reps, parts, held, vec, coef = [], [], [], [], []
    for rep, (col, sign) in sectors(perms, rank, fold.group):
        order = nested_dissection(grid[rep])
        pos = np.empty(len(order), dtype=np.int32)
        pos[order] = np.arange(len(order), dtype=np.int32)
        start = parts[-1].stop if parts else 0
        h = np.flatnonzero((sign != 0) & (row >= 0))
        held.append(row[h])
        vec.append(start + pos[col[h]])
        coef.append(sign[h])
        reps.append(row[rep[order]])
        parts.append(slice(start, start + len(rep)))
    held, vec, coef = map(np.concatenate, (held, vec, coef))
    Q = sp.csr_matrix((coef.astype(float), (held, vec)), shape=(m, m))
    inv_size = sizes[np.concatenate(reps)] / np.bincount(vec, weights=sizes[held], minlength=m)
    return Q, reps, parts, inv_size
