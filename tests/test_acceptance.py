"""End-to-end acceptance suite: nine numbered criteria.

Criteria 1-4 reproduce the reference convergence tables at desk scale
(fine-time-step mesh refinement, then synchronous space-time refinement);
criteria 5-9 check the discrete energy identity, unconditional stability,
the manufactured-solution residual gate, element conformity, and the
stress-norm equivalence bounds.

Each test prints one ``[acceptance] criterion k: PASS/FAIL`` verdict line
through the capture bypass so the lines always reach the terminal log.
Expensive studies are shared module-scoped fixtures, and every study
fixture requires the residual gate first: no table run is considered
valid unless the manufactured solutions satisfy both model equations.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from viscowave.assembly import (
    assemble_mass_stress,
    assemble_stress_gram,
    assemble_system,
)
from viscowave.cli import RunConfig, convergence_study, format_study_csv, temporal_study
from viscowave.fespace import (
    FAMILIES,
    HMZ,
    NEDELEC,
    StressSpace,
    VelocitySpace,
)
from viscowave.linalg import block_diag_inverse, build_schur
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.timestepper import CNStepper, SimState, run

from fehelpers import (
    edge_elements,
    edge_normal_axis,
    edge_vertices,
    energy_residuals,
    eval_stress,
    eval_velocity,
    local_coords,
    verify_residuals,
    vertex_coords,
)

UNIT = IsotropicMaterial()
DATA = Path(__file__).parent / "data"

NS = [4, 8, 16, 32, 64]  # fine-time-step studies, dt = 0.005
MS = [4, 8, 12, 16]  # synchronous refinement, N = M^2/4

# Frozen reference columns (four printed decimals) and rates.
REF1_SIGMA = [0.0097, 0.0054, 0.0028, 0.0014, 0.0007]
REF1_VEL = [0.0032, 0.0018, 0.0008, 0.0004, 0.0002]
REF1_SIGMA_RATES = [0.83, 0.96, 0.99, 1.00]
REF1_VEL_RATES = [0.86, 0.97, 0.99, 1.00]
REF2_SIGMA_HMZ = [0.3524, 0.1784, 0.0896, 0.0448, 0.0224]
REF3_SIGMA_HMZ = [0.2531, 0.1307, 0.0661, 0.0332, 0.0167]
REF_SYNC_SIGMA_RATES_HMZ = {
    1: [1.79, 1.98, 2.00],
    2: [1.98, 2.00, 2.00],
    3: [1.94, 1.99, 1.99],
}


def _report(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num}: {verdict} - {detail}"
    # suspend capture so the verdict lines always reach the terminal log
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def _match_printed(computed, printed, rtol, unit):
    """Compare against targets rounded to ``unit``; rtol or one last digit.

    Returns (ok, worst relative deviation, count resolved at print precision).
    """
    ok, worst, at_unit = True, 0.0, 0
    for c, t in zip(computed, printed):
        rel = abs(c - t) / t
        worst = max(worst, rel)
        if rel > rtol:
            if abs(c - t) <= unit:
                at_unit += 1
            else:
                ok = False
    return ok, worst, at_unit


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def residual_gate():
    """Criterion 7 precondition: manufactured fields satisfy both equations."""
    reports = {}
    for ex in (1, 2, 3):
        margin = 1e-3 if ex == 3 else None
        reports[ex] = verify_residuals(exact_fields(ex), n_samples=1000, margin=margin)
    worst = max(max(r.momentum, r.constitutive) for r in reports.values())
    assert worst <= 1e-8, f"residual gate failed: {reports}"
    return reports


@pytest.fixture(scope="module")
def fine_step_studies(residual_gate):
    out = {}
    tic = time.perf_counter()
    out[HMZ, 1] = convergence_study(HMZ, 1, NS, dt=0.005)[0]
    out["seconds_1"] = time.perf_counter() - tic
    out[HMZ, 2] = convergence_study(HMZ, 2, NS, dt=0.005)[0]
    out[HMZ, 3] = convergence_study(HMZ, 3, NS, dt=0.005)[0]
    out[NEDELEC, 2] = convergence_study(NEDELEC, 2, NS, dt=0.005)[0]
    return out


@pytest.fixture(scope="module")
def synchronous_studies(residual_gate):
    return {
        (family, ex): temporal_study(family, ex, MS)[0]
        for family in FAMILIES
        for ex in (1, 2, 3)
    }


# ---------------------------------------------------------------------------
# criteria 1-4: convergence tables


def test_criterion_1_enriched_pair_example1_convergence(fine_step_studies, capsys):
    rows = fine_step_studies[HMZ, 1]
    es = [r["E_a_sigma"] for r in rows]
    ev = [r["E_c_v"] for r in rows]
    ok_s, dev_s, _ = _match_printed(es, REF1_SIGMA, 0.05, 1e-4)
    ok_v, dev_v, n_unit = _match_printed(ev, REF1_VEL, 0.05, 1e-4)
    rdev_s = max(
        abs(r["order_sigma"] - t) for r, t in zip(rows[1:], REF1_SIGMA_RATES)
    )
    rdev_v = max(abs(r["order_v"] - t) for r, t in zip(rows[1:], REF1_VEL_RATES))
    ok = ok_s and ok_v and rdev_s <= 0.1 and rdev_v <= 0.1
    _report(
        capsys,
        1,
        ok,
        f"E_a_sigma dev {dev_s:.1%}, E_c_v dev {dev_v:.1%} "
        f"({n_unit} entries at print precision), rate dev "
        f"{max(rdev_s, rdev_v):.3f} <= 0.1, "
        f"{fine_step_studies['seconds_1']:.0f}s",
    )


def test_criterion_2_example2_convergence_both_pairs(fine_step_studies, capsys):
    es = [r["E_a_sigma"] for r in fine_step_studies[HMZ, 2]]
    ok_h, dev_h, _ = _match_printed(es, REF2_SIGMA_HMZ, 0.05, 1e-4)
    rates = [r["order_sigma"] for r in fine_step_studies[NEDELEC, 2][1:]]
    # every refinement at least first order; the last two refinements carry
    # the superconvergent floor 1.7 with its stated tolerance 0.2
    ok_floor = all(o >= 1.0 for o in rates)
    ok_super = all(o >= 1.7 - 0.2 for o in rates[-2:])
    ok = ok_h and ok_floor and ok_super
    _report(
        capsys,
        2,
        ok,
        f"hmz dev {dev_h:.1%} <= 5%; vertex pair rates "
        + "/".join(f"{o:.2f}" for o in rates)
        + f", floors 1.0 and 1.5, min margin {min(o - 1.5 for o in rates[-2:]):+.3f}",
    )


def test_criterion_3_example3_reduced_regularity(fine_step_studies, capsys):
    es = [r["E_a_sigma"] for r in fine_step_studies[HMZ, 3]]
    ok, dev, _ = _match_printed(es, REF3_SIGMA_HMZ, 0.08, 1e-4)
    _report(capsys, 3, ok, f"hmz E_a_sigma dev {dev:.1%} <= 8%")


def test_criterion_4_synchronous_refinement_rates(synchronous_studies, capsys):
    dev_h = 0.0
    min_n = np.inf
    for ex in (1, 2, 3):
        rates_h = [r["order_sigma"] for r in synchronous_studies[HMZ, ex][1:]]
        dev_h = max(
            dev_h,
            max(abs(o - t) for o, t in zip(rates_h, REF_SYNC_SIGMA_RATES_HMZ[ex])),
        )
        rates_n = [r["order_sigma"] for r in synchronous_studies[NEDELEC, ex][1:]]
        min_n = min(min_n, min(rates_n))
    ok = dev_h <= 0.15 and min_n >= 2.5 - 0.3
    _report(
        capsys,
        4,
        ok,
        f"hmz rate dev {dev_h:.3f} <= 0.15; vertex pair min rate "
        f"{min_n:.3f} >= 2.2 (floor 2.5, tolerance 0.3)",
    )


def test_studies_reproduce_preset_csvs(fine_step_studies, synchronous_studies):
    # The fixtures run ten of the twelve presets (table1-3 at dt = 1/200 and
    # table7-9 on both families); their CSVs are kept byte for byte in
    # tests/data, so a moved digit shows here and is explained in CHANGES.md.
    studies = {f"table{ex}_{HMZ}": fine_step_studies[HMZ, ex] for ex in (1, 2, 3)}
    studies[f"table2_{NEDELEC}"] = fine_step_studies[NEDELEC, 2]
    for (family, ex), rows in synchronous_studies.items():
        studies[f"table{6 + ex}_{family}"] = rows
    assert len(studies) == 10
    for name, rows in studies.items():
        assert format_study_csv(rows) == (DATA / f"{name}.csv").read_text(), name


# ---------------------------------------------------------------------------
# criteria 5-6: energy identity and stability


def test_criterion_5_discrete_energy_identity(capsys):
    dt, m = 0.05, 20
    worst = {}
    for family in FAMILIES:
        mesh = StructuredMesh(8, 8)
        ss = StressSpace(mesh, family)
        vs = VelocitySpace(mesh, family)
        system = assemble_system(ss, vs, UNIT)
        stepper = CNStepper(
            system, build_schur(system, block_diag_inverse(system.C, vs.n_local), dt, 1e-12)
        )
        rng = np.random.default_rng(42)
        state = SimState(rng.standard_normal(ss.dim), rng.standard_normal(vs.dim))
        states = [state]
        zero = np.zeros(vs.dim)
        for _ in range(m):
            state = stepper.advance(state, zero, dt)
            states.append(state)
        worst[family] = float(energy_residuals(system, states, dt).max())
    ok = all(w <= 1e-9 for w in worst.values())
    _report(
        capsys,
        5,
        ok,
        "identity defect "
        + ", ".join(f"{f} {w:.2e}" for f, w in worst.items())
        + " <= 1e-9 at every node (N=8, M=20, random data)",
    )


def test_criterion_6_stability_across_time_steps(capsys):
    details = []
    ok = True
    for family in FAMILIES:
        finals = []
        for dt, m in [(0.5, 2), (0.1, 10), (0.02, 50)]:
            cfg = RunConfig(
                element=family, example=2, nx=8, n_steps=m, dt=dt, t_final=1.0
            )
            finals.append(float(run(cfg).energy[-1]))
        spread = max(finals) / min(finals)
        ok = ok and all(np.isfinite(finals)) and spread <= 3.0
        details.append(f"{family} spread {spread:.2f}")
    _report(capsys, 6, ok, "; ".join(details) + " <= 3 across dt in {0.5, 0.1, 0.02}")


# ---------------------------------------------------------------------------
# criterion 7: manufactured-solution residual gate


def test_criterion_7_manufactured_solution_residual_gate(residual_gate, capsys):
    worst = max(
        max(r.momentum, r.constitutive) for r in residual_gate.values()
    )
    _report(
        capsys,
        7,
        worst <= 1e-8,
        f"worst residual {worst:.2e} <= 1e-8 at 1000 samples, examples 1-3",
    )


# ---------------------------------------------------------------------------
# criterion 8: element conformity


def _owning_elem(mesh, x, y):
    ix = min(int(x * mesh.nx), mesh.nx - 1)
    iy = min(int(y * mesh.ny), mesh.ny - 1)
    return ix + mesh.nx * iy


def _stress_member(mesh, space, coeffs):
    def field(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty(np.shape(x) + (3,))
        flat = out.reshape(-1, 3)
        for k, (xk, yk) in enumerate(zip(x.ravel(), y.ravel())):
            e = _owning_elem(mesh, xk, yk)
            xi, eta = local_coords(mesh, e, xk, yk)
            flat[k] = eval_stress(space, coeffs, e, xi, eta)
        return out

    return field


def _velocity_member(mesh, space, coeffs):
    def field(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty(np.shape(x) + (2,))
        flat = out.reshape(-1, 2)
        for k, (xk, yk) in enumerate(zip(x.ravel(), y.ravel())):
            e = _owning_elem(mesh, xk, yk)
            xi, eta = local_coords(mesh, e, xk, yk)
            flat[k] = eval_velocity(space, coeffs, e, xi, eta)
        return out

    return field


def _max_trace_jump(mesh, space, coeffs, pts_per_edge=5):
    """Largest jump of sigma.n across interior edges; also returns the count."""
    frac = np.linspace(0.1, 0.9, pts_per_edge)
    ends, normal_axis, xy = edge_vertices(mesh), edge_normal_axis(mesh), vertex_coords(mesh)
    worst, checked = 0.0, 0
    for k, elems in edge_elements(mesh).items():
        if len(elems) != 2:
            continue
        a, b = ends[k]
        pts = xy[a] + frac[:, None] * (xy[b] - xy[a])
        axis = normal_axis[k]
        for x, y in pts:
            traces = []
            for e in elems:
                xi, eta = local_coords(mesh, e, x, y)
                s11, s22, s12 = eval_stress(space, coeffs, e, xi, eta)
                traces.append((s11, s12) if axis == 0 else (s12, s22))
            worst = max(worst, float(np.abs(np.subtract(*traces)).max()))
            checked += 1
    return worst, checked


def test_criterion_8_element_conformity(capsys):
    dev_nodal, dev_jump, dev_const = 0.0, 0.0, 0.0
    for family in FAMILIES:
        for n in (2, 3):
            mesh = StructuredMesh(n, n)
            ss = StressSpace(mesh, family)
            vs = VelocitySpace(mesh, family)

            # unisolvence: applying the degree-of-freedom functionals to the
            # basis must give the identity matrix
            K = np.empty((ss.dim, ss.dim))
            for j in range(ss.dim):
                unit = np.zeros(ss.dim)
                unit[j] = 1.0
                K[:, j] = ss.interpolate(_stress_member(mesh, ss, unit))
            dev_nodal = max(dev_nodal, float(np.abs(K - np.eye(ss.dim)).max()))
            Kv = np.empty((vs.dim, vs.dim))
            for j in range(vs.dim):
                unit = np.zeros(vs.dim)
                unit[j] = 1.0
                Kv[:, j] = vs.project(_velocity_member(mesh, vs, unit))
            dev_nodal = max(dev_nodal, float(np.abs(Kv - np.eye(vs.dim)).max()))

            # normal-trace continuity for a random member
            rng = np.random.default_rng(10 * n + len(family))
            jump, checked = _max_trace_jump(mesh, ss, rng.standard_normal(ss.dim))
            assert checked == 5 * 2 * n * (n - 1)
            dev_jump = max(dev_jump, jump)

            # constant reproduction
            const_s = np.array([1.3, -0.7, 0.4])
            cs = ss.interpolate(
                lambda x, y: np.broadcast_to(const_s, np.shape(x) + (3,))
            )
            const_v = np.array([0.8, -1.1])
            cv = vs.project(
                lambda x, y: np.broadcast_to(const_v, np.shape(x) + (2,))
            )
            for _ in range(20):
                e = int(rng.integers(mesh.n_elements))
                xi, eta = rng.uniform(-1.0, 1.0, size=2)
                dev_const = max(
                    dev_const,
                    float(np.abs(eval_stress(ss, cs, e, xi, eta) - const_s).max()),
                    float(np.abs(eval_velocity(vs, cv, e, xi, eta) - const_v).max()),
                )
    ok = max(dev_nodal, dev_jump, dev_const) <= 1e-12
    _report(
        capsys,
        8,
        ok,
        f"unisolvence {dev_nodal:.1e}, trace jump {dev_jump:.1e}, "
        f"constants {dev_const:.1e} <= 1e-12 (both families, N=2,3)",
    )


# ---------------------------------------------------------------------------
# criterion 9: stress-norm equivalence


def test_criterion_9_stress_norm_equivalence(capsys):
    lo, hi = np.inf, 0.0
    ok = True
    for family in FAMILIES:
        mesh = StructuredMesh(4, 4)
        ss = StressSpace(mesh, family)
        pairs = [(assemble_mass_stress(ss, UNIT), assemble_stress_gram(ss))]
        if family == NEDELEC:  # the scheme's lumped matrices obey the same bounds
            pairs.append(
                (
                    assemble_mass_stress(ss, UNIT, lumped=True),
                    assemble_stress_gram(ss, lumped=True),
                )
            )
        rng = np.random.default_rng(3)
        for A, G in pairs:
            for _ in range(1000):
                tau = rng.standard_normal(ss.dim)
                qa = float(tau @ (A @ tau))
                q0 = float(tau @ (G @ tau))
                ratio = qa / q0
                lo, hi = min(lo, ratio), max(hi, ratio)
                ok = ok and 0.25 * q0 - 1e-12 * q0 <= qa <= 0.5 * q0 + 1e-12 * q0
    _report(
        capsys,
        9,
        ok,
        f"observed ratio range [{lo:.4f}, {hi:.4f}] inside [0.25, 0.5] "
        "(1000 fields per matrix pair)",
    )
