"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Each criterion enforces its own wall-clock
budget; exceeding the budget fails the criterion even if every check
inside it passed.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import membrane as mb
from membrane.assembly import assemble
from membrane.cli import main as cli_main
from membrane.convergence import fit_rate, run_study, study_from_json
from membrane.integrator import (
    NewmarkParams,
    State,
    default_timestep,
    energy,
    factor_once,
    init_state,
    step,
)
from membrane.material import max_wave_speed, validate_elastic_matrix
from membrane.mesh import boundary_nodes, central_element_pair, nearest_node
from membrane.scenarios import CaseSpec, LoadSpec, ScenarioConfig, run

from conftest import orthotropic_gpa
from reference_element import (
    recover_stress_strain,
    shape_coefficients,
    shape_values,
)
from test_assembly import assert_elementwise_close, dense_assemble, _perturbed_grid
from test_integrator import _integrate_oscillator

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

POLYMER = dict(E=2.0e9, nu=0.3, rho=1200.0, h=1.0e-3)


def _polymer():
    return mb.MaterialParams(
        d=mb.isotropic(POLYMER["E"], POLYMER["nu"]), rho=POLYMER["rho"], h=POLYMER["h"]
    )


class criterion:
    """Times one criterion body and prints its single pass/fail line."""

    def __init__(self, num: int, label: str, budget_s: float):
        self.num, self.label, self.budget = num, label, budget_s
        self.note = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed <= self.budget
        extra = f" {self.note}" if self.note else ""
        print(
            f"criterion {self.num:>2}: {'PASS' if ok else 'FAIL'}  "
            f"{self.label}{extra}  ({elapsed:.2f}s / {self.budget:.0f}s)",
            flush=True,
        )
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.num} exceeded its {self.budget:.0f}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _random_ccw_triangles(rng, count, span=1.0, min_doubled_area=0.1):
    """(count, 3, 2) well-conditioned CCW triangles."""
    tri = rng.uniform(-span, span, size=(int(count * 1.6), 3, 2))
    x, y = tri[:, :, 0], tri[:, :, 1]
    se = (
        x[:, 0] * (y[:, 1] - y[:, 2])
        + x[:, 1] * (y[:, 2] - y[:, 0])
        + x[:, 2] * (y[:, 0] - y[:, 1])
    )
    flip = se < 0.0
    tri[flip] = tri[flip][:, ::-1, :]
    keep = np.abs(se) > min_doubled_area
    tri = tri[keep]
    assert tri.shape[0] >= count
    return np.ascontiguousarray(tri[:count])


def test_criterion_01_element_properties():
    with criterion(1, "element property suite (1e5 random triangles)", 5.0):
        rng = np.random.default_rng(2024)
        n = 100_000
        tri = _random_ccw_triangles(rng, n)

        d = orthotropic_gpa()
        validate_elastic_matrix(d)
        assert np.linalg.eigvalsh(d).min() > 0.0
        poly = _polymer()
        validate_elastic_matrix(poly.d)

        material = mb.MaterialParams(d=d, rho=7800.0, h=1e-3)
        fake = mb.Mesh(
            nodes=tri.reshape(-1, 2),
            triangles=np.arange(3 * n, dtype=np.int64).reshape(n, 3),
        )
        # the triangles share no node, so K and M are block diagonal with
        # one 9x9 block per element, in element order
        system = assemble(fake, material)
        ke = system.K.tobsr(blocksize=(9, 9)).data
        me = system.M.tobsr(blocksize=(9, 9)).data
        area = fake.areas()

        # rigid-translation nullspace of every K_e
        t_vecs = np.zeros((9, 3))
        for k in range(3):
            t_vecs[k::3, k] = 1.0
        resid = np.einsum("eij,jk->eik", ke, t_vecs)
        scale = np.abs(ke).max(axis=(1, 2))
        assert (np.abs(resid).max(axis=(1, 2)) <= 1e-12 * scale).all()

        # patch test, energy form: a^T K_e a == h*A*eps^T D eps for
        # nodal values of a random linear displacement field
        grad = rng.uniform(-1.0, 1.0, size=(n, 3, 3))
        ones_xy = np.concatenate([np.ones((n, 3, 1)), tri], axis=2)
        a_e = np.einsum("ecg,evg->evc", grad, ones_xy).reshape(n, 9)
        eps = np.zeros((n, 6))
        eps[:, 0] = grad[:, 0, 1]
        eps[:, 1] = grad[:, 1, 2]
        eps[:, 3] = grad[:, 0, 2] + grad[:, 1, 1]
        eps[:, 4] = grad[:, 2, 2]
        eps[:, 5] = grad[:, 2, 1]
        q_fem = np.einsum("ei,eij,ej->e", a_e, ke, a_e)
        q_exact = material.h * area * np.einsum("ei,ij,ej->e", eps, d, eps)
        # roundoff scale of the quadratic form: same sum with magnitudes,
        # so constant offsets in a (annihilated by K_e) are accounted for
        q_mag = np.einsum("ei,eij,ej->e", np.abs(a_e), np.abs(ke), np.abs(a_e))
        assert (np.abs(q_fem - q_exact) <= 1e-12 * q_mag).all()

        # consistent mass: uniform unit motion weighs rho*h*A, per direction
        for k in range(3):
            got = np.einsum("i,eij,j->e", t_vecs[:, k], me, t_vecs[:, k])
            ref = material.rho * material.h * area
            assert (np.abs(got - ref) <= 1e-13 * ref).all()

        # pointwise partition of unity and strain recovery on a subsample
        sub = rng.choice(n, size=10_000, replace=False)
        for e in sub[:5000]:
            sc = shape_coefficients(tri[e])
            s, t = rng.uniform(0.0, 1.0, 2)
            if s + t > 1.0:
                s, t = 1.0 - s, 1.0 - t
            p = tri[e, 0] + s * (tri[e, 1] - tri[e, 0]) + t * (tri[e, 2] - tri[e, 0])
            assert abs(shape_values(sc, p[0], p[1]).sum() - 1.0) <= 1e-12
        for e in sub[5000:]:
            sc = shape_coefficients(tri[e])
            strain, _ = recover_stress_strain(sc, d, a_e[e])
            assert np.abs(strain - eps[e]).max() <= 1e-12


def test_criterion_02_sparse_matches_dense(steel, polymer):
    with criterion(2, "assembled sparse == dense brute force (tol 1e-13)", 5.0):
        cases = [
            (mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 3, 3)), steel),
            (mb.generate_structured(mb.StructuredSpec(2.0, 1.0, 6, 6)), polymer),
            (_perturbed_grid(5, 5, seed=11),
             mb.MaterialParams(d=orthotropic_gpa(), rho=7800.0, h=1e-3)),
        ]
        for mesh, material in cases:
            assert mesh.n_nodes <= 50
            sys0 = assemble(mesh, material)
            kd, md = dense_assemble(mesh, material)
            assert_elementwise_close(sys0.K.toarray(), kd, 1e-13)
            assert_elementwise_close(sys0.M.toarray(), md, 1e-13)


def test_criterion_03_oscillator_order_and_stability(polymer):
    with criterion(3, "oscillator order 2.0+-0.1; stable at 100x CFL", 5.0) as c:
        omega, t_final = 2.0, 1.0
        errors = []
        for n in (50, 100, 200, 400):
            state = _integrate_oscillator(omega, t_final, n)
            errors.append(abs(state.a[0] - math.cos(omega * t_final)))
        order = fit_rate(errors)
        c.note = f"(order {order:.3f})"
        assert 1.9 <= order <= 2.1

        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 8, 8))
        raw = assemble(mesh, polymer)
        sysc = assemble(mesh, polymer)
        cfl = mesh.min_edge_length() / max_wave_speed(polymer)
        tau = 100.0 * cfl
        params = NewmarkParams(tau=tau)
        rng = np.random.default_rng(7)
        a0 = rng.uniform(-1e-3, 1e-3, sysc.ndof)
        f = np.zeros(sysc.ndof)
        state = init_state(sysc, f, a0=a0)
        factor = factor_once(sysc, params)
        e0 = sum(energy(state, raw.K, raw.M))
        for _ in range(1000):
            state = step(state, factor, f)
        assert np.all(np.isfinite(state.a))
        assert sum(energy(state, raw.K, raw.M)) <= e0 * (1.0 + 1e-8)
        assert np.abs(state.a).max() <= 1e3 * np.abs(a0).max()


def test_criterion_04_constraints_hold_over_1e4_steps(polymer):
    with criterion(4, "strike velocity constant, border pinned, 1e4 steps", 30.0):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 16, 16))
        tau = default_timestep(mesh, polymer)
        cfg = ScenarioConfig(
            mesh=mesh, material=polymer, case=CaseSpec(case_id=3, speed=1.0),
            border="fixed", t_final=10_000 * tau, tau=tau, every_n_steps=100,
        )
        res = run(cfg)
        assert res.n_steps == 10_000
        node = nearest_node(mesh, (0.5, 0.5))
        border = boundary_nodes(mesh)
        bdofs = (3 * border[:, None] + np.arange(3)[None, :]).ravel()
        for s in res.snapshots[1:]:
            v = s.adot[3 * node: 3 * node + 3]
            assert v[0] == 0.0 and v[1] == 0.0 and v[2] == 1.0
            assert np.abs(s.a[bdofs]).max() <= 1e-12


def test_criterion_05_isotropic_decoupling(polymer):
    with criterion(5, "isotropic decoupling on 64x64 (tol 1e-12)", 60.0):
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 64, 64))
        tau = default_timestep(mesh, polymer)

        normal = ScenarioConfig(
            mesh=mesh, material=polymer,
            case=CaseSpec(case_id=1, b0=1e6, window=(0.0, 30 * tau)),
            border="fixed", t_final=300 * tau, tau=tau, every_n_steps=30,
        )
        res = run(normal)
        for s in res.snapshots:
            assert max(np.abs(s.a[0::3]).max(), np.abs(s.a[1::3]).max()) <= 1e-12
        assert np.abs(res.final_state.a[2::3]).max() > 0.0

        inplane = ScenarioConfig(
            mesh=mesh, material=polymer,
            case=LoadSpec(
                kind="element-uniform", direction=(1.0, 0.0, 0.0), b0=1e6,
                window=(0.0, 30 * tau), elements=central_element_pair(mesh),
            ),
            border="fixed", t_final=300 * tau, tau=tau, every_n_steps=30,
        )
        res = run(inplane)
        for s in res.snapshots:
            assert np.abs(s.a[2::3]).max() <= 1e-12
        assert np.abs(res.final_state.a[0::3]).max() > 0.0


def test_criterion_06_mirror_symmetry(polymer):
    with criterion(6, "case-1 |velocity| mirror-symmetric (tol 1e-10)", 60.0) as c:
        n = 64
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
        tau = default_timestep(mesh, polymer)
        cfg = ScenarioConfig(
            mesh=mesh, material=polymer,
            case=CaseSpec(case_id=1, b0=1e6, window=(0.0, 24 * tau)),
            border="fixed", t_final=240 * tau, tau=tau, every_n_steps=20,
        )
        res = run(cfg)
        idx = lambda i, j: j * (n + 1) + i
        swap = np.array([idx(j, i) for j in range(n + 1) for i in range(n + 1)])
        worst = 0.0
        peak = 0.0
        for s in res.snapshots:
            v = s.adot.reshape(-1, 3)
            vm = np.sqrt((v * v).sum(axis=1))
            worst = max(worst, np.abs(vm - vm[swap]).max())
            peak = max(peak, vm.max())
        c.note = f"(worst {worst:.2e}, peak |v| {peak:.2e})"
        assert peak > 1e-3  # the comparison must not be vacuous
        assert worst <= 1e-10


def test_criterion_07_shipped_config_convergence():
    with criterion(7, "refinement studies: shipped configs hit rate bands", 900.0) as c:
        notes = []
        for cid in (1, 2, 3, 4, 5):
            spec = study_from_json(str(CONFIG_DIR / f"study_case{cid}.json"))
            assert spec.k_max == 4
            assert spec.scenario.mesh.nx <= 16 and spec.scenario.mesh.ny <= 16
            res = run_study(spec)
            assert res.levels[-1].nx == 128 and res.levels[-1].ny == 128
            lo = 2.0 if cid == 1 else 1.2
            for w, rate in res.rates.items():
                assert lo <= rate <= 3.5, (
                    f"case {cid} {w} rate {rate:.3f} outside [{lo}, 3.5]"
                )
            notes.append(f"c{cid}:{min(res.rates.values()):.2f}-{max(res.rates.values()):.2f}")
        c.note = "(" + " ".join(notes) + ")"


def _xcorr_delay(times, vals):
    """Arrival-time difference between two probe series.

    Lag maximizing the cross-correlation of the waveforms, refined by a
    parabolic fit around the peak.  Weighting by the waveform itself
    keeps the estimate on the well-resolved wave packet rather than the
    grid-scale precursors, which both discretizations disperse.
    """
    v1, v2 = np.asarray(vals[:, 0]), np.asarray(vals[:, 1])
    dt = float(times[1] - times[0])
    corr = np.correlate(v2, v1, "full")
    i = int(np.argmax(corr))
    k = i - (len(v1) - 1)
    off = 0.0
    if 0 < i < len(corr) - 1:
        y0, y1, y2 = corr[i - 1], corr[i], corr[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            off = 0.5 * (y0 - y2) / denom
    return (k + off) * dt


def _fd_shear_wave_speed(c_wave, window_end, t_final, src_lo, src_hi, probes_x, n=128):
    """Independent reference: leapfrog FD for rho*w_tt = mu*laplace(w).

    Returns the arrival speed measured between two probes on the
    horizontal midline, using the same source region, load window, and
    delay estimator as the membrane run.  Entirely separate
    discretization: 5-point Laplacian, explicit leapfrog, nodal forcing.
    """
    h = 1.0 / n
    dt = 0.4 * h / c_wave
    steps = int(math.ceil(t_final / dt))
    shape = (n + 1, n + 1)
    w_prev = np.zeros(shape)
    w_curr = np.zeros(shape)
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    src = (
        (gx >= src_lo - 1e-12) & (gx <= src_hi + 1e-12)
        & (gy >= src_lo - 1e-12) & (gy <= src_hi + 1e-12)
    ).astype(float)
    probe_ij = [(int(round(px * n)), n // 2) for px in probes_x]
    times = np.empty(steps)
    vel = np.empty((steps, len(probe_ij)))
    lap = np.zeros(shape)
    for k in range(steps):
        t = k * dt
        lap[1:-1, 1:-1] = (
            w_curr[2:, 1:-1] + w_curr[:-2, 1:-1]
            + w_curr[1:-1, 2:] + w_curr[1:-1, :-2]
            - 4.0 * w_curr[1:-1, 1:-1]
        ) / h**2
        forcing = src if t <= window_end else 0.0
        w_next = 2.0 * w_curr - w_prev + dt**2 * (c_wave**2 * lap + forcing)
        w_next[0, :] = w_next[-1, :] = w_next[:, 0] = w_next[:, -1] = 0.0
        w_prev, w_curr = w_curr, w_next
        times[k] = (k + 1) * dt
        for i, (ix, iy) in enumerate(probe_ij):
            vel[k, i] = (w_curr[ix, iy] - w_prev[ix, iy]) / dt
    cx = cy = 0.5 * (src_lo + src_hi)
    r1 = math.hypot(round(probes_x[0] * n) / n - cx, 0.5 - cy)
    r2 = math.hypot(round(probes_x[1] * n) / n - cx, 0.5 - cy)
    return (r2 - r1) / _xcorr_delay(times, vel)


def test_criterion_08_shear_wave_speed(polymer):
    with criterion(8, "first-arrival speed vs sqrt(E/(2(1+nu)rho))", 300.0) as c:
        c_shear = math.sqrt(POLYMER["E"] / (2.0 * (1.0 + POLYMER["nu"]) * POLYMER["rho"]))
        n = 128
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, n, n))
        window_end = 3.2e-5
        t_final = 5.5e-4
        tau = 1e-6
        probes_x = (84.0 / n, 109.0 / n)
        pair = central_element_pair(mesh)
        cell_lo = 0.5
        cell_hi = 0.5 + 1.0 / n

        # verify the measurement pipeline against an independent
        # discretization before trusting it on the membrane solver
        c_fd = _fd_shear_wave_speed(
            c_shear, window_end, t_final, cell_lo, cell_hi, probes_x, n=n
        )
        assert abs(c_fd - c_shear) <= 0.05 * c_shear, (
            f"reference discretization arrival speed {c_fd:.1f} deviates "
            f"from {c_shear:.1f}"
        )

        probe_nodes = [nearest_node(mesh, (px, 0.5)) for px in probes_x]
        cfg = ScenarioConfig(
            mesh=mesh, material=polymer,
            case=CaseSpec(case_id=1, b0=1e6, window=(0.0, window_end)),
            border="fixed", t_final=t_final, tau=tau, every_n_steps=1,
        )
        times, vals = [], []

        def record(state):
            times.append(state.t)
            vals.append([state.adot[3 * p + 2] for p in probe_nodes])

        run(cfg, on_snapshot=record, keep_snapshots=False)
        times = np.asarray(times[1:])
        vals = np.asarray(vals[1:])
        cx = cy = 0.5 * (cell_lo + cell_hi)
        radii = [
            math.hypot(mesh.nodes[p, 0] - cx, mesh.nodes[p, 1] - cy)
            for p in probe_nodes
        ]
        c_fem = (radii[1] - radii[0]) / _xcorr_delay(times, vals)
        c.note = f"(fd {c_fd:.0f}, fem {c_fem:.0f}, exact {c_shear:.0f} m/s)"
        assert abs(c_fem - c_shear) <= 0.10 * c_shear


def test_criterion_09_energy_drift_after_load(polymer):
    with criterion(9, "energy drift <= 1% over 1e4 steps after load", 120.0) as c:
        mesh = mb.generate_structured(mb.StructuredSpec(1.0, 1.0, 16, 16))
        tau = default_timestep(mesh, polymer)
        window_end = 50 * tau
        cfg = ScenarioConfig(
            mesh=mesh, material=polymer,
            case=CaseSpec(case_id=1, b0=1e6, window=(0.0, window_end)),
            border="fixed", t_final=10_050 * tau, tau=tau, every_n_steps=500,
        )
        res = run(cfg)
        carried = res.system.dofs
        energies = [
            sum(energy(State(s.a[carried], s.adot[carried], s.addot[carried], s.t, s.step),
                       res.system.K, res.system.M))
            for s in res.snapshots
            if s.t > window_end * (1.0 + 1e-9)
        ]
        assert len(energies) >= 20
        e_ref = energies[0]
        assert e_ref > 0.0
        drift = max(abs(e - e_ref) for e in energies) / e_ref
        c.note = f"(drift {drift:.2e})"
        assert drift <= 0.01


def test_criterion_10_study_csv_determinism(tmp_path):
    with criterion(10, "study CSV bytes identical: reruns and 1 vs 2 BLAS threads", 300.0):
        study = str(CONFIG_DIR / "study_case1.json")
        out = tmp_path / "a"
        assert cli_main(["convergence", study, "--out", str(out)]) == 0
        blobs = {"a": (out / "study.csv").read_bytes()}
        # the BLAS thread count is read once, at process start
        for name, threads in (("b", "1"), ("c", "2")):
            out = tmp_path / name
            path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-m", "membrane.cli", "convergence", study,
                            "--out", str(out)], env=env, check=True, stdout=subprocess.DEVNULL)
            blobs[name] = (out / "study.csv").read_bytes()
        assert blobs["a"] == blobs["b"], "reruns differ"
        assert blobs["b"] == blobs["c"], "BLAS thread counts differ"
