"""Acceptance gate: ten numbered criteria, one printed line each.

Long trajectories are shared across criteria through module-scoped
fixtures; the whole module is a few minutes of compute.  Each test
emits exactly one `[criterion NN] PASS/FAIL: ...` line on the live
terminal (bypassing capture) and then asserts.
"""

import math
import pathlib

import numpy as np
import pytest

from isork.cli import _max_of
from isork.diagnostics import convergence_study, run_recorded, write_csv
from isork.integrator import (
    StepperConfig,
    classical_rk4_step,
    cotangent_lift,
    cotangent_sdirk_step,
    gawlik_step,
    isospectral_sdirk_step,
    momentum_map,
    run_trajectory,
    solve_stage,
)
from isork.quadlie import (
    cayley,
    cayley_conjugate,
    dcay,
    dcay_inv,
    frobenius_pairing,
    membership_residuals,
    orthogonal_structure,
    random_algebra_element,
    special_unitary_structure,
    spectrum,
)
from isork.systems import (
    RigidBody,
    TodaExtended,
    ZeitlinSphere,
    toda_lax_matrices,
    zeitlin_spin_generators,
)
from isork.tableau import BUILTIN_TABLEAUS, builtin

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def criterion(capsys):
    def emit(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
        assert ok, detail

    return emit


def _cfg(update_form="conjugation", tableau="midpoint"):
    return StepperConfig(update_form=update_form, tableau=builtin(tableau))


# --- shared long runs -------------------------------------------------------


@pytest.fixture(scope="module")
def rigid_conj_records():
    # Rigid body, h = 0.01, 1e5 midpoint steps (t_final = 1000); dense
    # recording feeds the energy fit and the Casimir series too.
    sys = RigidBody()
    return run_recorded(sys, sys.initial_state(42), _cfg(), 0.01, 100_000)


@pytest.fixture(scope="module")
def rigid_dcay_records():
    sys = RigidBody()
    return run_recorded(sys, sys.initial_state(42), _cfg("dcay"), 0.01, 100_000, record_every=100)


@pytest.fixture(scope="module")
def toda_conj_records():
    sys = TodaExtended(n=4)
    return run_recorded(sys, sys.initial_state(0), _cfg(), 0.1, 10_000, record_every=10)


@pytest.fixture(scope="module")
def toda_dcay_records():
    sys = TodaExtended(n=4)
    return run_recorded(sys, sys.initial_state(0), _cfg("dcay"), 0.1, 10_000, record_every=10)


@pytest.fixture(scope="module")
def zeitlin_conj_records():
    sys = ZeitlinSphere(N=17)
    return run_recorded(sys, sys.initial_state(0), _cfg(), 0.0025, 10_000, record_every=20)


@pytest.fixture(scope="module")
def zeitlin_dcay_records():
    sys = ZeitlinSphere(N=17)
    return run_recorded(sys, sys.initial_state(0), _cfg("dcay"), 0.0025, 10_000, record_every=20)


def _max_drift(records):
    return _max_of(r.spectral_drift for r in records)


# --- criteria ---------------------------------------------------------------


def test_criterion_01_isospectrality(
    criterion,
    rigid_conj_records,
    rigid_dcay_records,
    toda_conj_records,
    toda_dcay_records,
    zeitlin_conj_records,
    zeitlin_dcay_records,
):
    drifts = {
        "rigid": (_max_drift(rigid_conj_records), _max_drift(rigid_dcay_records)),
        "toda": (_max_drift(toda_conj_records), _max_drift(toda_dcay_records)),
        "zeitlin": (_max_drift(zeitlin_conj_records), _max_drift(zeitlin_dcay_records)),
    }
    ok = all(conj < 1e-11 and dc < 1e-9 for conj, dc in drifts.values())
    detail = "; ".join(
        f"{name} conj {conj:.2e} (<1e-11) dcay {dc:.2e} (<1e-9)"
        for name, (conj, dc) in drifts.items()
    )
    criterion(1, ok, f"spectral drift, long runs: {detail}")


def test_criterion_02_energy_behavior(criterion, rigid_conj_records):
    # Midpoint: the energy error oscillates; any secular component must
    # stay under a tenth of the oscillation amplitude over t in [0, 1000].
    t = np.array([r.t for r in rigid_conj_records])
    drift = np.array([r.energy_drift for r in rigid_conj_records])
    amplitude = (drift.max() - drift.min()) / 2.0
    slope = np.polyfit(t, drift, 1)[0]
    secular = abs(slope) * t[-1]
    midpoint_ok = secular < 0.1 * amplitude

    # Fourth-order compositions: relative drift below 1e-9 over 1e4 steps.
    sys = RigidBody()
    mu0 = sys.initial_state(42)
    e0 = abs(sys.hamiltonian(mu0))
    rel = {}
    for name in ("yoshida4", "suzuki4"):
        records = run_recorded(sys, mu0, _cfg(tableau=name), 0.01, 10_000, record_every=10)
        rel[name] = max(abs(r.energy_drift) for r in records) / e0
    fourth_ok = all(v < 1e-9 for v in rel.values())

    criterion(
        2,
        midpoint_ok and fourth_ok,
        f"midpoint secular |slope|*T {secular:.2e} vs 0.1*amplitude {0.1 * amplitude:.2e}; "
        f"relative drift yoshida4 {rel['yoshida4']:.2e}, suzuki4 {rel['suzuki4']:.2e} (<1e-9)",
    )


def test_criterion_03_casimirs(criterion, rigid_conj_records, zeitlin_conj_records):
    c0 = rigid_conj_records[0].casimir_values[0]
    rigid_drift = max(abs(r.casimir_values[0] - c0) for r in rigid_conj_records)
    z0 = zeitlin_conj_records[0].casimir_values[0]
    zeitlin_rel = max(abs(r.casimir_values[0] - z0) for r in zeitlin_conj_records) / abs(z0)
    ok = rigid_drift < 1e-11 and zeitlin_rel < 1e-10
    criterion(
        3,
        ok,
        f"rigid |mu|^2 drift {rigid_drift:.2e} (<1e-11); "
        f"zeitlin enstrophy relative drift {zeitlin_rel:.2e} (<1e-10)",
    )


def test_criterion_04_cotangent_equivalence(criterion):
    # The unreduced stepper, pushed through g^dagger p, must track the
    # reduced stepper within 1e-10 per step for 100 steps, every system
    # and tableau.  The dcay update is the exact reduced counterpart.
    systems = [RigidBody(), TodaExtended(n=4), ZeitlinSphere(N=9)]
    worst = 0.0
    worst_at = ""
    for sys in systems:
        mu0 = sys.initial_state(1)
        for name in BUILTIN_TABLEAUS:
            cfg = _cfg("dcay", name)
            state = cotangent_lift(mu0)
            mu = mu0
            for k in range(1, 101):
                state, _ = cotangent_sdirk_step(state, sys, cfg, 0.01)
                mu, _ = isospectral_sdirk_step(mu, sys, cfg, 0.01)
                per_step = float(np.linalg.norm(momentum_map(state) - mu)) / k
                if per_step > worst:
                    worst, worst_at = per_step, f"{sys.name}/{name}"
    criterion(4, worst < 1e-10, f"max per-step reduction gap {worst:.2e} (<1e-10) at {worst_at}")


def test_criterion_05_composition_property(criterion):
    # An s-stage macro step is the composition of s midpoint substeps
    # of sizes h * b_i.
    h = 0.02
    worst = 0.0
    for sys, seed in ((RigidBody(), 4), (ZeitlinSphere(N=9), 2)):
        mu0 = sys.initial_state(seed)
        for name in ("sdirk2", "yoshida4", "suzuki4"):
            cfg = _cfg(tableau=name)
            mid_cfg = _cfg()
            whole = composed = mu0
            for step in range(1, 51):
                whole, _ = isospectral_sdirk_step(whole, sys, cfg, h)
                for b in cfg.tableau.b:
                    composed, _ = isospectral_sdirk_step(composed, sys, mid_cfg, h * b)
                gap = float(np.linalg.norm(whole - composed)) / step
                worst = max(worst, gap)
    criterion(5, worst < 1e-12, f"max per-step composition gap {worst:.2e} (<1e-12)")


def test_criterion_06_convergence_orders(criterion):
    sys = RigidBody()
    slopes = {}
    for name in ("midpoint", "sdirk2"):
        slopes[name] = convergence_study(
            sys, [0.1, 0.05, 0.025, 0.0125], 1.0, cfg=_cfg(tableau=name), seed=0
        ).fitted_slope
    for name in ("yoshida4", "suzuki4"):
        # Coarser sweep keeps fourth-order errors above the reference floor.
        slopes[name] = convergence_study(
            sys, [0.2, 0.1, 0.05], 1.0, cfg=_cfg(tableau=name), seed=0
        ).fitted_slope
    ok = (
        abs(slopes["midpoint"] - 2.0) < 0.1
        and abs(slopes["sdirk2"] - 2.0) < 0.1
        and abs(slopes["yoshida4"] - 4.0) < 0.2
        and abs(slopes["suzuki4"] - 4.0) < 0.2
    )
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    criterion(6, ok, f"self-convergence slopes: {detail} (2.0 +- 0.1 / 4.0 +- 0.2)")


def test_criterion_07_gawlik_comparison(criterion):
    # Same trajectory specs: t in [0, 100] at h = 0.01.  The half-step
    # baseline is time-symmetric, so its pointwise eigenvalue error
    # oscillates; the accumulated leak is its running maximum, which
    # climbs well above roundoff while the isospectral stepper never
    # leaves it.  Growth is required through the accumulation phase
    # (the first half window, before the quasi-periodic plateau).
    sys = RigidBody()
    mu0 = sys.initial_state(42)
    spec0 = spectrum(mu0)
    cfg = _cfg()
    growth_checkpoints = (100, 500, 1250, 2500, 5000)
    envelope_at = {}
    mu_g = mu_i = mu0
    envelope = 0.0
    iso_max = 0.0
    for n in range(1, 10_001):
        mu_g, _ = gawlik_step(mu_g, 0.01, sys, cfg)
        mu_i, _ = isospectral_sdirk_step(mu_i, sys, cfg, 0.01)
        # np.maximum, unlike max(), carries a NaN drift into the bounds.
        envelope = float(np.maximum(envelope, np.max(np.abs(spectrum(mu_g) - spec0))))
        if n in growth_checkpoints:
            envelope_at[n] = envelope
        if n % 100 == 0:
            iso_max = float(np.maximum(iso_max, np.max(np.abs(spectrum(mu_i) - spec0))))
    ratio = envelope / iso_max
    env_series = [envelope_at[n] for n in growth_checkpoints]
    growing = all(a < b for a, b in zip(env_series, env_series[1:]))
    flat = iso_max < 1e-11
    criterion(
        7,
        ratio >= 1e3 and growing and flat,
        f"gawlik/isospectral drift ratio {ratio:.2e} (>=1e3); gawlik envelope "
        f"{' -> '.join(f'{d:.2e}' for d in env_series)} -> {envelope:.2e}; "
        f"isospectral max {iso_max:.2e} (<1e-11)",
    )


def test_criterion_08_rk4_obstruction(criterion):
    # Classical RK4 ignores the structure: spectral drift is strictly
    # positive and grows along each run.  Step sizes and amplitudes are
    # chosen so the drift clears roundoff on every system.
    runs = [
        ("rigid", RigidBody(), dict(seed=42, scale=4.0), 0.1, 10_000, (10, 1000, 10_000), 10),
        ("toda", TodaExtended(n=4), dict(seed=0), 0.1, 1000, (10, 100, 1000), 10),
        ("zeitlin", ZeitlinSphere(N=9), dict(seed=3), 0.0025, 10_000, (100, 1000, 10_000), 100),
    ]
    ok = True
    parts = []
    for name, sys, init_kw, h, n_steps, checkpoints, every in runs:
        mu0 = sys.initial_state(init_kw["seed"], init_kw.get("scale", 1.0))
        records = run_recorded(sys, mu0, _cfg(), h, n_steps, method="rk4", record_every=every)
        by_step = {r.step: r.spectral_drift for r in records}
        drifts = [by_step[c] for c in checkpoints]
        this_ok = drifts[0] > 0 and drifts[0] < drifts[1] < drifts[2]
        ok = ok and this_ok
        parts.append(f"{name} {' -> '.join(f'{d:.2e}' for d in drifts)}")
    criterion(8, ok, "rk4 spectral drift positive and growing: " + "; ".join(parts))


def test_criterion_09_laplacian_spectrum(criterion):
    worst = 0.0
    for N in (5, 9, 17):
        eye = np.eye(N)
        op = np.zeros((N * N, N * N), dtype=complex)
        for s_k in zeitlin_spin_generators(N):
            ad = np.kron(s_k, eye) - np.kron(eye, s_k.T)
            op -= ad @ ad
        evals = np.sort(np.linalg.eigvalsh(op))
        expected = np.sort(
            np.concatenate([np.full(2 * l + 1, l * (l + 1)) for l in range(1, N)])
        )
        # One zero eigenvalue spans the identity; the rest must be the
        # l(l+1) ladder with multiplicities 2l+1.
        assert abs(evals[0]) < 1e-10
        worst = max(worst, float(np.max(np.abs(evals[1:] - expected))))
    criterion(9, worst < 1e-10, f"rotational Laplacian eigenvalue error {worst:.2e} (<1e-10), N in {{5, 9, 17}}")


def test_criterion_10_invariant_suites(criterion):
    parts = []
    ok = True

    # Cayley identities: differential/inverse round trip and the
    # conjugation identity, real and complex.
    worst = 0.0
    for ctx in (orthogonal_structure(4), special_unitary_structure(5)):
        for seed in range(50):
            xi = random_algebra_element(ctx, seed)
            eta = random_algebra_element(ctx, seed + 900)
            worst = max(worst, float(np.linalg.norm(dcay(xi, dcay_inv(xi, eta)) - eta)))
            worst = max(
                worst,
                float(np.linalg.norm(dcay(xi, dcay_inv(-xi, eta)) - cayley_conjugate(xi, eta))),
            )
            q = cayley(xi)
            worst = max(worst, float(np.linalg.norm(q.conj().T @ ctx.J @ q - ctx.J)))
    ok &= worst < 1e-11
    parts.append(f"cayley identities {worst:.2e} (<1e-11)")

    # Membership: the flow generator lands in the algebra on 1000
    # states per system.
    worst = 0.0
    rng = np.random.default_rng(0)
    toda = TodaExtended(n=5)
    zeitlin = ZeitlinSphere(N=9)
    rigid = RigidBody()
    for seed in range(1000):
        w = random_algebra_element(rigid.context, seed)
        worst = max(worst, membership_residuals(rigid.B(w), rigid.context)[1])
        lax, _ = toda_lax_matrices(rng.standard_normal(5), rng.standard_normal(5))
        worst = max(worst, membership_residuals(toda.B(lax), toda.context)[1])
        w = random_algebra_element(zeitlin.context, seed)
        worst = max(worst, membership_residuals(zeitlin.B(w), zeitlin.context)[1])
    ok &= worst < 1e-11
    parts.append(f"generator membership x1000 {worst:.2e} (<1e-11)")

    # Gradients against central differences: exact-to-roundoff on the
    # quadratic energies, second-order on their squares.
    fd_ok = True
    for sys, w in (
        (RigidBody(), RigidBody().initial_state(42)),
        (TodaExtended(n=4), TodaExtended(n=4).initial_state(0)),
        (ZeitlinSphere(N=5), ZeitlinSphere(N=5).initial_state(3)),
    ):
        delta = random_algebra_element(sys.context, 11)
        eps = 1e-6
        fd = (sys.hamiltonian(w + eps * delta) - sys.hamiltonian(w - eps * delta)) / (2 * eps)
        analytic = float(np.real(frobenius_pairing(sys.grad_hamiltonian(w), delta)))
        roundoff = (1.0 + abs(sys.hamiltonian(w))) / eps * np.finfo(float).eps
        fd_ok &= abs(fd - analytic) < 10.0 * roundoff
        squared = 2.0 * sys.hamiltonian(w) * analytic

        def fd_sq_err(e):
            return abs(
                (sys.hamiltonian(w + e * delta) ** 2 - sys.hamiltonian(w - e * delta) ** 2)
                / (2 * e)
                - squared
            )

        ratio = fd_sq_err(2e-2) / fd_sq_err(1e-2)
        fd_ok &= 2.8 < ratio < 5.2
    ok &= fd_ok
    parts.append(f"gradient finite differences {'ok' if fd_ok else 'FAILED'}")

    # Stage-average property of the cotangent scheme.
    worst = 0.0
    for sys, seed in ((RigidBody(), 5), (ZeitlinSphere(N=5), 1)):
        cfg = _cfg()
        state = cotangent_lift(sys.initial_state(seed))
        for _ in range(20):
            prev = state
            state, stages = cotangent_sdirk_step(state, sys, cfg, 0.05)
            st = stages[0]
            worst = max(
                worst,
                float(np.linalg.norm(st.g_stage - (prev.g + state.g) / 2.0)),
                float(np.linalg.norm(st.p_stage - (prev.p + state.p) / 2.0)),
            )
    ok &= worst < 1e-13
    parts.append(f"stage pair = half-point mean {worst:.2e} (<1e-13)")

    # Determinism and the frozen golden trajectory.
    sys = RigidBody()
    mu0 = sys.initial_state(42)
    cfg = _cfg()
    a = run_trajectory(mu0, sys, cfg, 0.01, 50)[-1][0]
    b = run_trajectory(mu0, sys, cfg, 0.01, 50)[-1][0]
    deterministic = np.array_equal(a, b)
    records = run_recorded(sys, mu0, cfg, 0.01, 100)
    tmp = DATA_DIR / "_regen.csv"
    try:
        write_csv(records, tmp)
        golden = (DATA_DIR / "rigidbody-midpoint-seed42.csv").read_bytes() == tmp.read_bytes()
    finally:
        tmp.unlink(missing_ok=True)
    ok &= deterministic and golden
    parts.append(
        f"determinism {'ok' if deterministic else 'FAILED'}, golden CSV "
        f"{'byte-identical' if golden else 'DIVERGED'}"
    )

    criterion(10, bool(ok), "; ".join(parts))


def test_larger_truncation_short_run():
    # Short confirmation at the next truncation size used in practice;
    # spectra hold at roundoff there as well.
    sys = ZeitlinSphere(N=33)
    records = run_recorded(sys, sys.initial_state(0), _cfg(), 0.0025, 200, record_every=50)
    assert _max_drift(records) < 1e-11
    assert all(r.membership_residual < 1e-11 for r in records)
