"""End-to-end acceptance checks for the package's headline numbers.

Each test covers one numbered acceptance item and prints a single
`ACCEPTANCE nn PASS/FAIL` line with the measured values before
asserting, so a full run leaves a scannable scoreboard.

Item 04 (fig2a: omega=1, lam=5, gamma0=1, r=1) once asserted a C_Aa
peak of 0.49±0.03 beside its C_AB peak of 0.55±0.03. No parameters of
this model give both. For r=1 and identical partitions the single
excitation stays coherent: the dressed amplitudes are
exp(-i omega t - I+/4) and exp(+i omega t - I-/4), the atom amplitude u
is half their difference and the cavity amplitude v half their sum, and

    C_AB = |u|^2,   C_Aa = |u| |v|.

Without loss C_AB peaks at 1 at omega t = pi/2 and C_Aa at 1/2 at
omega t = pi/4; the loss that pulls C_AB down to 0.55 has already pulled
C_Aa well under 0.49. In place of the 0.49 target the item checks that
the program's fig2a C_AB and C_Aa trajectories follow these amplitude
expressions (within 1e-7), and that on a log grid of omega in [0.03, 3]
and lam in [0.005, 500] (gamma0 = 1; peak values depend only on
omega/gamma0 and lam/gamma0) the C_Aa peak stays below 0.46 wherever
the C_AB peak is within 0.03 of 0.55; it reaches 0.416 at most. That
band of omega lies inside the grid. Past the lam range the peaks tend
to limits: large lam is the Markov limit, and for small lam they depend
on lam/omega^2 only, where the same band reaches C_Aa = 0.418 (a
separate evaluation of that limit, not run here). The fig2a C_Aa peak
itself (0.3861 at t = 0.673) is not asserted here;
tests/test_scenarios_cli.py pins the C_Aa trajectory to 5e-9.

Item 07 is asserted at a bound the model does not reach, and fails on
purpose. At omega=1, lam=0.05 and t=400 the lower branch has long
decayed, and the concurrences and reduced matrices sit
(1 - exp(-I+(400)/2))/4 off their quasi-steady values. I+(400) is
0.26232: gamma0 lam^2/(4 omega^2 + lam^2) * 400 = 0.2498 is Markovian,
and 0.0125 comes from the oscillating exp(-lam t) transient of
rate_plus. The deviation is 0.030731 against a bound of 0.03. Moving
the time, the bound or the parameters would only hide this.

The suite is deliberately slower than the unit tests: item 01 runs the
brute-force integrator over every figure preset at full resolution.
"""

import functools
import math
import sys
import time

import numpy as np
import pytest

from djcm.entanglement import (
    STEADY_PURITY_THRESHOLD,
    concurrence,
    concurrence_x_state,
    steady_concurrence_nonlocal,
    steady_pair_local,
    steady_pair_nonlocal,
)
from djcm.evolution import CHUNK_ROWS, propagate_pair, propagate_pairs
from djcm.integrate import (
    IntegratorConfig,
    integrate_pair,
    oracle_config,
    rate_from_spectral_density,
)
from djcm.propagator import (
    JcmParams,
    decay_rate_minus,
    decay_rate_plus,
    integrated_rate_minus,
    integrated_rate_plus,
)
from djcm.scenarios import (
    TARGET_ORDER,
    ScenarioConfig,
    evolve_concurrences,
    preset_config,
    transient_entanglement_threshold,
)
from djcm.states import ReductionTarget, initial_state, reduce_all
from helpers import joined

RATE_GRID_PARAMS = (
    JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0),
    JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=0.05),
    JcmParams(omega0=0.0, omega=50.0, gamma0=1.0, lam=5.0),
)

NONLOCAL = (ReductionTarget.AB, ReductionTarget.ab, ReductionTarget.Ab, ReductionTarget.aB)
LOCAL = (ReductionTarget.Aa, ReductionTarget.Bb)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _live_scoreboard(request):
    # the scoreboard lines must reach the terminal even for passing
    # tests, so _report temporarily suspends output capture
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE_MANAGER = None


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    return line


@functools.cache
def _table(preset: str) -> np.ndarray:
    return evolve_concurrences(preset_config(preset))


def _column(table: np.ndarray, target: ReductionTarget) -> np.ndarray:
    return table[:, 1 + TARGET_ORDER.index(target)]


def _six_at(p: JcmParams, t: float, r: float = 1.0) -> dict[ReductionTarget, float]:
    state = propagate_pair(initial_state(r), p, p, t)
    return {tgt: concurrence(ps) for tgt, ps in reduce_all(state).items()}


def _reductions_at(p: JcmParams, t: float, r: float = 1.0):
    return reduce_all(propagate_pair(initial_state(r), p, p, t))


def test_criterion_01_closed_form_matches_rk4_on_all_presets():
    presets = ("fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c")
    started = time.perf_counter()
    worst_by_preset = {}
    for name in presets:
        cfg = preset_config(name)
        r0 = initial_state(cfg.purity)
        icfg = oracle_config(cfg.t_max, cfg.samples, cfg.params_a, cfg.params_b)
        dev = 0.0
        for times, states in integrate_pair(r0, cfg.params_a, cfg.params_b, icfg):
            for start in range(0, len(times), CHUNK_ROWS):
                rows = slice(start, start + CHUNK_ROWS)
                exact = propagate_pairs(r0, cfg.params_a, cfg.params_b, times[rows])
                dev = max(dev, float(np.abs(states[rows] - exact).max()))
        worst_by_preset[name] = dev
    elapsed = time.perf_counter() - started
    worst = max(worst_by_preset.values())
    ok = worst <= 1e-5
    line = _report(
        1, ok,
        f"max |analytical - RK4| = {worst:.3e} over six presets "
        f"(tol 1e-5, {elapsed:.0f}s)",
    )
    for name, dev in sorted(worst_by_preset.items()):
        assert dev <= 1e-5, f"{line} [{name}: {dev:.3e}]"
        # the oracle integrates in the frame of h, so only the rates'
        # time dependence costs it accuracy: 1.1e-12 at worst (fig2c)
        assert dev <= 1e-11, f"{name}: max |analytical - RK4| = {dev:.3e} above 1e-11"


def test_criterion_02_rates_recovered_from_reservoir_quadrature():
    worst = 0.0
    for p in RATE_GRID_PARAMS:
        for t in np.linspace(0.0, 10.0, 11):
            t = float(t)
            lower = rate_from_spectral_density(p, p.omega0 - p.omega, t)
            upper = rate_from_spectral_density(p, p.omega0 + p.omega, t)
            worst = max(
                worst,
                abs(lower - decay_rate_minus(p, t)),
                abs(upper - decay_rate_plus(p, t)),
            )
    ok = worst <= 1e-8
    line = _report(2, ok, f"max |quadrature - closed form| = {worst:.3e} (tol 1e-8)")
    assert ok, line


def test_criterion_03_accumulated_exponents_differentiate_to_rates():
    h = 1e-5
    worst = 0.0
    for p in RATE_GRID_PARAMS:
        # skip t=0: the central stencil would step to negative time
        for t in np.linspace(0.0, 10.0, 11)[1:]:
            t = float(t)
            dm = (integrated_rate_minus(p, t + h) - integrated_rate_minus(p, t - h)) / (2 * h)
            dp = (integrated_rate_plus(p, t + h) - integrated_rate_plus(p, t - h)) / (2 * h)
            worst = max(
                worst,
                abs(dm - decay_rate_minus(p, t)),
                abs(dp - decay_rate_plus(p, t)),
            )
    ok = worst <= 1e-6
    line = _report(3, ok, f"max |dI/dt - rate| = {worst:.3e} (tol 1e-6)")
    assert ok, line


def _amplitude_concurrences(omega: float, lams, t, gamma0: float = 1.0):
    """C_AB and C_Aa for r=1 from the dressed amplitudes, one row per lam.

    Evaluates the rate integrals of the `propagator` docstring directly,
    vectorized over lam and t, without the 9x9 propagation, the
    reductions or the concurrence routines.
    """
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lams, dtype=float)[:, None]
    denom = 4.0 * omega**2 + lam**2
    decay = np.exp(-lam * t)
    cos2, sin2 = np.cos(2.0 * omega * t), np.sin(2.0 * omega * t)
    i_minus = gamma0 * (t + (decay - 1.0) / lam)
    i_plus = gamma0 * lam**2 / denom * (
        t
        - 4.0 * omega * decay * sin2 / denom
        + (lam**2 - 4.0 * omega**2) * (decay * cos2 - 1.0) / (lam * denom)
    )
    upper = np.exp(-1j * omega * t - 0.25 * i_plus)
    lower = np.exp(1j * omega * t - 0.25 * i_minus)
    atom = 0.5 * np.abs(upper - lower)
    cavity = 0.5 * np.abs(upper + lower)
    return atom**2, atom * cavity


def _local_peaks_where_atom_peak_near(target: float, tol: float):
    """(omega, max C_Aa) for every grid point whose C_AB peak is target±tol."""
    omegas = np.geomspace(0.03, 3.0, 48)
    lams = np.geomspace(0.005, 500.0, 33)
    band = []
    for omega in omegas:
        t_end = max(20.0, 3.0 * math.pi / omega)
        t = np.linspace(0.0, t_end, int(t_end / min(0.01, 0.02 / omega)) + 1)
        atoms, local = _amplitude_concurrences(float(omega), lams, t)
        near = np.abs(atoms.max(axis=1) - target) <= tol
        band.extend((float(omega), float(c)) for c in local.max(axis=1)[near])
    return omegas, band


def test_criterion_04_moderate_coupling_peak_values():
    cfg = preset_config("fig2a")
    table = _table("fig2a")
    atoms = _column(table, ReductionTarget.AB)
    local = _column(table, ReductionTarget.Aa)
    peak_ab_atoms = float(atoms.max())
    peak_local = float(local.max())
    start_cavities = _column(table, ReductionTarget.ab)[0]

    times = table[:, 0]
    p = cfg.params_a
    oracle_atoms, oracle_local = _amplitude_concurrences(p.omega, [p.lam], times, p.gamma0)
    oracle_dev = max(
        float(np.abs(atoms - oracle_atoms[0]).max()),
        float(np.abs(local - oracle_local[0]).max()),
    )
    omegas, band = _local_peaks_where_atom_peak_near(0.55, 0.03)
    band_omegas = [omega for omega, _ in band]
    band_inside = bool(band) and omegas[0] < min(band_omegas) and max(band_omegas) < omegas[-1]
    band_local = max((c for _, c in band), default=math.nan)

    ok = (
        abs(peak_ab_atoms - 0.55) <= 0.03
        and abs(start_cavities - 1.0) < 1e-9
        and oracle_dev <= 1e-7
        and band_inside
        and band_local < 0.49 - 0.03
    )
    line = _report(
        4, ok,
        f"max C_AB = {peak_ab_atoms:.4f} (target 0.55±0.03), "
        f"C_ab(0) = {start_cavities:.6f}, "
        f"max C_Aa = {peak_local:.4f}; "
        f"C_AB, C_Aa vs amplitude form = {oracle_dev:.1e} (tol 1e-7); "
        f"where max C_AB is 0.55±0.03, max C_Aa <= {band_local:.4f} "
        f"(0.49±0.03 unreachable if < 0.46; {len(band)} grid points, "
        f"omega {min(band_omegas, default=math.nan):.3f}-{max(band_omegas, default=math.nan):.3f})",
    )
    assert abs(peak_ab_atoms - 0.55) <= 0.03, line
    assert abs(start_cavities - 1.0) < 1e-9, line
    # the C_Aa assertions replace a 0.49 peak target; see the module docstring
    assert oracle_dev <= 1e-7, line
    assert band_inside, line
    assert band_local < 0.49 - 0.03, line


def test_criterion_05_atom_cavity_pairs_indistinguishable_when_pure():
    table = _table("fig2a")
    cols = [_column(table, tgt) for tgt in (ReductionTarget.Aa, ReductionTarget.Bb,
                                            ReductionTarget.Ab, ReductionTarget.aB)]
    worst = 0.0
    for other in cols[1:]:
        worst = max(worst, float(np.abs(cols[0] - other).max()))
    ok = worst <= 1e-8
    line = _report(
        5, ok, f"max spread across C_Aa, C_Bb, C_Ab, C_aB = {worst:.3e} (tol 1e-8)"
    )
    assert ok, line


def test_criterion_06_strong_coupling_plateau():
    p50 = JcmParams(omega0=0.0, omega=50.0, gamma0=1.0, lam=5.0)
    p500 = JcmParams(omega0=0.0, omega=500.0, gamma0=1.0, lam=5.0)
    results = {}
    for label, p, tol in (("omega=50", p50, 0.02), ("omega=500", p500, 0.005)):
        pairs = _reductions_at(p, 30.0)
        dev_c = max(abs(concurrence(ps) - 0.25) for ps in pairs.values())
        dev_m = 0.0
        for tgt in NONLOCAL:
            dev_m = max(dev_m, float(np.abs(
                pairs[tgt] - steady_pair_nonlocal(1.0)
            ).max()))
        for tgt in LOCAL:
            dev_m = max(dev_m, float(np.abs(
                pairs[tgt] - steady_pair_local()
            ).max()))
        results[label] = (dev_c, dev_m, tol)
    ok = all(dc <= tol and dm <= tol for dc, dm, tol in results.values())
    detail = "; ".join(
        f"{label}: |C-0.25| = {dc:.4f}, matrix dev = {dm:.4f} (tol {tol})"
        for label, (dc, dm, tol) in results.items()
    )
    line = _report(6, ok, detail)
    for label, (dc, dm, tol) in results.items():
        assert dc <= tol, f"{line} [{label} concurrence]"
        assert dm <= tol, f"{line} [{label} matrix]"


def test_criterion_07_weak_memory_plateau_at_late_time():
    p = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=0.05)
    pairs = _reductions_at(p, 400.0)
    dev_c = max(abs(concurrence(ps) - 0.25) for ps in pairs.values())
    dev_m = 0.0
    for tgt in NONLOCAL:
        dev_m = max(dev_m, float(np.abs(
            pairs[tgt] - steady_pair_nonlocal(1.0)
        ).max()))
    for tgt in LOCAL:
        dev_m = max(dev_m, float(np.abs(
            pairs[tgt] - steady_pair_local()
        ).max()))
    ok = dev_c <= 0.03 and dev_m <= 0.03
    line = _report(
        7, ok,
        f"|C - 0.25| = {dev_c:.6f}, matrix dev = {dev_m:.6f} at t=400 (tol 0.03)",
    )
    # asserted at the stated target; the slow-branch leakage accumulated
    # by t=400 puts both deviations at 0.0307
    assert dev_c <= 0.03, line
    assert dev_m <= 0.03, line


def test_criterion_08_plateau_purity_dependence():
    p = JcmParams(omega0=0.0, omega=50.0, gamma0=1.0, lam=5.0)
    purities = (0.0, 0.5, 1.0)
    pairs_by_r = {r: _reductions_at(p, 30.0, r) for r in purities}

    # the in-partition pairs forget the cavity purity
    dev_local = 0.0
    for tgt in LOCAL:
        ref = pairs_by_r[purities[0]][tgt]
        for r in purities[1:]:
            dev_local = max(dev_local, float(np.abs(pairs_by_r[r][tgt] - ref).max()))

    # the cross-partition pair keeps it, matching the closed form per r
    dev_ab = 0.0
    for r in purities:
        dev_ab = max(dev_ab, float(np.abs(
            pairs_by_r[r][ReductionTarget.AB] - steady_pair_nonlocal(r)
        ).max()))
    spread_ab = float(np.abs(
        pairs_by_r[1.0][ReductionTarget.AB]
        - pairs_by_r[0.0][ReductionTarget.AB]
    ).max())

    ok = dev_local <= 1e-3 and dev_ab <= 0.02 and spread_ab > 0.05
    line = _report(
        8, ok,
        f"local-pair spread over r = {dev_local:.2e} (tol 1e-3); "
        f"C_AB matrix vs closed form dev = {dev_ab:.4f} (tol 0.02); "
        f"AB spread r=0 vs r=1 = {spread_ab:.3f}",
    )
    assert dev_local <= 1e-3, line
    assert dev_ab <= 0.02, line
    assert spread_ab > 0.05, line


def test_criterion_09_entanglement_thresholds():
    # brute-force bisection on the closed-form plateau concurrence
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if steady_concurrence_nonlocal(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    ok_root = abs(hi - 0.57026) <= 1e-4 and abs(STEADY_PURITY_THRESHOLD - hi) < 1e-10

    # transient threshold: reported, not asserted to a tolerance
    strong = preset_config("fig4")
    scan_cfg = ScenarioConfig(
        params_a=strong.params_a, params_b=strong.params_b,
        purity=1.0, t_max=strong.t_max, samples=301,
    )
    transient = transient_entanglement_threshold(scan_cfg, dr=0.01)
    ok = ok_root and transient is not None
    line = _report(
        9, ok,
        f"plateau threshold r* = {hi:.6f} (target 0.57026±1e-4); "
        f"transient threshold (dr=0.01 sweep) = {transient}",
    )
    assert ok_root, line
    assert transient is not None, line


def test_criterion_10_everything_decays_in_the_decaying_regimes():
    ends = {}
    for name in ("fig2a", "fig3a"):
        ends[name] = float(_table(name)[-1, 1:].max())

    def first_below(name, level=0.05):
        table = _table(name)
        below = np.flatnonzero(_column(table, ReductionTarget.ab) < level)
        return float(table[below[0], 0]) if len(below) else math.inf

    t2a = first_below("fig2a")
    t3a = first_below("fig3a")
    ok = all(v < 0.01 for v in ends.values()) and t3a > t2a
    line = _report(
        10, ok,
        f"end-of-grid max concurrence: fig2a = {ends['fig2a']:.2e}, "
        f"fig3a = {ends['fig3a']:.2e} (tol 0.01); "
        f"C_ab < 0.05 at t = {t2a:.2f} vs {t3a:.2f} (narrow reservoir later)",
    )
    assert ends["fig2a"] < 0.01, line
    assert ends["fig3a"] < 0.01, line
    assert t3a > t2a, line


def test_criterion_11_property_bundle():
    failures = []

    # fourth-order convergence of the brute-force integrator
    p = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0)
    r0 = initial_state(1.0)
    errs = []
    for step in (0.004, 0.002):
        cfg = IntegratorConfig(step=step, t_end=2.0, record_every=int(round(2.0 / step)))
        _, states = joined(integrate_pair(r0, p, p, cfg))
        errs.append(float(np.abs(states[-1] - propagate_pair(r0, p, p, 2.0)).max()))
    ratio = errs[0] / errs[1]
    if not 12.0 < ratio < 20.0:
        failures.append(f"RK4 convergence ratio {ratio:.1f} outside [12,20]")

    # trace and Hermiticity along a trajectory
    s0 = initial_state(0.8)
    for t in np.linspace(0.0, 15.0, 16):
        s = propagate_pair(s0, p, p, float(t))
        if abs(s.trace() - 1.0) > 1e-12 or np.abs(s - s.conj().T).max() > 1e-12:
            failures.append(f"trace/Hermiticity drift at t={t}")
            break

    # local-unitary invariance and X-state route equivalence
    rng = np.random.default_rng(99)
    for _ in range(10):
        d = rng.uniform(0.05, 1.0, size=4)
        d /= d.sum()
        rho = np.diag(d).astype(complex)
        c = rng.uniform(0.0, math.sqrt(d[1] * d[2])) * np.exp(2j * np.pi * rng.uniform())
        rho[1, 2], rho[2, 1] = c, np.conj(c)
        base = concurrence(rho)
        if abs(base - concurrence_x_state(rho)) > 1e-10:
            failures.append("X-state closed form disagrees with spectral route")
            break
        qs = []
        for _ in range(2):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, rr = np.linalg.qr(a)
            qs.append(q * (np.diagonal(rr) / np.abs(np.diagonal(rr))))
        u = np.kron(qs[0], qs[1])
        if abs(concurrence(u @ rho @ u.conj().T) - base) > 1e-9:
            failures.append("concurrence changed under a local unitary")
            break

    # reductions blind to the bare transition frequency
    p_shift = JcmParams(omega0=10.0, omega=1.0, gamma0=1.0, lam=5.0)
    for t in (0.8, 3.1):
        a = reduce_all(propagate_pair(s0, p, p, t))
        b = reduce_all(propagate_pair(s0, p_shift, p_shift, t))
        dev = max(float(np.abs(a[k] - b[k]).max()) for k in a)
        if dev > 1e-12:
            failures.append(f"reductions moved with omega0 (dev {dev:.1e})")
            break

    ok = not failures
    detail = "RK4 order, conservation, unitary invariance, X-route, omega0 blindness"
    line = _report(11, ok, detail if ok else "; ".join(failures))
    assert ok, line
