"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The published reference grid: homogeneous portfolio, exposure 1, pd multiplier
0.5, scale f_n = 1/n, 50,000 replications.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import erf

from archcredit import (
    AsymptoticInputs,
    DefaultScale,
    EstimatorConfig,
    Portfolio,
    PositiveStableLaw,
    RngStream,
    RunContext,
    expected_shortfall_asymptotic,
    homogeneous_shortfall_asymptotic,
    is_expected_shortfall,
    is_sample_v,
    replicate,
    run_tail_estimate,
    tail_probability_asymptotic,
)

M = 50_000
SCALE = DefaultScale.reciprocal()

# published reference values for the baseline grid
TABLE2_CONDMC = {1.1: 6.208e-5, 1.5: 2.726e-4, 2.0: 4.457e-4, 5.0: 7.815e-4}
TABLE4_ASYM = {100: 1.359e-3, 250: 5.436e-4, 500: 2.718e-4, 1000: 1.359e-4}
TABLE5_ASYM = {50: 47.695, 100: 95.390, 250: 238.475, 500: 476.950}
TABLE5_ES = {50: 47.886, 100: 95.573, 250: 238.873, 500: 477.558}
TABLE3_LEVELS = (0.3, 0.5, 0.7, 0.9)
TABLE4_SIZES = (100, 250, 500, 1000)


def pf_homog(n):
    return Portfolio.homogeneous(n, exposure=1.0, pd_scale=0.5)


def cfg(n, alpha, b, kind, seed, m=M, x0=1.0, scale=SCALE):
    return EstimatorConfig(
        portfolio=pf_homog(n),
        alpha=alpha,
        scale=scale,
        b=b,
        m=m,
        seed=seed,
        x0=x0,
        kind=kind,
    )


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def within_sig_digits(got: float, printed: float, digits: int) -> bool:
    tol = 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - digits + 1)
    return abs(got - printed) <= tol


# shared expensive runs ------------------------------------------------------


@pytest.fixture(scope="module")
def table2_cond():
    return {
        a: run_tail_estimate(cfg(500, a, 0.8, "conditional", seed=1000 + i))
        for i, a in enumerate(TABLE2_CONDMC)
    }


@pytest.fixture(scope="module")
def table2_is():
    return {
        a: run_tail_estimate(cfg(500, a, 0.8, "importance", seed=2000 + i))
        for i, a in enumerate(TABLE2_CONDMC)
    }


@pytest.fixture(scope="module")
def table3_runs():
    out = {}
    for i, b in enumerate(TABLE3_LEVELS):
        out[b, "importance"] = run_tail_estimate(cfg(500, 1.5, b, "importance", seed=3000 + i))
        out[b, "conditional"] = run_tail_estimate(cfg(500, 1.5, b, "conditional", seed=3100 + i))
    return out


@pytest.fixture(scope="module")
def table4_runs():
    out = {}
    for i, n in enumerate(TABLE4_SIZES):
        out[n, "importance"] = run_tail_estimate(cfg(n, 1.5, 0.8, "importance", seed=4000 + i))
        out[n, "conditional"] = run_tail_estimate(cfg(n, 1.5, 0.8, "conditional", seed=4100 + i))
    return out


def test_criterion_1_tail_asymptotic_size_sweep():
    got = {
        n: tail_probability_asymptotic(AsymptoticInputs(pf_homog(n), 1.5, SCALE, 0.8))
        for n in TABLE4_SIZES
    }
    ok = all(float(f"{got[n]:.4g}") == TABLE4_ASYM[n] for n in TABLE4_SIZES)
    verdict(
        "criterion 1",
        ok,
        "tail asymptotic sweep " + ", ".join(f"n={n}: {got[n]:.4g}" for n in TABLE4_SIZES),
    )


def test_criterion_2_shortfall_asymptotic_two_paths():
    general_vals = {
        n: expected_shortfall_asymptotic(AsymptoticInputs(pf_homog(n), 1.5, SCALE, 0.8))
        for n in TABLE5_ASYM
    }
    closed_vals = {n: homogeneous_shortfall_asymptotic(1.5, 0.8, 1.0, n) for n in TABLE5_ASYM}
    ok_printed = all(within_sig_digits(general_vals[n], TABLE5_ASYM[n], 5) for n in TABLE5_ASYM)
    ok_paths = all(
        abs(general_vals[n] - closed_vals[n]) <= 1e-9 * closed_vals[n] for n in TABLE5_ASYM
    )
    verdict(
        "criterion 2",
        ok_printed and ok_paths,
        "shortfall asymptotic "
        + ", ".join(f"n={n}: {general_vals[n]:.5f}" for n in TABLE5_ASYM)
        + f"; general and homogeneous closed forms agree to 1e-9: {ok_paths}",
    )


def test_criterion_3_conditional_matches_published_grid(table2_cond):
    details = []
    ok = True
    for a, want in TABLE2_CONDMC.items():
        rep = table2_cond[a]
        dev = abs(rep.estimate / want - 1.0)
        details.append(f"alpha={a}: {rep.estimate:.4e} (dev {100 * dev:.2f}%, re {rep.rel_error_pct:.3f}%)")
        ok &= dev <= 0.01 and rep.rel_error_pct <= 0.1
    verdict("criterion 3", ok, "; ".join(details))


def test_criterion_4_importance_consistent_with_conditional(table2_cond, table2_is):
    details = []
    ok = True
    for a in TABLE2_CONDMC:
        ri, rc = table2_is[a], table2_cond[a]
        gap = abs(ri.estimate - rc.estimate)
        band = 4.0 * math.hypot(ri.std_error, rc.std_error)
        details.append(
            f"alpha={a}: IS {ri.estimate:.4e} vs CondMC {rc.estimate:.4e} "
            f"(gap/band {gap / band:.2f}, re {ri.rel_error_pct:.2f}%)"
        )
        ok &= gap <= band and ri.rel_error_pct <= 3.0
    verdict("criterion 4", ok, "; ".join(details))


def test_criterion_5_variance_reduction_ordering(table2_cond, table2_is, table3_runs, table4_runs):
    cells = []
    for a in TABLE2_CONDMC:
        cells.append((f"t2 alpha={a}", table2_is[a], table2_cond[a], True))
    for b in TABLE3_LEVELS:
        cells.append((f"t3 b={b}", table3_runs[b, "importance"], table3_runs[b, "conditional"], True))
    for n in TABLE4_SIZES:
        cells.append(
            (f"t4 n={n}", table4_runs[n, "importance"], table4_runs[n, "conditional"], n == 500)
        )
    ok = True
    worst = []
    for name, ri, rc, is_n500 in cells:
        cond_ok = rc.variance_reduction > ri.variance_reduction > 10.0
        n500_ok = (not is_n500) or rc.variance_reduction >= 1e5
        ok &= cond_ok and n500_ok
        worst.append(f"{name}: VR(IS)={ri.variance_reduction:.3g}, VR(Cond)={rc.variance_reduction:.3g}")
    verdict("criterion 5", ok, "; ".join(worst))


def test_criterion_6_shortfall_reproduction():
    details = []
    ok = True
    for i, (n, want) in enumerate(TABLE5_ES.items()):
        rep = is_expected_shortfall(cfg(n, 1.5, 0.8, "importance", seed=6000 + i))
        dev = abs(rep.estimate / want - 1.0)
        details.append(f"n={n}: {rep.estimate:.3f} vs {want} (dev {100 * dev:.3f}%)")
        ok &= dev <= 0.005
    verdict("criterion 6", ok, "; ".join(details))


def test_criterion_7_cross_estimator_agreement():
    # non-rare desk instance where all three estimators are practical
    desk = dict(n=20, alpha=1.5, b=0.4, scale=DefaultScale.constant(0.3), m=1_000_000)
    reports = {
        kind: run_tail_estimate(
            cfg(desk["n"], desk["alpha"], desk["b"], kind, seed=7000 + i, m=desk["m"], scale=desk["scale"])
        )
        for i, kind in enumerate(("naive", "importance", "conditional"))
    }
    ok = True
    details = []
    pairs = [("naive", "importance"), ("naive", "conditional"), ("importance", "conditional")]
    for a, b in pairs:
        ra, rb = reports[a], reports[b]
        gap = abs(ra.estimate - rb.estimate)
        band = 4.0 * math.hypot(ra.std_error, rb.std_error)
        ok &= gap <= band
        details.append(f"{a} {ra.estimate:.6f} vs {b} {rb.estimate:.6f} (gap/band {gap / band:.2f})")
    verdict("criterion 7", ok, "; ".join(details))


def test_criterion_8_stable_law_suite():
    msgs = []
    ok = True

    # closed-form oracle at beta = 1/2 on a log grid
    law = PositiveStableLaw(0.5)
    xs = np.logspace(-2, 4, 61)
    pdf_ref = 1.0 / (2.0 * math.sqrt(math.pi)) * xs**-1.5 * np.exp(-1.0 / (4.0 * xs))
    sf_ref = erf(1.0 / (2.0 * np.sqrt(xs)))
    pdf_err = float(np.max(np.abs(law.pdf(xs) - pdf_ref)))
    sf_err = float(np.max(np.abs(law.sf(xs) - sf_ref)))
    ok &= pdf_err <= 1e-8 and sf_err <= 1e-8
    msgs.append(f"closed-form grid: pdf err {pdf_err:.2e}, sf err {sf_err:.2e}")

    # Laplace transform identity at one million draws
    n = 1_000_000
    rng = RngStream(8000)
    worst_z = 0.0
    for beta in (0.3, 0.5, 0.8):
        v = PositiveStableLaw(beta).sample(rng, size=n)
        for s in (0.25, 1.0, 4.0):
            e = np.exp(-s * v)
            z = abs(e.mean() - math.exp(-(s**beta))) / (e.std(ddof=1) / math.sqrt(n))
            worst_z = max(worst_z, z)
    ok &= worst_z <= 4.0
    msgs.append(f"Laplace identity worst |z| {worst_z:.2f}")

    # proposal-density likelihood factor averages to one
    ctx = RunContext(cfg(500, 1.5, 0.8, "importance", seed=8100, m=n))
    lrs = replicate(ctx, lambda c, rng, size: is_sample_v(c, rng, size)[1])
    z_lr = abs(lrs.mean() - 1.0) / (lrs.std(ddof=1) / math.sqrt(n))
    ok &= z_lr <= 4.0
    msgs.append(f"likelihood factor mean {lrs.mean():.4f} (|z| {z_lr:.2f})")

    verdict("criterion 8", ok, "; ".join(msgs))


def test_criterion_9_splice_point_insensitivity(table2_is):
    details = []
    ok = True
    for i, a in enumerate(TABLE2_CONDMC):
        runs = {1.0: table2_is[a]}
        for j, x0 in enumerate((0.5, 2.0)):
            runs[x0] = run_tail_estimate(
                cfg(500, a, 0.8, "importance", seed=9000 + 10 * i + j, x0=x0)
            )
        worst = 0.0
        points = sorted(runs)
        for u in range(len(points)):
            for w in range(u + 1, len(points)):
                ra, rb = runs[points[u]], runs[points[w]]
                gap = abs(ra.estimate - rb.estimate)
                band = 4.0 * math.hypot(ra.std_error, rb.std_error)
                worst = max(worst, gap / band)
        ok &= worst <= 1.0
        details.append(f"alpha={a}: worst gap/band {worst:.2f}")
    verdict("criterion 9", ok, "; ".join(details))


def test_criterion_10_preset_determinism(tmp_path):
    outs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "archcredit.cli",
                "table",
                "2",
                "--m",
                "5000",
                "--seed",
                "42",
                "--output",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    verdict("criterion 10", ok, f"two runs, {len(outs[0])} bytes each, identical: {ok}")


def test_efficiency_proxy_conditional_error_flat_in_size(table4_runs):
    # stand-in for the infinite-n bounded-error property: measured relative
    # error of the conditional estimator must not grow along the size sweep
    rels = [table4_runs[n, "conditional"].rel_error_pct for n in TABLE4_SIZES]
    ok = all(nxt <= 2.0 * prev for prev, nxt in zip(rels, rels[1:]))
    verdict(
        "efficiency proxy",
        ok,
        "conditional relative error by n: "
        + ", ".join(f"{n}: {r:.3f}%" for n, r in zip(TABLE4_SIZES, rels)),
    )
