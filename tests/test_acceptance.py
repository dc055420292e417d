"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -s -v``).

Every expected value is either forced arithmetic, a closed-form quantity, or
cross-checked against an independent brute-force oracle implemented here or
in oproj.oracle.
"""

import json
import re
import shutil
import stat
import time
from pathlib import Path

import numpy as np
import pytest

from oproj.adapters import InProcessModel
from oproj.cli import main
from oproj.dataio import SyntheticSpec, generate_synthetic, standardize
from oproj.linalg import FeatureMatrix, orthonormalize, transform_against_feature
from oproj.oracle import loco_refit_importances, spearman_rank_correlation
from oproj.ranking import (
    AuditConfig,
    FeatureResult,
    _normalize_entries,
    compute_metric,
    rank_all,
)
from oproj.surrogate import fit_ridge, train_surrogate
from oproj.transforms import TransformSet, build_removal_candidates

FIXTURES = Path(__file__).parent / "fixtures"


def matrix(data, names=None):
    data = np.asarray(data, dtype=float)
    names = names or [f"x{j + 1}" for j in range(data.shape[1])]
    return FeatureMatrix.from_arrays(names, data)


def orthonormal_standardized_design(n, k, seed):
    """Columns with exact mean 0, population sd 1, and exact mutual
    orthogonality: center, QR, rescale by sqrt(n)."""
    g = np.random.default_rng(seed).standard_normal((n, k))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    return q * np.sqrt(n)


def criterion_2_data(seed):
    spec = SyntheticSpec(
        n=2000, coefficients=(4.0, 2.0, 1.0, 0.0), noise_sd=0.1, seed=seed
    )
    return generate_synthetic(spec)


def test_criterion_1_orthogonality_suite():
    """50 seeded 200x8 matrices, every audited feature, default transforms:
    every projected column is orthogonal to every basis vector within
    1e-8 x product of norms."""
    start = time.perf_counter()
    ts = TransformSet()
    worst = 0.0
    for seed in range(50):
        data = np.random.default_rng(seed).standard_normal((200, 8))
        m = standardize(matrix(data))[0]
        for j, name in enumerate(m.names):
            basis = orthonormalize(build_removal_candidates(m, name, ts))
            basis_arr = basis.array
            out = np.empty((200, 8))
            transform_against_feature(m, name, basis, out)
            out_arr = np.delete(out, j, axis=1)  # column j is the caller's
            dots = np.abs(out_arr.T @ basis_arr)
            bounds = 1e-8 * np.outer(
                np.linalg.norm(out_arr, axis=0), np.linalg.norm(basis_arr, axis=0)
            )
            assert np.all(dots <= bounds)
            ratio = float(np.max(dots / np.maximum(bounds, 1e-300)))
            worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"orthogonality suite took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 (orthogonality suite): PASS "
        f"[worst |dot|/bound = {worst:.3e}, {elapsed:.2f}s]"
    )


def test_criterion_2_known_coefficient_ordering():
    """beta = (4,2,1,0), sigma=0.1, n=2000, 20 seeds, exact ridge fit:
    ranking order x1 > x2 > x3 > x4 in >= 19/20 seeds with x4 scored < 5;
    brute-force leave-one-covariate-out refit agrees on the order."""
    start = time.perf_counter()
    successes = 0
    oracle_agreements = 0
    for seed in range(20):
        X, y, _ = criterion_2_data(seed)
        fit = fit_ridge(X, y, lam=0.0)
        report = rank_all(InProcessModel(fit.predict), X, AuditConfig(seed=seed))
        order = [e.name for e in report.entries]
        deltas = [e.raw_delta for e in report.entries]
        strictly_ordered = all(a > b for a, b in zip(deltas, deltas[1:]))
        x4_small = report.entry("x4").normalized < 5.0
        if order == ["x1", "x2", "x3", "x4"] and strictly_ordered and x4_small:
            successes += 1
        loco = loco_refit_importances(X, y, lam=1e-6)
        loco_order = sorted(loco, key=lambda n: (-loco[n], n))
        if loco_order == ["x1", "x2", "x3", "x4"]:
            oracle_agreements += 1
    elapsed = time.perf_counter() - start
    assert successes >= 19, f"ordering held in only {successes}/20 seeds"
    assert oracle_agreements >= 19, f"refit oracle agreed in {oracle_agreements}/20"
    assert elapsed < 10.0, f"ordering suite took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 2 (known-coefficient ordering): PASS "
        f"[{successes}/20 audits, {oracle_agreements}/20 oracle, {elapsed:.2f}s]"
    )


def test_criterion_3_quantitative_delta():
    """Noiseless, exactly orthonormal standardized design: the raw MSE delta
    for each feature equals its squared coefficient within 2% (closed-form
    oracle for removing an orthonormal column), zero for the null feature.
    Linear-only removal: the closed form is exact for it; nonlinear
    companions would perturb the other columns by O(1/sqrt(n))."""
    start = time.perf_counter()
    beta = np.array([4.0, 2.0, 1.0, 0.0])
    data = orthonormal_standardized_design(2000, 4, seed=0)
    X = matrix(data)
    y = data @ beta
    fit = fit_ridge(X, y, lam=0.0)
    cfg = AuditConfig(transforms=TransformSet.none())
    report = rank_all(InProcessModel(fit.predict), X, cfg)
    rel_errors = []
    for j, b in enumerate(beta):
        delta = report.entry(f"x{j + 1}").raw_delta
        if b != 0.0:
            rel = abs(delta - b**2) / b**2
            rel_errors.append(rel)
            assert rel <= 0.02, f"x{j + 1}: delta {delta} vs {b**2}"
        else:
            assert delta <= 1e-10, f"null feature delta {delta}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 3 (quantitative delta vs closed form): PASS "
        f"[max rel err = {max(rel_errors):.2e}, {elapsed:.2f}s]"
    )


def test_criterion_4_normalization_contract():
    """Property over random delta vectors: max normalized is exactly 100.0
    unless all deltas are zero, in which case all normalized are zero."""
    rng = np.random.default_rng(99)
    checked = 0
    for trial in range(1000):
        k = int(rng.integers(1, 12))
        scale = 10.0 ** rng.integers(-12, 12)
        deltas = np.abs(rng.standard_normal(k)) * scale
        if trial % 5 == 0:
            deltas[rng.integers(0, k)] = 0.0
        if trial % 17 == 0:
            deltas[:] = 0.0
        outcomes = [
            FeatureResult(f"f{i:02d}", float(d), None, 0) for i, d in enumerate(deltas)
        ]
        entries = _normalize_entries(outcomes, {})
        values = [e.normalized for e in entries]
        assert all(0.0 <= v <= 100.0 for v in values)
        if deltas.max() > 0.0:
            assert values[0] == 100.0  # exact, not approximate
            assert entries[0].raw_delta == deltas.max()
        else:
            assert all(v == 0.0 for v in values)
        checked += 1
    print(f"\nACCEPTANCE 4 (normalization contract): PASS [{checked} vectors]")


def test_criterion_5_reduces_to_single_vector_audit():
    """With all transforms disabled the engine's report is bit-identical to
    a pure single-vector projection audit, re-implemented inline from the
    removal formula, on 10 seeded fixtures."""
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        data = rng.standard_normal((60, 5))
        beta = rng.standard_normal(5)
        m = matrix(data)
        h = InProcessModel(lambda a, b=beta: a @ b)
        cfg = AuditConfig(transforms=TransformSet.none(), seed=seed)
        report = rank_all(h, m, cfg)

        captured = h.predict_batch(m)
        baseline = compute_metric(captured, captured, cfg.metric)
        X_std, offset, scale = standardize(m)
        outcomes = []
        for j, name in enumerate(m.names):
            u = X_std.data[:, j]
            cols = []
            for i in range(m.k):
                if i == j:
                    cols.append(np.full(m.n, float(np.mean(m.data[:, i]))))
                else:
                    v = X_std.data[:, i]
                    coef = float(np.dot(u, v)) / float(np.dot(u, u))
                    w = v - coef * u
                    cols.append(w * scale[i] + offset[i])
            pred = h.predict_batch(FeatureMatrix.from_arrays(m.names, np.column_stack(cols)))
            b_new = compute_metric(pred, captured, cfg.metric)
            outcomes.append(
                FeatureResult(name, abs(baseline - b_new), None, 0)
            )
        reference_entries = _normalize_entries(outcomes, {})
        assert report.entries == reference_entries  # bitwise float equality
        assert report.baseline == baseline
    print("\nACCEPTANCE 5 (transform-free run == single-vector audit): PASS [10 fixtures]")


def test_criterion_6_nonlinear_capture():
    """Black box y = x1^2 with x1 symmetric about zero: polynomial
    transforms keep x1 top-ranked in >= 19/20 seeds. The linear-only result
    is recorded for documentation, not asserted."""
    start = time.perf_counter()

    def square_model(a):
        return a[:, 0] ** 2

    poly_top = 0
    linear_top = 0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        data = rng.standard_normal((2000, 4))
        m = matrix(data)
        h = InProcessModel(square_model)
        report = rank_all(h, m, AuditConfig(seed=seed))
        if report.entries[0].name == "x1":
            poly_top += 1
        linear_report = rank_all(
            h, m, AuditConfig(transforms=TransformSet.none(), seed=seed)
        )
        if linear_report.entries[0].name == "x1":
            linear_top += 1
    elapsed = time.perf_counter() - start
    assert poly_top >= 19, f"x1 top-ranked in only {poly_top}/20 seeds"
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 6 (nonlinear capture): PASS "
        f"[poly: {poly_top}/20; linear-only recorded: {linear_top}/20; {elapsed:.2f}s]"
    )


def test_criterion_7_surrogate_mode_consistency():
    """Ridge surrogate on the criterion-2 data: held-out r^2 >= 0.99 and the
    surrogate audit reproduces the direct audit's ranking (Spearman 1.0) in
    >= 19/20 seeds."""
    fidelity_ok = 0
    spearman_ok = 0
    for seed in range(20):
        X, y, _ = criterion_2_data(seed)
        fit = fit_ridge(X, y, lam=0.0)
        direct = rank_all(InProcessModel(fit.predict), X, AuditConfig(seed=seed))
        sur = train_surrogate(X, y, "ridge", lam=1e-6, seed=seed)
        if sur.fidelity.value >= 0.99:
            fidelity_ok += 1
        surrogate_report = rank_all(sur.handle, X, AuditConfig(seed=seed))
        names = list(X.names)
        rho = spearman_rank_correlation(
            [direct.entry(n).raw_delta for n in names],
            [surrogate_report.entry(n).raw_delta for n in names],
        )
        if rho == 1.0:
            spearman_ok += 1
    assert fidelity_ok >= 19, f"fidelity >= 0.99 in only {fidelity_ok}/20 seeds"
    assert spearman_ok >= 19, f"rank agreement in only {spearman_ok}/20 seeds"
    print(
        f"\nACCEPTANCE 7 (surrogate consistency): PASS "
        f"[fidelity {fidelity_ok}/20, spearman {spearman_ok}/20]"
    )


GOLDEN = FIXTURES / "golden_report.json"
TIMESTAMP_RE = re.compile(r'"generated_at": "[^"]*"')


def _normalize_timestamp(text: str) -> str:
    return TIMESTAMP_RE.sub('"generated_at": "<timestamp>"', text)


def _run_golden_audit(workdir: Path, out_name: str, count_file: Path | None, monkeypatch):
    monkeypatch.chdir(workdir)
    if count_file is None:
        monkeypatch.delenv("OPROJ_FIXTURE_COUNT", raising=False)
    else:
        monkeypatch.setenv("OPROJ_FIXTURE_COUNT", str(count_file))
    code = main(
        [
            "audit",
            "--data", "data.csv",
            "--model", "./model.py",
            "--target", "column:target",
            "--out", out_name,
            "--seed", "7",
        ]
    )
    assert code == 0
    return (workdir / out_name / "report.json").read_text()


def test_criterion_8_query_count_and_golden_report(tmp_path, monkeypatch):
    """End-to-end CLI run against the bundled subprocess fixture: exactly
    k+1 batch invocations, and report.json is byte-identical (timestamp
    excluded) across repeated runs and against the checked-in golden file."""
    model_script = tmp_path / "model.py"
    shutil.copy(FIXTURES / "linear_model.py", model_script)
    model_script.chmod(model_script.stat().st_mode | stat.S_IXUSR)
    spec = tmp_path / "spec.txt"
    spec.write_text("n=400\ncoefficients=4,2,1,0\nnoise_sd=0.1\nseed=7\n")
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--spec", "spec.txt", "--out", "data.csv"]) == 0

    count_file = tmp_path / "count.txt"
    first = _run_golden_audit(tmp_path, "run1", count_file, monkeypatch)
    invocations = len(count_file.read_text().splitlines())
    assert invocations == 5, f"expected k+1 = 5 batch queries, saw {invocations}"

    second = _run_golden_audit(tmp_path, "run2", None, monkeypatch)
    assert _normalize_timestamp(first) == _normalize_timestamp(second)

    golden = _normalize_timestamp(GOLDEN.read_text())
    assert _normalize_timestamp(first) == golden
    doc = json.loads(first)
    assert doc["entries"][0]["name"] == "x1"
    assert doc["entries"][0]["normalized"] == 100.0
    print(
        "\nACCEPTANCE 8 (query count + golden report): PASS "
        f"[{invocations} invocations, byte-stable report]"
    )


def test_criterion_9_indirect_dependence_through_a_proxy():
    """The model reads only x2; x1 is a proxy for it (sample correlation
    r = corr(x1, x2)) and x3 is independent. Standardized, mean
    replacement, no transforms: x2's raw delta is the population variance
    of x2 and x1 scores exactly 100 r^2 (x3 likewise scores 100 corr(x3, x2)^2),
    to rounding. Projection exposes the dependence on the proxy that
    perturbing x1 alone would not. With all transforms each feature's
    four companions take about 4/n of x2's variance by chance, so x1 stays
    within 0.25 points of 100 r^2 and x3 under 0.25."""
    n = 20000
    worst_rel = 0.0
    for rho in (0.3, 0.6, 0.9):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = rho
        spec = SyntheticSpec(n=n, coefficients=(0.0, 1.0, 0.0), correlation=corr, seed=3)
        X, _, _ = generate_synthetic(spec)
        x1, x2, x3 = X.data.T
        r12 = np.corrcoef(x1, x2)[0, 1]
        r32 = np.corrcoef(x3, x2)[0, 1]
        var2 = float(np.var(x2))
        model = InProcessModel(lambda a: a[:, 1])

        report = rank_all(model, X, AuditConfig(transforms=TransformSet.none()))
        assert [e.name for e in report.entries] == ["x2", "x1", "x3"]
        assert report.entry("x2").raw_delta == pytest.approx(var2, rel=1e-12)
        assert report.entry("x1").normalized == pytest.approx(100 * r12**2, rel=1e-12)
        assert report.entry("x3").normalized == pytest.approx(100 * r32**2, rel=1e-12)
        assert report.entry("x3").normalized < 0.01
        worst_rel = max(
            worst_rel, abs(report.entry("x1").normalized / (100 * r12**2) - 1.0)
        )

        report = rank_all(model, X, AuditConfig())
        assert report.entries[0].name == "x2"
        assert report.entry("x2").raw_delta == pytest.approx(var2, rel=1e-12)
        assert abs(report.entry("x1").normalized - 100 * r12**2) <= 0.25
        assert report.entry("x3").normalized <= 0.25
    print(
        "\nACCEPTANCE 9 (indirect dependence through a proxy): PASS "
        f"[x1 == 100 r^2 to {worst_rel:.1e} relative, rho 0.3/0.6/0.9]"
    )


def test_mean_removal_misses_a_proxy_with_constant_conditional_mean():
    """The limit of criterion 9: x2 = x1 * x3 with x1 and x3 independent and
    zero-mean, so E[x2 h(x1)] = 0 for every h and no projection onto
    functions of x1 changes x2, yet the model's output carries |x1|. x1
    scored 0.078 with the default transforms and 0.005 without."""
    n = 20000
    rng = np.random.default_rng(3)
    x1 = rng.standard_normal(n)
    x3 = rng.standard_normal(n)
    X = FeatureMatrix.from_arrays(["x1", "x2", "x3"], np.column_stack([x1, x1 * x3, x3]))
    model = InProcessModel(lambda a: a[:, 1])
    for transforms in (TransformSet(), TransformSet.none()):
        report = rank_all(model, X, AuditConfig(transforms=transforms))
        assert report.entries[0].name == "x2"
        assert report.entry("x1").normalized < 1.0
