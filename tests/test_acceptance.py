"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (equality of rationals) and seeded, so the suite
is fully reproducible.
"""
from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from hankelmp.hankel import (
    Degenerate,
    Invalid,
    MomentWindow,
    classify,
    det_sequence,
    hankel_matrix,
    is_psd,
)
from hankelmp.identities import (
    SplitMix64,
    _bareiss,
    verify_det1,
    verify_det2,
)
from hankelmp.recovery import measure_moments, reconstruct, extend
from oracles import MeasureGenSpec, det_cofactor, psd_all_principal_minors, random_measure

FLEET_SEED = 20240501
FLEET_SIZE = 200


@contextmanager
def criterion(cid: int, description: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {cid} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {cid}: PASS - {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def fleet():
    """200 seeded random measures with n <= 5 atoms and windows of horizon n + 2."""
    rng = SplitMix64(FLEET_SEED)
    out = []
    for _ in range(FLEET_SIZE):
        n = rng.randint(1, 5)
        spec = MeasureGenSpec(
            atom_count=n,
            atom_range=(F(-4), F(4)),
            weight_range=(F(1, 6), F(5)),
            denominator_bound=6,
            seed=rng.next_u64(),
        )
        mu = random_measure(spec)
        window = MomentWindow(measure_moments(mu, 2 * n + 5))
        out.append((n, mu, window))
    return out


def test_criterion_1_remark_counterexample():
    with criterion(1, "Remark counterexample 1,1,1,1,0,0,0", budget_seconds=1.0):
        window = MomentWindow([1, 1, 1, 1, 0, 0, 0])
        cls = classify(window)
        assert isinstance(cls, Invalid) and cls.first_violation == 3
        assert det_sequence(window) == [1, 0, 0, 1]
        assert is_psd(hankel_matrix(window, 2)) is False


def test_criterion_2_worked_example_both_branches():
    with criterion(2, "worked example at a = 4 and a = 1/4", budget_seconds=1.0):
        window = MomentWindow([1, 1, 4, 4, 16])
        cls = classify(window)
        assert isinstance(cls, Degenerate) and cls.n0 == 2
        rec = reconstruct(window)
        assert rec.atoms == (F(-2), F(2))
        assert rec.weights == (F(1, 4), F(3, 4))
        assert extend(window, 4) == [16, 64, 64, 256]

        quarter = MomentWindow([1, F(1, 4), F(1, 4), F(1, 16), F(1, 16)])
        cls = classify(quarter)
        assert isinstance(cls, Degenerate) and cls.n0 == 2
        rec = reconstruct(quarter)
        assert rec.atoms == (F(-1, 2), F(1, 2))
        assert rec.weights == (F(1, 4), F(3, 4))
        assert extend(quarter, 4) == [F(1, 64), F(1, 64), F(1, 256), F(1, 256)]


def test_criterion_3_determinant_pattern(fleet):
    with criterion(3, "determinant pattern for 200 random measures", budget_seconds=60.0):
        for n, _, window in fleet:
            assert window.horizon == n + 2
            dets = det_sequence(window)
            assert all(d > 0 for d in dets[:n])
            assert all(d == 0 for d in dets[n:])


def test_criterion_4_classification_and_psd(fleet):
    with criterion(4, "classification and PSD Hankels for each measure"):
        for n, _, window in fleet:
            assert classify(window) == Degenerate(n, True)
            for k in range(window.horizon + 1):
                assert is_psd(hankel_matrix(window, k))


def test_criterion_5_round_trip(fleet):
    with criterion(5, "exact measure recovery for each window"):
        for _, mu, window in fleet:
            rec = reconstruct(window)
            assert rec.atoms == mu.atoms
            assert rec.weights == mu.weights


def test_criterion_6_det1_campaign():
    with criterion(6, "200 vanishing-determinant instances", budget_seconds=30.0):
        report = verify_det1(trials=200, seed=0, max_n=4, max_p=3)
        assert report.trials == 200
        assert report.passed, report.failures[:1]


def test_criterion_7_det2_campaign():
    with criterion(
        7, "200 factored-determinant instances incl. collisions", budget_seconds=30.0
    ):
        report = verify_det2(trials=200, seed=0, max_n=4, max_p=3)
        assert report.trials == 200
        assert report.passed, report.failures[:1]


def test_criterion_8_geometric_case():
    with criterion(8, "n0 = 1 geometric continuation for 20 random ratios"):
        rng = SplitMix64(8)
        for _ in range(20):
            a = rng.rational(F(-6), F(6), 9)
            window = MomentWindow([F(1), a, a * a])
            cls = classify(window)
            assert isinstance(cls, Degenerate) and cls.n0 == 1
            assert extend(window, 5) == [a**3, a**4, a**5, a**6, a**7]


def test_criterion_9_uniqueness_probe(fleet):
    with criterion(9, "epsilon probe flips classification on 50 windows"):
        rng = SplitMix64(9)
        for n0, _, window in fleet[:50]:
            dets = det_sequence(window)
            eps = F(0)
            while eps == 0:
                eps = rng.rational(F(-5), F(5), 9)
            bumped = list(window)
            bumped[2 * n0] += eps
            bumped_window = MomentWindow(bumped)
            assert det_sequence(bumped_window)[n0] == eps * dets[n0 - 1]
            cls = classify(bumped_window)
            assert not (isinstance(cls, Degenerate) and cls.n0 == n0)


def test_criterion_10_oracle_agreement():
    with criterion(
        10, "det vs cofactor (500) and PSD vs all-minors (200)", budget_seconds=60.0
    ):
        rng = random.Random(10)
        for _ in range(500):
            order = rng.randint(1, 5)
            rows = [
                [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(order)]
                for _ in range(order)
            ]
            # The campaigns' kernel on the rows times 60 = lcm(1..5), as they scale theirs.
            scaled = [[int(60 * c) for c in row] for row in rows]
            assert _bareiss(scaled) == 60**order * det_cofactor(rows)
        for _ in range(200):
            order = rng.randint(1, 5)
            rows = [
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)]
                for _ in range(order)
            ]
            for i in range(order):
                for j in range(i):
                    rows[i][j] = rows[j][i]
            assert is_psd(rows) == psd_all_principal_minors(rows)
