"""Tests for the RNG, the campaigns' measure draw and integer kernels, and the
determinant lemmas."""
from __future__ import annotations

import json
from fractions import Fraction as F
from math import ceil, floor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelmp.errors import InfeasibleSpec
from hankelmp.hankel import analyze, det_sequence
from hankelmp.identities import (
    _ATOM_CHOICES,
    _EXTENSION,
    SplitMix64,
    _bareiss,
    _det1_filler_scaled,
    _det1_rows,
    _det2_fill,
    _det2_fill_scaled,
    _det2_rows,
    _draw_measure,
    _moment_table,
    verify_det1,
    verify_det2,
    verify_psd_theorem,
    verify_roundtrip,
)
from hankelmp.recovery import DiscreteMeasure, measure_moments, reconstruct
from oracles import (
    MeasureGenSpec,
    _count_rationals,
    det_cofactor,
    fraction_det,
    fraction_rational,
    random_measure,
)
from strategies import rationals


def _last_moment_plus_one(moments):
    return moments[:-1] + [moments[-1] + 1]


def _last_window_moment_plus_one(moments):
    # A roundtrip trial takes _EXTENSION moments past its window s_0..s_{2n+4}.
    k = _EXTENSION + 1
    return moments[:-k] + [moments[-k] + 1] + moments[-k + 1 :]


def _s2_negated(moments):
    # s_2 < 0 puts a negative diagonal entry into H_1 and every later H_k.
    return moments[:2] + [-moments[2] - 1] + moments[3:]


def corrupting(corrupt):
    """``identities._moment_table`` with ``corrupt`` applied to the moments.

    s_k + delta becomes N_k + delta V A^k, exact for the corrupters above.
    """

    def table(atoms, weights, count):
        nums, v, a = _moment_table(atoms, weights, count)
        moved = corrupt([F(t, v * a**k) for k, t in enumerate(nums)])
        scaled = [s * v * a**k for k, s in enumerate(moved)]
        assert all(s.denominator == 1 for s in scaled)
        return [s.numerator for s in scaled], v, a

    return table


def campaign_measure(n, seed):
    """The measure of a campaign trial with n atoms and sub-seed ``seed``, by the reference."""
    return random_measure(MeasureGenSpec(n, (F(-4), F(4)), (F(1, 6), F(5)), 6, seed))


bounds = rationals(-6, 6, 9)


class TestSplitMix64:
    def test_reference_stream(self):
        # First outputs of the standard SplitMix64 for seed 0.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_determinism(self):
        a, b = SplitMix64(987654321), SplitMix64(987654321)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_randint_bounds(self):
        rng = SplitMix64(5)
        values = [rng.randint(-3, 7) for _ in range(500)]
        assert min(values) == -3 and max(values) == 7

    def test_rational_bounds(self):
        rng = SplitMix64(6)
        for _ in range(200):
            x = rng.rational(F(-2), F(3), 7)
            assert -2 <= x <= 3 and x.denominator <= 7

    @given(bounds, bounds, st.integers(1, 12), st.integers(0, 2**64 - 1))
    @example(F(-7, 3), F(-1, 2), 5, 0)
    @example(F(1, 3), F(1, 3), 2, 1)  # no rational with q <= 2: both raise
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_rational_matches_the_fraction_reference(self, a, b, max_den, seed):
        lo, hi = min(a, b), max(a, b)
        rng, ref = SplitMix64(seed), SplitMix64(seed)

        def draws(rational):
            out = []
            try:
                for _ in range(5):
                    out.append(rational(lo, hi, max_den))
            except InfeasibleSpec as exc:
                out.append(str(exc))
            return out

        assert draws(rng.rational) == draws(lambda *args: fraction_rational(ref, *args))
        assert rng.state == ref.state

    @given(bounds, bounds, st.integers(1, 12), st.integers(1, 60))
    @example(F(-7, 3), F(-1, 2), 6, 60)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_count_rationals_matches_a_fraction_count(self, a, b, max_den, needed):
        lo, hi = min(a, b), max(a, b)
        found = {
            F(p, q) for q in range(1, max_den + 1) for p in range(ceil(lo * q), floor(hi * q) + 1)
        }
        assert _count_rationals(lo, hi, max_den, needed) == min(needed, len(found))

    def test_increasing_ints(self):
        rng = SplitMix64(7)
        for _ in range(50):
            xs = rng.increasing_ints(4, 0, 8)
            assert len(xs) == 4 and xs == sorted(set(xs))
            assert xs[0] >= 0 and xs[-1] <= 8

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError, match="empty integer range"):
            SplitMix64(0).randint(2, 1)
        with pytest.raises(ValueError, match="range too small"):
            SplitMix64(0).increasing_ints(4, 0, 2)


class TestRandomMeasure:
    SPEC = MeasureGenSpec(3, (F(0), F(1)), (F(1, 2), F(2)), 10, 42)

    def test_deterministic_in_seed(self):
        assert random_measure(self.SPEC) == random_measure(self.SPEC)

    def test_contracts(self):
        mu = random_measure(self.SPEC)
        assert len(mu) == 3
        assert list(mu.atoms) == sorted(mu.atoms)
        for atom in mu.atoms:
            assert 0 <= atom <= 1 and atom.denominator <= 10
        for weight in mu.weights:
            assert F(1, 2) <= weight <= 2

    def test_different_seed_different_measure(self):
        other = MeasureGenSpec(3, (F(0), F(1)), (F(1, 2), F(2)), 10, 43)
        assert random_measure(other) != random_measure(self.SPEC)

    def test_infeasible(self):
        with pytest.raises(InfeasibleSpec):
            random_measure(MeasureGenSpec(3, (F(0), F(1)), (F(1), F(2)), 1, 0))
        with pytest.raises(InfeasibleSpec):
            random_measure(MeasureGenSpec(2, (F(1, 3), F(1, 3)), (F(1), F(2)), 5, 0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MeasureGenSpec(0, (F(0), F(1)), (F(1), F(2)), 5, 0)
        with pytest.raises(ValueError):
            MeasureGenSpec(1, (F(0), F(1)), (F(0), F(2)), 5, 0)
        with pytest.raises(ValueError, match="denominator_bound"):
            MeasureGenSpec(1, (F(0), F(1)), (F(1), F(2)), 0, 0)
        with pytest.raises(ValueError, match="empty atom range"):
            MeasureGenSpec(1, (F(1), F(0)), (F(1), F(2)), 5, 0)

    def test_generator_soundness_lemma_deg_pattern(self):
        rng = SplitMix64(2024)
        for _ in range(50):
            count = rng.randint(1, 5)
            spec = MeasureGenSpec(
                count, (F(-4), F(4)), (F(1, 6), F(5)), 6, rng.next_u64()
            )
            mu = random_measure(spec)
            dets = det_sequence(measure_moments(mu, 2 * count + 5))
            assert all(d > 0 for d in dets[:count])
            assert all(d == 0 for d in dets[count:])


class TestDrawMeasure:
    @given(st.integers(1, 32), st.integers(0, 2**64 - 1))
    @example(32, 0)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_the_spec_generator(self, n, seed):
        # The campaigns' measure for one sub-seed, and the stream after it.
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        mu = campaign_measure(n, ref.next_u64())
        assert _draw_measure(rng, n) == (mu.atoms, mu.weights)
        assert rng.state == ref.state

    def test_atom_choices_match_a_count(self):
        assert _count_rationals(F(-4), F(4), 6, 10**6) == _ATOM_CHOICES == 97

    def test_too_many_atoms_raise_as_the_spec_generator_does(self):
        with pytest.raises(InfeasibleSpec) as spec_error:
            campaign_measure(98, 0)
        with pytest.raises(InfeasibleSpec) as draw_error:
            _draw_measure(SplitMix64(0), 98)
        assert str(draw_error.value) == str(spec_error.value)
        atoms, weights = _draw_measure(SplitMix64(0), 97)
        assert atoms == campaign_measure(97, SplitMix64(0).next_u64()).atoms


# Entries from a zero-heavy set, so that pivots vanish and need the row swap.
sparse_entries = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))


@st.composite
def swap_matrices(draw, max_order=6):
    """Integer matrices whose leading diagonal entries are zero up to a drawn index."""
    order = draw(st.integers(1, max_order))
    rows = [draw(st.lists(sparse_entries, min_size=order, max_size=order)) for _ in range(order)]
    for i in range(draw(st.integers(0, order))):
        rows[i][i] = 0
    return rows


class TestIntegerBareiss:
    @given(swap_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    @example([[1, 2, 0], [2, 4, 1], [0, 1, 1]])  # D_1 = 0: a swap at the second step
    @example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])  # a zero pivot column
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_matches_cofactor_oracle(self, rows):
        before = [list(row) for row in rows]
        assert _bareiss(rows) == det_cofactor(rows)
        assert rows == before

    def test_empty_and_single_entry(self):
        assert _bareiss([]) == 1
        assert _bareiss([[-7]]) == -7


# Random moment tables with their scales: the integer rows hold for any table.
tables = st.tuples(
    st.lists(st.integers(-10**6, 10**6), min_size=40, max_size=40),
    st.integers(1, 60),
    st.integers(1, 12),
)
fill_entries = rationals(-5, 5, 8)


class TestScaledDeterminants:
    @given(tables, st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_det1_rows_scale_the_rational_determinant(self, table, n, p, data):
        # Row i times V A^c_i (moment rows) or 840 (filler rows), column j times A^j.
        nums, v, a = table
        width = n + p
        cs = sorted(data.draw(st.sets(st.integers(0, 8), min_size=n + 1, max_size=n + 1)))
        filler = data.draw(st.lists(
            st.lists(fill_entries, min_size=width, max_size=width), min_size=p - 1, max_size=p - 1
        ))
        moments = [F(t, v * a**k) for k, t in enumerate(nums)]
        rational = fraction_det(_det1_rows(moments, cs, width, filler))
        scale = v ** (n + 1) * a ** (sum(cs) + width * (width - 1) // 2) * 840 ** (p - 1)
        rows = _det1_rows(nums, cs, width, _det1_filler_scaled(filler, a))
        assert _bareiss(rows) == rational * scale

    @given(tables, st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_det2_rows_scale_the_rational_determinant(self, table, n, p, data):
        # Entry (i, j) times 840 V A^(i+j), so the determinant takes
        # (840 V)^order A^(order (order - 1)).
        nums, v, a = table
        order, anti = n + p + 1, 2 * n + p
        xs = data.draw(st.lists(rationals(-6, 6, 8), min_size=p + 1, max_size=p + 1))
        size = p * (p + 1) // 2
        fill = data.draw(st.lists(fill_entries, min_size=size, max_size=size))
        moments = [F(t, v * a**k) for k, t in enumerate(nums)]
        rational = fraction_det(_det2_rows(n, p, moments, xs, fill))
        scaled_xs = [840 * v * a**anti * x for x in xs]
        assert all(x.denominator == 1 for x in scaled_xs)
        scaled_fill = _det2_fill_scaled(fill, p, 840 * v * a ** (anti + 1), a)
        rows = _det2_rows(n, p, [840 * t for t in nums], [int(x) for x in scaled_xs], scaled_fill)
        assert _bareiss(rows) == rational * (840 * v) ** order * a ** (order * (order - 1))

    def test_moment_table_is_the_measure_moments_scaled(self):
        atoms, weights = (F(-3, 2), F(1, 3), F(4)), (F(1, 6), F(5, 4), F(2))
        table, v, a = _moment_table(atoms, weights, 9)
        assert (v, a) == (12, 6)
        moments = measure_moments(DiscreteMeasure(atoms, weights), 9)
        assert table == [s * v * a**k for k, s in enumerate(moments)]


def det1_sides(mu, cs, p, filler):
    """The det1 matrix of mu, and its determinant by elimination and by cofactors."""
    moments = measure_moments(mu, cs[-1] + len(mu) + p)
    rows = _det1_rows(moments, cs, len(mu) + p, filler)
    return rows, fraction_det(rows), det_cofactor(rows)


class TestDet1:
    def test_equal_rows_trivial(self):
        mu = DiscreteMeasure((F(1),), (F(1),))
        assert det1_sides(mu, [0, 1], 1, []) == ([[1, 1], [1, 1]], 0, 0)

    def test_a4_example_is_d2(self):
        mu = DiscreteMeasure((F(-2), F(2)), (F(1, 4), F(3, 4)))
        rows, lib, oracle = det1_sides(mu, [0, 1, 2], 1, [])
        assert rows == [[1, 1, 4], [1, 4, 4], [4, 4, 16]]
        assert lib == oracle == 0

    def test_with_filler(self):
        mu = DiscreteMeasure((F(-1), F(1, 2), F(3)), (F(2), F(1, 3), F(1)))
        for filler in ([[F(1), F(-2), F(3), F(0), F(7)]], [[F(0)] * 5]):
            rows, lib, oracle = det1_sides(mu, [0, 2, 3, 5], 2, filler)
            assert rows[-1] == filler[0] and len(rows) == 5
            assert lib == oracle == 0
        # One moment row fewer and the filler doubled: no longer singular.
        moments = measure_moments(mu, 10)
        filler = [[F(1), F(-2), F(3), F(0), F(7)], [F(0), F(1), F(0), F(0), F(0)]]
        rows = _det1_rows(moments, [0, 2, 3], 5, filler)
        assert fraction_det(rows) == det_cofactor(rows) != 0


def factored(n, p, moments, xs):
    """(-1)^(p(p+1)/2) * D_{n-1} * prod_j (x_j - s_{2n+p})."""
    value = (-1) ** (p * (p + 1) // 2) * det_sequence(moments[: 2 * n - 1])[n - 1]
    for x in xs:
        value *= x - moments[2 * n + p]
    return value


def det2_sides(n, p, moments, xs, fill):
    return det_cofactor(_det2_rows(n, p, moments, xs, fill)), factored(n, p, moments, xs)


class TestDet2:
    MOMENTS = measure_moments(DiscreteMeasure((F(2),), (F(1),)), 4)

    def test_worked_example(self):
        assert _det2_rows(1, 1, self.MOMENTS, [F(0), F(0)], [F(5)]) == [
            [1, 2, 4], [2, 4, 0], [4, 0, 5]
        ]
        assert det2_sides(1, 1, self.MOMENTS, [F(0), F(0)], [F(5)]) == (-64, -64)

    def test_fill_independence(self):
        lhs, _ = det2_sides(1, 1, self.MOMENTS, [F(0), F(0)], [F(5)])
        assert det2_sides(1, 1, self.MOMENTS, [F(0), F(0)], [F(-123)])[0] == lhs

    def test_forced_collision_vanishes(self):
        mu = DiscreteMeasure((F(-1), F(2)), (F(1, 2), F(3)))
        s = measure_moments(mu, 7)
        s_top = s[6]  # 2n + p = 6 for n = 2, p = 2
        assert det2_sides(2, 2, s, [s_top] * 3, [F(1)] * 3) == (0, 0)

    def test_fill_sits_below_the_anti_diagonal_row_by_row(self):
        s = [F(k) for k in range(1, 10)]
        fill = _det2_fill(SplitMix64(4), 3)
        assert len(fill) == 6
        rows = _det2_rows(1, 3, s, [F(-1), F(-2), F(-3), F(-4)], fill)
        below = [rows[i][j] for i in range(5) for j in range(5) if i + j > 5]
        assert below == fill
        assert [rows[i][5 - i] for i in range(1, 5)] == [-1, -2, -3, -4]
        assert all(rows[i][j] == s[i + j] for i in range(5) for j in range(5) if i + j < 5)


class TestCampaigns:
    def test_det1_campaign(self):
        report = verify_det1(trials=60, seed=11)
        assert report.passed and report.trials == 60

    def test_det2_campaign(self):
        report = verify_det2(trials=60, seed=12)
        assert report.passed

    def test_roundtrip_campaign(self):
        report = verify_roundtrip(trials=40, seed=13)
        assert report.passed

    def test_psd_theorem_campaign(self):
        report = verify_psd_theorem(trials=30, seed=14)
        assert report.passed

    def test_failing_psd_trial_carries_a_witness(self, monkeypatch):
        import hankelmp.identities as identities

        monkeypatch.setattr(identities, "_moment_table", corrupting(_s2_negated))
        report = verify_psd_theorem(trials=3, seed=14)
        assert len(report.failures) == 3
        for failure in report.failures:
            witness = failure["witness"]
            assert witness["k"] == 1
            s = [F(m) for m in failure["moments"]]
            v = [F(c) for c in witness["v"]]
            assert sum(v[i] * s[i + j] * v[j] for i in range(2) for j in range(2)) < 0

    @pytest.mark.parametrize(
        "runner, kwargs, corrupt, recorded",
        [
            pytest.param(verify_det1, {"trials": 4, "seed": 3}, _last_moment_plus_one,
                         "det1_forced_failure.json", id="det1"),
            pytest.param(verify_det2, {"trials": 4, "seed": 3}, _last_moment_plus_one,
                         "det2_forced_failure.json", id="det2"),
            pytest.param(verify_roundtrip, {"trials": 3, "seed": 1}, _last_window_moment_plus_one,
                         "roundtrip_forced_failure.json", id="roundtrip"),
            pytest.param(verify_psd_theorem, {"trials": 3, "seed": 14}, _s2_negated,
                         "psd_theorem_forced_failure.json", id="psd-theorem"),
        ],
    )
    def test_failing_report_is_unchanged(self, monkeypatch, runner, kwargs, corrupt, recorded):
        # Pins every byte of a failing report: the record head, key order and values.
        import hankelmp.identities as identities

        monkeypatch.setattr(identities, "_moment_table", corrupting(corrupt))
        doc = runner(**kwargs).to_dict()
        text = (Path(__file__).parent / "data" / recorded).read_text(encoding="utf-8")
        assert json.dumps(doc, indent=1) + "\n" == text

    def test_det2_computes_the_moments_once_per_trial(self, monkeypatch):
        import hankelmp.identities as identities

        calls, det_calls = [], []

        def counted(atoms, weights, count):
            calls.append(count)
            return _moment_table(atoms, weights, count)

        def counted_dets(w):
            det_calls.append(len(w))
            return det_sequence(w)

        monkeypatch.setattr(identities, "_moment_table", counted)
        monkeypatch.setattr(identities, "det_sequence", counted_dets)
        assert verify_det2(trials=8, seed=3).passed
        assert len(calls) == 8
        assert len(det_calls) == 8

    def test_roundtrip_runs_the_recurrence_pass_once_per_trial(self, monkeypatch):
        import hankelmp.hankel as hankel

        calls = []
        original = hankel._pass

        def counted(s):
            calls.append(len(s))
            return original(s)

        monkeypatch.setattr(hankel, "_pass", counted)
        assert verify_roundtrip(trials=6, seed=0).passed
        assert len(calls) == 6

    def test_passing_psd_trial_runs_one_integer_elimination(self, monkeypatch):
        # H_N holds every H_k as a leading block, so a passing trial tests it
        # alone, and is_psd builds no witness.
        import hankelmp.hankel as hankel

        calls = []
        original = hankel._eliminate

        def counted(m):
            calls.append(len(m))
            return original(m)

        monkeypatch.setattr(hankel, "_eliminate", counted)
        assert verify_psd_theorem(trials=6, seed=14).passed
        assert len(calls) == 6

    def test_failing_det2_trial_reports_the_corrupted_instance(self, monkeypatch):
        import hankelmp.identities as identities

        # The table has 2n + p + 1 moments, so the last is s_{2n+p}, read only by the factors.
        monkeypatch.setattr(identities, "_moment_table", corrupting(_last_moment_plus_one))
        report = verify_det2(trials=4, seed=3)
        assert len(report.failures) == 4
        for failure in report.failures:
            assert failure["problems"] == [
                "factorization mismatch",
                "forced collision x_j = s_{2n+p} did not vanish",
            ]
            n, p = failure["n"], failure["p"]
            mu = DiscreteMeasure(
                tuple(F(a) for a in failure["measure"]["atoms"]),
                tuple(F(w) for w in failure["measure"]["weights"]),
            )
            s = _last_moment_plus_one(measure_moments(mu, 2 * n + p + 1))
            xs = [F(x) for x in failure["xs"]]
            matrix = [[F(c) for c in row] for row in failure["matrix"]]
            anti, order = 2 * n + p, n + p + 1
            above = [(i, j) for i in range(order) for j in range(order) if i + j < anti]
            assert all(matrix[i][j] == s[i + j] for i, j in above)
            assert [matrix[i][anti - i] for i in range(n, order)] == xs
            assert F(failure["lhs"]) == det_cofactor(matrix)
            assert F(failure["rhs"]) == factored(n, p, s, xs) != det_cofactor(matrix)

    def test_failing_det1_trial_reports_the_corrupted_instance(self, monkeypatch):
        import hankelmp.identities as identities

        # The table has cs[-1] + n + p moments: the last ends the last moment row.
        monkeypatch.setattr(identities, "_moment_table", corrupting(_last_moment_plus_one))
        report = verify_det1(trials=4, seed=3)
        assert len(report.failures) == 4
        for failure in report.failures:
            assert list(failure) == [
                "trial", "n", "p", "measure", "cs", "filler", "matrix", "determinant"
            ]
            n, p, cs = failure["n"], failure["p"], failure["cs"]
            mu = DiscreteMeasure(
                tuple(F(a) for a in failure["measure"]["atoms"]),
                tuple(F(w) for w in failure["measure"]["weights"]),
            )
            filler = [[F(c) for c in row] for row in failure["filler"]]
            moments = _last_moment_plus_one(measure_moments(mu, cs[-1] + n + p))
            rows = _det1_rows(moments, cs, n + p, filler)
            assert [[F(c) for c in row] for row in failure["matrix"]] == rows
            assert F(failure["determinant"]) == det_cofactor(rows) != 0

    def test_inconsistent_roundtrip_trials_are_reported_not_raised(self, monkeypatch):
        import hankelmp.identities as identities

        # The window's last moment lies past every H_k, so only its tail breaks.
        monkeypatch.setattr(identities, "_moment_table", corrupting(_last_window_moment_plus_one))
        report = verify_roundtrip(trials=3, seed=1)
        assert len(report.failures) == 3
        for failure in report.failures:
            assert list(failure) == [
                "trial", "n", "measure", "moments", "determinants", "reconstructed", "problems"
            ]
            n = failure["n"]
            assert failure["reconstructed"] is None
            assert failure["problems"] == [
                f"classification Degenerate(n0={n}, window_consistent=False) "
                f"instead of Degenerate({n}, True)"
            ]

    def test_det2_trial_whose_fill_changes_the_determinant_is_reported(self, monkeypatch):
        import hankelmp.identities as identities

        calls = []

        def off_on_the_second_call(rows):
            calls.append(rows)
            return _bareiss(rows) + (1 if len(calls) == 2 else 0)

        monkeypatch.setattr(identities, "_bareiss", off_on_the_second_call)
        report = verify_det2(trials=3, seed=3)
        assert len(report.failures) == 1
        (failure,) = report.failures
        assert list(failure)[:4] == ["trial", "n", "p", "measure"] and failure["trial"] == 0
        assert failure["problems"] == ["determinant depends on the free fill entries"]
        assert failure["lhs"] == failure["rhs"]

    def test_roundtrip_trial_with_a_broken_sign_pattern_is_reported(self, monkeypatch):
        import dataclasses

        import hankelmp.identities as identities

        def first_sign_flipped(window):
            analysis = analyze(window)
            dets = (-analysis.determinants[0],) + analysis.determinants[1:]
            return dataclasses.replace(analysis, determinants=dets)

        monkeypatch.setattr(identities, "analyze", first_sign_flipped)
        report = verify_roundtrip(trials=3, seed=1)
        assert len(report.failures) == 3
        for index, failure in enumerate(report.failures):
            assert list(failure)[:3] == ["trial", "n", "measure"] and failure["trial"] == index
            assert failure["problems"] == ["determinant sign pattern broken"]
            assert F(failure["determinants"][0]) < 0
            assert failure["reconstructed"] == failure["measure"]

    def test_roundtrip_trial_whose_reconstruction_differs_is_reported(self, monkeypatch):
        import hankelmp.identities as identities

        def first_weight_changed(analysis):
            mu = reconstruct(analysis)
            return DiscreteMeasure(mu.atoms, (mu.weights[0] + 1,) + mu.weights[1:])

        monkeypatch.setattr(identities, "reconstruct", first_weight_changed)
        report = verify_roundtrip(trials=3, seed=1)
        assert len(report.failures) == 3
        for index, failure in enumerate(report.failures):
            assert list(failure)[:3] == ["trial", "n", "measure"] and failure["trial"] == index
            assert failure["problems"] == ["reconstruction differs from the source measure"]
            source, rebuilt = failure["measure"], failure["reconstructed"]
            assert rebuilt["atoms"] == source["atoms"]
            assert F(rebuilt["weights"][0]) == F(source["weights"][0]) + 1

    def test_roundtrip_trial_whose_extension_differs_is_reported(self, monkeypatch):
        import dataclasses

        import hankelmp.identities as identities
        from hankelmp.recovery import extend

        def recurrence_off(analysis, count):
            # alpha_0 plus one moves every root of the kernel that drives the
            # extension.
            ((a, b), *alphas), betas = analysis._recurrence
            off = dataclasses.replace(analysis, _recurrence=([(a + b, b), *alphas], betas))
            return extend(off, count)

        monkeypatch.setattr(identities, "extend", recurrence_off)
        report = verify_roundtrip(trials=3, seed=1)
        assert len(report.failures) == 3
        for index, failure in enumerate(report.failures):
            assert list(failure)[:3] == ["trial", "n", "measure"] and failure["trial"] == index
            assert failure["problems"] == ["extension differs from the source measure's moments"]
            assert failure["reconstructed"] == failure["measure"]
            assert len(failure["moments"]) == 2 * failure["n"] + 5

    def test_reports_are_deterministic(self):
        a = verify_det2(trials=20, seed=77).to_dict()
        b = verify_det2(trials=20, seed=77).to_dict()
        assert a == b

    def test_report_structure(self):
        report = verify_det1(trials=5, seed=1)
        doc = report.to_dict()
        assert doc["campaign"] == "det1" and doc["trials"] == 5
        assert doc["seed"] == 1 and doc["ok"] is True and doc["failures"] == 0
