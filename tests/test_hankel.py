"""Tests for Hankel matrices, exact determinants, the PSD test, and classify."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelmp.errors import NotSymmetric, OutOfWindow
from hankelmp.hankel import (
    Degenerate,
    Invalid,
    InvalidReason,
    MomentWindow,
    PositiveWindow,
    SymMatrix,
    analyze,
    classify,
    det_exact,
    det_sequence,
    hankel_matrix,
    is_psd,
    principal_minor_sums,
)
from oracles import classify_brute, det_cofactor, orthogonal_poly, psd_all_principal_minors

REMARK = [1, 1, 1, 1, 0, 0, 0]
EXAMPLE_A4 = [1, 1, 4, 4, 16]


def random_matrix(rng, order):
    return [
        [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(order)]
        for _ in range(order)
    ]


def random_symmetric(rng, order):
    rows = random_matrix(rng, order)
    for i in range(order):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return rows


class TestWindow:
    def test_horizon(self):
        assert MomentWindow([1]).horizon == 0
        assert MomentWindow([1, 2]).horizon == 0
        assert MomentWindow([1, 2, 3]).horizon == 1
        assert MomentWindow(REMARK).horizon == 3

    def test_needs_s0(self):
        with pytest.raises(ValueError):
            MomentWindow([])

    def test_accepts_strings(self):
        assert MomentWindow(["1/2", 3, F(1)]).moments == (F(1, 2), F(3), F(1))


class TestHankelMatrix:
    def test_examples(self):
        assert hankel_matrix([1, 1, 4], 1).rows == ((1, 1), (1, 4))
        assert hankel_matrix([1, 1, 1, 1, 0], 2).rows == ((1, 1, 1), (1, 1, 1), (1, 1, 0))
        assert hankel_matrix([5], 0).rows == ((5,),)

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            hankel_matrix([1, 1, 4], 2)
        with pytest.raises(OutOfWindow):
            hankel_matrix([1, 1, 4], -1)

    def test_symmetry_enforced(self):
        with pytest.raises(NotSymmetric):
            SymMatrix([[1, 2], [3, 4]])
        with pytest.raises(NotSymmetric):
            SymMatrix([[1, 2, 3], [2, 1, 2]])


class TestDetExact:
    def test_examples(self):
        assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
        assert det_exact([[1, 1], [1, 4]]) == 3
        assert det_exact(hankel_matrix(REMARK, 3)) == 1

    def test_sign_tracking_via_permutations(self):
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert det_exact([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]) == 1

    def test_zero_pivot_column(self):
        assert det_exact([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0

    def test_rational_entries(self):
        assert det_exact([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]) == F(1, 14) - F(1, 15)

    def test_agrees_with_cofactor_oracle(self):
        rng = random.Random(777)
        for _ in range(500):
            order = rng.randint(1, 5)
            rows = random_matrix(rng, order)
            assert det_exact(rows) == det_cofactor(rows)

    def test_det_sequence_examples(self):
        assert det_sequence(REMARK) == [1, 0, 0, 1]
        assert det_sequence(EXAMPLE_A4) == [1, 3, 0]
        assert det_sequence([0, 0, 0]) == [0, 0]


class TestIsPsd:
    def test_examples(self):
        assert is_psd(hankel_matrix([1, 1, 1, 1, 0], 2)) is False
        assert is_psd([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) is True
        assert is_psd(hankel_matrix(EXAMPLE_A4, 2)) is True

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            is_psd([[1, 2], [3, 4]])

    def test_zero_matrix_is_psd(self):
        assert is_psd([[0, 0], [0, 0]]) is True

    def test_principal_minor_sums_against_direct(self):
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        e1, e2, e3 = principal_minor_sums(rows)
        assert e1 == 9
        assert e2 == det_cofactor([[2, 1], [1, 3]]) + det_cofactor(
            [[2, 0], [0, 4]]
        ) + det_cofactor([[3, 1], [1, 4]])
        assert e3 == det_cofactor(rows)

    def test_agrees_with_all_minors_oracle(self):
        rng = random.Random(31337)
        for _ in range(200):
            order = rng.randint(1, 5)
            rows = random_symmetric(rng, order)
            assert is_psd(rows) == psd_all_principal_minors(rows)


class TestClassify:
    def test_spec_examples(self):
        assert classify(EXAMPLE_A4) == Degenerate(2, True)
        assert classify(REMARK) == Invalid(3, InvalidReason.ZERO_THEN_POSITIVE)
        assert classify([1, 0, 0]) == Degenerate(1, True)

    def test_positive_window(self):
        assert classify([5]) == PositiveWindow(0)
        assert classify([2, 0, 1, 0, 1]) == PositiveWindow(2)

    def test_negative_determinant(self):
        assert classify([-1]) == Invalid(0, InvalidReason.NEGATIVE_DETERMINANT)
        assert classify([1, 2, 1]) == Invalid(1, InvalidReason.NEGATIVE_DETERMINANT)

    def test_negative_after_zero(self):
        # D = [1, 0, -1]: the zero is followed by a negative value.
        window = [1, 1, 1, 2, 0]
        dets = det_sequence(window)
        assert dets[1] == 0 and dets[2] < 0
        assert classify(window) == Invalid(2, InvalidReason.NEGATIVE_DETERMINANT)

    def test_zero_s0(self):
        assert classify([0]) == Degenerate(0, True)
        assert classify([0, 0, 0]) == Degenerate(0, True)
        assert classify([0, 0, 1]) == Invalid(2, InvalidReason.ZERO_S0_NONZERO_TAIL)
        assert classify([0, 1, 0]) == Invalid(1, InvalidReason.ZERO_S0_NONZERO_TAIL)

    def test_inconsistent_tail_detected(self):
        # Degenerate determinant pattern whose tail breaks the recurrence.
        assert classify([1, 1, 1, 1, 0]) == Degenerate(1, False)
        assert classify([1, 2, 4, 8, 17]) == Degenerate(1, False)
        assert classify([1, 2, 4, 8, 16]) == Degenerate(1, True)

    def test_remark_caveat_all_nonnegative_yet_not_psd(self):
        # Every in-window determinant of [1,1,1,1,0] is >= 0, but H_2 is not PSD.
        window = MomentWindow([1, 1, 1, 1, 0])
        assert all(d >= 0 for d in det_sequence(window))
        assert is_psd(hankel_matrix(window, 2)) is False

    def test_trichotomy_on_random_windows(self):
        rng = random.Random(2718)
        for _ in range(300):
            length = rng.randint(1, 9)
            window = MomentWindow(
                [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(length)]
            )
            cls = classify(window)
            dets = det_sequence(window)
            assert isinstance(cls, (PositiveWindow, Degenerate, Invalid))
            if isinstance(cls, PositiveWindow):
                assert all(d > 0 for d in dets)
            elif isinstance(cls, Degenerate):
                assert all(d > 0 for d in dets[: cls.n0])
                assert all(d == 0 for d in dets[cls.n0 :])
            elif cls.reason is InvalidReason.NEGATIVE_DETERMINANT:
                assert dets[cls.first_violation] < 0
            elif cls.reason is InvalidReason.ZERO_THEN_POSITIVE:
                assert dets[cls.first_violation] > 0
                assert any(d == 0 for d in dets[: cls.first_violation])
            else:
                assert window[0] == 0 and window[cls.first_violation] != 0

    def test_degenerate_windows_have_psd_hankels(self):
        # Theorem direction, on genuine truncated moment sequences (a window
        # with a consistent degenerate pattern comes from an n0-atom measure).
        from hankelmp.recovery import DiscreteMeasure, measure_moments

        rng = random.Random(5)
        for _ in range(30):
            count = rng.randint(1, 4)
            atoms: set[F] = set()
            while len(atoms) < count:
                atoms.add(F(rng.randint(-6, 6), rng.randint(1, 4)))
            weights = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(count)]
            mu = DiscreteMeasure(tuple(sorted(atoms)), tuple(weights))
            window = MomentWindow(measure_moments(mu, 2 * count + 4))
            cls = classify(window)
            assert cls == Degenerate(count, True)
            for k in range(window.horizon + 1):
                assert is_psd(hankel_matrix(window, k))


# --- Hypothesis properties of the recurrence pass -----------------------------

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# Windows of length <= 12, so horizons N <= 5.
raw_windows = st.lists(small_rationals, min_size=1, max_size=12)


@st.composite
def measures(draw, max_atoms=5):
    count = draw(st.integers(1, max_atoms))
    atoms = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=count, max_size=count, unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4),
            min_size=count, max_size=count,
        )
    )
    return sorted(atoms), weights


def moments_of(measure, count):
    atoms, weights = measure
    return [sum(w * a**k for a, w in zip(atoms, weights)) for k in range(count)]


nudges = st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8)

VERDICTS = ("positive", "consistent", "inconsistent", "negative", "zero_then_positive", "zero_s0")


@st.composite
def verdict_windows(draw, verdict):
    """A window of length <= 12 built to get ``verdict``; returns (window, expected)."""
    if verdict == "positive":
        atoms, weights = draw(measures())
        n = len(atoms)
        window = moments_of((atoms, weights), draw(st.integers(1, 2 * n)))
        return window, ("positive", (len(window) - 1) // 2)
    if verdict == "zero_s0":
        window = draw(raw_windows)
        zeros = draw(st.integers(1, len(window)))
        window = [F(0)] * zeros + window[zeros:]
        first = next((k for k, v in enumerate(window) if v != 0), None)
        return window, ("degenerate", 0, True) if first is None else ("invalid", first, "ZeroS0NonzeroTail")
    # The remaining windows perturb an n-atom moment window past s_{2n-1}.
    # In the basis p_0, .., p_n, x p_n, x^2 p_n of the monic orthogonal
    # polynomials, H_{n+1} and H_{n+2} end in the blocks [[0, e1], [e1, *]]
    # and [[0, e1, e2], [e1, e2, *], [e2, *, *]] with e_j = <p_n, x^(n+j)>.
    max_atoms = {"consistent": 5, "inconsistent": 4, "negative": 4, "zero_then_positive": 3}[verdict]
    atoms, weights = draw(measures(max_atoms))
    n = len(atoms)
    if verdict == "consistent":
        window = moments_of((atoms, weights), draw(st.integers(2 * n + 1, 12)))
        return window, ("degenerate", n, True)
    if verdict == "inconsistent":
        # A bump of the last moment past s_{2n+1} changes no determinant:
        # at an even index 2N > 2n it adds bump * D_{N-1} = 0 to D_N.
        window = moments_of((atoms, weights), draw(st.integers(2 * n + 2, 12)))
        window[-1] += draw(nudges) * draw(st.sampled_from([-1, 1]))
        return window, ("degenerate", n, False)
    if verdict == "negative":
        # e1 != 0 makes D_{n+1} a negative multiple of e1^2.
        window = moments_of((atoms, weights), draw(st.integers(2 * n + 3, 12)))
        window[2 * n + 1] += draw(nudges) * draw(st.sampled_from([-1, 1]))
        return window, ("invalid", n + 1, "NegativeDeterminant")
    # e1 = 0 and e2 < 0: D_{n+1} = 0 and D_{n+2} is a positive multiple of -e2^3.
    window = moments_of((atoms, weights), 2 * n + 5)
    window[2 * n + 2] -= draw(nudges)
    return window, ("invalid", n + 2, "ZeroThenPositive")


def as_tuple(cls) -> tuple:
    if isinstance(cls, PositiveWindow):
        return ("positive", cls.horizon)
    if isinstance(cls, Degenerate):
        return ("degenerate", cls.n0, cls.window_consistent)
    return ("invalid", cls.first_violation, cls.reason.value)


def cofactor_determinants(window):
    return [
        det_cofactor([[window[i + j] for j in range(n + 1)] for i in range(n + 1)])
        for n in range((len(window) - 1) // 2 + 1)
    ]


class TestRecurrencePass:
    @given(raw_windows)
    @settings(derandomize=True, max_examples=150, deadline=None)
    @example([1, 1, 1, 1, 0, 0, 0])
    @example([1, 1, 1, 1, 0])
    @example([0, 0, 1, 0, 0])
    def test_determinants_and_verdict_match_cofactor_oracle(self, window):
        analysis = analyze(window)
        assert list(analysis.determinants) == cofactor_determinants(window)
        assert as_tuple(analysis.classification) == classify_brute(window)

    @pytest.mark.parametrize("verdict", VERDICTS)
    @given(data=st.data())
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_every_verdict_matches_oracles(self, verdict, data):
        window, expected = data.draw(verdict_windows(verdict))
        analysis = analyze(window)
        assert as_tuple(analysis.classification) == expected == classify_brute(window)
        assert list(analysis.determinants) == cofactor_determinants(window)
        if expected[0] == "degenerate" and expected[2]:
            n0 = expected[1]
            p = orthogonal_poly(window, n0)
            assert analysis.kernel.coeffs == tuple(c / p[-1] for c in p)
        else:
            assert analysis.kernel is None

    @given(
        raw_windows,
        st.fractions(min_value=F(1, 5), max_value=5, max_denominator=5),
        st.fractions(min_value=F(1, 5), max_value=5, max_denominator=5),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    @example([1, 1, 4, 4, 16], F(3), F(1, 2))
    @example([1, 1, 1, 1, 0, 0, 0], F(2), F(3))
    def test_scale_covariance(self, window, c, a):
        base = analyze(window)
        scaled = analyze([c * s for s in window])
        dilated = analyze([a**k * s for k, s in enumerate(window)])
        for k, d in enumerate(base.determinants):
            assert scaled.determinants[k] == c ** (k + 1) * d
            assert dilated.determinants[k] == a ** (k * (k + 1)) * d
        assert scaled.classification == base.classification
        assert dilated.classification == base.classification
        if base.kernel is not None:
            n0 = base.kernel.degree
            assert scaled.kernel == base.kernel
            # The dilated measure has atoms a * x_j, so its kernel is a^n0 p(x / a).
            assert dilated.kernel.coeffs == tuple(
                coef * a ** (n0 - j) for j, coef in enumerate(base.kernel.coeffs)
            )

    def test_consistent_tail_needs_no_elimination(self, monkeypatch):
        import hankelmp.hankel as hankel

        def refuse(matrix):
            raise AssertionError("det_exact called on a consistent window")

        monkeypatch.setattr(hankel, "det_exact", refuse)
        # Two atoms, horizon 5: D_2..D_5 are zero by the kernel argument alone.
        analysis = analyze([2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2])
        assert analysis.classification == Degenerate(2, True)
        assert analysis.determinants == (2, 4, 0, 0, 0, 0)
        assert analysis.kernel.coeffs == (-1, 0, 1)

    def test_verdict_reads_no_later_determinants(self, monkeypatch):
        import hankelmp.hankel as hankel

        calls = []
        real = hankel.det_exact
        monkeypatch.setattr(hankel, "det_exact", lambda matrix: calls.append(matrix) or real(matrix))
        zero_s0 = [0, 0, 1, 0, 0]
        # After s_0 = 0 or a negative pivot the verdict is known without
        # D_{k+1..N}; they are eliminated only when read.
        assert classify(zero_s0) == Invalid(2, InvalidReason.ZERO_S0_NONZERO_TAIL)
        assert classify([1, 0, -1, 0, 1]) == Invalid(1, InvalidReason.NEGATIVE_DETERMINANT)
        assert calls == []
        assert list(analyze(zero_s0).determinants) == cofactor_determinants(zero_s0)
        assert len(calls) == 2
