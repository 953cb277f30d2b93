"""Tests for Hankel matrices, exact determinants, the PSD test, and classify."""
from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from fractions import Fraction as F
from itertools import accumulate
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelmp.errors import NotSymmetric, OutOfWindow
from hankelmp.exact import RationalPoly, format_rational
from hankelmp.hankel import (
    Degenerate,
    Invalid,
    InvalidReason,
    MomentWindow,
    PositiveWindow,
    _consistent_analysis,
    _monic_from_recurrence,
    _pass,
    _scaled,
    analyze,
    classify,
    det_sequence,
    hankel_matrix,
    is_psd,
    psd_witness,
)
from hankelmp.identities import _bareiss
from oracles import (
    classify_brute,
    det_cofactor,
    fraction_det,
    fraction_chebyshev,
    fraction_continuation,
    fraction_monic_polys,
    fraction_psd_witness,
    hilbert_window,
    leading_minors,
    moment_inner_product,
    orthogonal_poly,
    principal_minor_sums,
    psd_all_principal_minors,
)
from strategies import rationals

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


def quadratic_form(rows, v):
    """v^T A v with plain Fractions."""
    n = len(rows)
    return sum((v[i] * F(rows[i][j]) * v[j] for i in range(n) for j in range(n)), F(0))


@st.composite
def gram_matrices(draw, max_order=5):
    """B^T B of order <= 5 and rank 0..n, plus an optional symmetric perturbation.

    Rank-deficient products make zero pivots with zero rows; a perturbation
    of an off-diagonal entry next to a zero diagonal makes them with nonzero
    rows, and one of a diagonal entry can make a pivot negative.
    """
    n = draw(st.integers(1, max_order))
    entries = rationals(-3, 3, 3)
    b = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(draw(st.integers(0, n)))]
    rows = [[sum((r[i] * r[j] for r in b), F(0)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(i, n - 1))
        delta = draw(rationals(-2, 2, 4).filter(bool))
        rows[i][j] += delta
        if i != j:
            rows[j][i] += delta
    return rows


@st.composite
def measures(draw, max_atoms=5):
    count = draw(st.integers(1, max_atoms))
    atoms = draw(st.lists(rationals(-3, 3, 4), min_size=count, max_size=count, unique=True))
    weights = draw(st.lists(rationals(F(1, 4), 3, 4), min_size=count, max_size=count))
    return sorted(atoms), weights


def moments_of(measure, count):
    atoms, weights = measure
    return [sum(w * a**k for a, w in zip(atoms, weights)) for k in range(count)]


@st.composite
def perturbed_hankels(draw, max_order=10):
    """H_N of a measure of up to 5 atoms, order N + 1 <= 10, perturbed or not.

    Orders past the atom count give zero rows; a moved moment keeps the
    matrix Hankel, and a moved entry pair past the rank makes late
    negative pivots or zero pivots with nonzero rows.
    """
    n = draw(st.integers(0, max_order - 1))
    window = moments_of(draw(measures()), 2 * n + 1)
    kind = draw(st.sampled_from(["none", "moment", "entry"]))
    if kind == "moment":
        window[draw(st.integers(0, 2 * n))] += draw(rationals(-2, 2, 4).filter(bool))
    rows = [list(row) for row in hankel_matrix(window, n)]
    if kind == "entry":
        i = draw(st.integers(0, n))
        j = draw(st.integers(i, n))
        delta = draw(rationals(-2, 2, 4).filter(bool))
        rows[i][j] += delta
        if i != j:
            rows[j][i] += delta
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

    def test_equality_hash_and_repr(self):
        window = MomentWindow(["1/2", 3, F(1)])
        assert window == MomentWindow([F(1, 2), 3, 1]) and hash(window) == hash(window.moments)
        assert window != MomentWindow([F(1, 2), 3]) and window != window.moments
        assert repr(window) == "MomentWindow(['1/2', '3', '1'])"

    # Each library entry point that reads strings, checked on the value it reads from one.
    STRING_ENTRY_POINTS = {
        "MomentWindow": lambda text: MomentWindow([text, 1, 1]).moments[0] == 10**4300,
        "RationalPoly": lambda text: RationalPoly([text, 1]).coeffs[0] == 10**4300,
        "is_psd": lambda text: is_psd([[text]]),
        "psd_witness": lambda text: psd_witness([[text]]) is None,
    }

    @pytest.mark.parametrize("entry", sorted(STRING_ENTRY_POINTS))
    def test_strings_keep_the_exponent_bound(self, entry):
        # As parse_rational does for the CLI: 10**e is built in full.
        read = self.STRING_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=r"decimal exponent of '1e4301' exceeds 4300"):
            read("1e4301")
        assert read("1e4300")

    @pytest.mark.parametrize("entry", sorted(STRING_ENTRY_POINTS))
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, Decimal("Infinity")])
    def test_non_finite_numbers_are_value_errors(self, entry, value):
        # Fraction() raises OverflowError on an infinity; the library says ValueError.
        with pytest.raises(ValueError, match=r"not a finite rational|NaN"):
            self.STRING_ENTRY_POINTS[entry](value)


class TestHankelMatrix:
    def test_examples(self):
        assert hankel_matrix([1, 1, 4], 1) == ((1, 1), (1, 4))
        assert hankel_matrix([1, 1, 1, 1, 0], 2) == ((1, 1, 1), (1, 1, 1), (1, 1, 0))
        assert hankel_matrix([5], 0) == ((5,),)

    def test_rows_are_slices_of_the_moments(self):
        window = MomentWindow(REMARK)
        h = hankel_matrix(window, 2)
        assert type(h) is tuple and all(type(row) is tuple for row in h)
        assert h == tuple(window.moments[i : i + 3] for i in range(3))
        assert all(type(c) is F for row in h for c in row)

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            hankel_matrix([1, 1, 4], 2)
        with pytest.raises(OutOfWindow):
            hankel_matrix([1, 1, 4], -1)

    def test_out_of_window_message(self):
        with pytest.raises(OutOfWindow) as exc:
            hankel_matrix([1, 1, 4], 2)
        assert str(exc.value) == "H_2 needs s_0..s_4 but the window ends at s_2"


class TestDetExact:
    """The ``Fraction`` elimination oracle, and on integer matrices the
    campaigns' Bareiss kernel ``identities._bareiss``."""

    def test_examples(self):
        for rows, det in [
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
            ([[1, 1], [1, 4]], 3),
            (hankel_matrix(REMARK, 3), 1),
            ([], 1),
        ]:
            assert fraction_det(rows) == _bareiss([[int(c) for c in row] for row in rows]) == det

    def test_sign_tracking_via_permutations(self):
        for rows, det in [
            ([[0, 1], [1, 0]], -1),
            ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
            ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1),
        ]:
            assert fraction_det(rows) == _bareiss(rows) == det

    def test_zero_pivot_column(self):
        rows = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
        assert fraction_det(rows) == _bareiss(rows) == 0

    @pytest.mark.parametrize(
        "rows", [[[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[1, 2, 3], [2, 1, 2]]]
    )
    def test_non_square_message(self, rows):
        with pytest.raises(ValueError) as exc:
            fraction_det(rows)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "determinant needs a square matrix"

    def test_rational_entries(self):
        assert fraction_det([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]) == F(1, 14) - F(1, 15)

    def test_agrees_with_cofactor_oracle(self):
        rng = random.Random(777)
        for _ in range(500):
            order = rng.randint(1, 5)
            rows = random_matrix(rng, order)
            assert fraction_det(rows) == det_cofactor(rows)

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

    def test_symmetry_enforced(self):
        for test in (is_psd, psd_witness):
            with pytest.raises(NotSymmetric):
                test([[1, 2], [3, 4]])
            with pytest.raises(NotSymmetric):
                test([[1, 2, 3], [2, 1, 2]])

    @pytest.mark.parametrize("test", [is_psd, psd_witness])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 2, 3], [2, 1, 2]], "matrix is not square"),
            ([[1, 2], [2]], "matrix is not square"),
            ([[1, 2], [3, 4]], "entries (0,1) and (1,0) differ"),
            ([[1, 2, 0], [2, 1, 5], [0, 4, 1]], "entries (1,2) and (2,1) differ"),
        ],
    )
    def test_error_messages(self, test, rows, message):
        with pytest.raises(NotSymmetric) as exc:
            test(rows)
        assert str(exc.value) == message

    def test_zero_matrix_is_psd(self):
        assert is_psd([[0, 0], [0, 0]]) is True

    def test_principal_minor_sums_against_direct(self):
        # The characteristic-polynomial oracle, checked against cofactors.
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

    def test_witness_on_remark_counterexample(self):
        h = hankel_matrix([1, 1, 1, 1, 0], 2)
        v = psd_witness(h)
        assert v is not None
        assert quadratic_form(h, v) < 0

    def test_recorded_witnesses_are_unchanged(self):
        # Pins every byte of psd_witness on each branch of the elimination:
        # negative pivots early and late, zero pivots with nonzero rows, zero
        # rows skipped, and Hankel matrices of order up to 12 with large
        # denominators, PSD or perturbed.
        text = (Path(__file__).parent / "data" / "psd_witnesses.json").read_text(encoding="utf-8")
        doc = []
        for entry in json.loads(text):
            v = psd_witness(entry["matrix"])
            if v is not None:
                assert quadratic_form(entry["matrix"], v) < 0
            witness = None if v is None else [format_rational(c) for c in v]
            doc.append({**entry, "witness": witness})
        assert json.dumps(doc, indent=1) + "\n" == text

    @given(gram_matrices())
    @settings(derandomize=True, max_examples=300, deadline=None)
    @example([[1, 1, 1], [1, 1, 1], [1, 1, 0]])
    @example([[0, 0, 0], [0, 1, 2], [0, 2, 4]])
    @example([[0, 1], [1, 0]])
    def test_elimination_matches_oracles_and_witness_holds(self, rows):
        psd = is_psd(rows)
        assert psd == psd_all_principal_minors(rows)
        assert psd == all(e >= 0 for e in principal_minor_sums(rows))
        v = psd_witness(rows)
        assert (v is None) == psd
        if v is not None:
            assert quadratic_form(rows, v) < 0

    @given(st.one_of(gram_matrices(), perturbed_hankels()))
    @settings(derandomize=True, max_examples=300, deadline=None)
    @example([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 1]])
    @example([[0, 0, 0], [0, 2, 1], [0, 1, F(-1, 2)]])
    def test_witness_matches_the_fraction_elimination(self, rows):
        assert psd_witness(rows) == fraction_psd_witness(rows)


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
        zero = analyze([0] * 9)
        assert zero.classification == Degenerate(0, True) and zero.determinants == (0,) * 5
        assert zero.orthogonal_polys == (RationalPoly([1]),)
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

small_rationals = rationals(-4, 4, 3)
# Windows of length <= 12, so horizons N <= 5.
raw_windows = st.lists(small_rationals, min_size=1, max_size=12)


nudges = rationals(F(1, 8), 2, 8)

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


def monic_polys(alphas, betas) -> tuple[RationalPoly, ...]:
    """p_0..p_n from the integer rows of ``_monic_from_recurrence``."""
    return tuple(RationalPoly._from_row(*row) for row in _monic_from_recurrence(alphas, betas))


def count_builds(monkeypatch) -> list[int]:
    """Record n for each call of ``hankel._monic_from_recurrence`` on p_0..p_n."""
    import hankelmp.hankel as hankel

    real, calls = hankel._monic_from_recurrence, []

    def counted(alphas, betas):
        calls.append(len(alphas))
        return real(alphas, betas)

    monkeypatch.setattr(hankel, "_monic_from_recurrence", counted)
    return calls


@st.composite
def zero_prefix_windows(draw):
    """s_0 = .. = s_{j-1} = 0 ahead of a free tail, with horizons up to 6."""
    tail = draw(st.lists(small_rationals, min_size=1, max_size=13))
    return [F(0)] * draw(st.integers(1, 6)) + tail


@st.composite
def negative_s0_windows(draw):
    window = draw(raw_windows)
    return [-abs(window[0]) or F(-1)] + window[1:]


@st.composite
def free_tail_windows(draw):
    """A consistent n-atom prefix through s_{2n+e}, e >= 1, then a free tail.

    D_n.. vanish while the prefix lasts, so the first nonzero D after it,
    if any, sits past a zero block of length >= 2 whenever e >= 2.
    """
    atoms, weights = draw(measures(3))
    n = len(atoms)
    prefix = moments_of((atoms, weights), 2 * n + 1 + draw(st.integers(1, 4)))
    tail = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(3)]), max_size=6))
    return prefix + tail


# m = 0, 1 and 2: windows whose pass ends at once or after one step.
short_windows = st.lists(small_rationals, min_size=1, max_size=3)

determinant_windows = st.one_of(
    *(verdict_windows(verdict).map(lambda pair: pair[0]) for verdict in VERDICTS),
    zero_prefix_windows(),
    negative_s0_windows(),
    free_tail_windows(),
    short_windows,
)


# Ten-digit primes: every entry of a window gets its own denominator, so the
# lcm of a row's denominators is as large as it can be.
LARGE_PRIMES = (
    1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093, 1000000097,
    1000000103, 1000000123, 1000000181, 1000000207, 1000000223, 1000000241,
)


@st.composite
def coprime_windows(draw):
    """Windows whose entries or atoms and weights have distinct large prime denominators.

    Either free numerators over LARGE_PRIMES, or the moments of a measure of
    up to 4 atoms and weights over them, with one moment perturbed or not.
    """
    length = draw(st.integers(1, len(LARGE_PRIMES)))
    primes = draw(st.permutations(LARGE_PRIMES))
    if draw(st.booleans()):
        nums = draw(st.lists(st.integers(-10**9, 10**9), min_size=length, max_size=length))
        return [F(v, p) for v, p in zip(nums, primes)]
    count = draw(st.integers(1, 4))
    atoms = sorted({F(draw(st.integers(-3 * p, 3 * p)), p) for p in primes[:count]})
    weights = [F(draw(st.integers(1, 3 * p)), p) for p in primes[count : 2 * count]]
    window = moments_of((atoms, weights), draw(st.integers(2 * len(atoms) + 1, 12)))
    if draw(st.booleans()):
        window[draw(st.integers(0, len(window) - 1))] += F(draw(st.sampled_from([-1, 1])), primes[-1])
    return window


@st.composite
def zero_block_windows(draw):
    """A zero run D_n..D_{n+d-1}, d = 1..7, after the moments of n = 0..3 signed atoms.

    The window agrees with the measure through s_{2n+d-1} and moves s_{2n+d},
    so sigma_n(n+d) is the first nonzero entry of the row of p_n; a free
    tail follows, up to 21 entries in all.  Weights of either sign put
    negative pivots ahead of the run, n = 0 is an s_0 = 0 prefix, and a
    window that ends before s_{2n+2d} has a block that reaches the horizon.
    """
    n = draw(st.integers(0, 3))
    d = draw(st.integers(1, 7))
    atoms = draw(st.lists(small_rationals, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(small_rationals.filter(bool), min_size=n, max_size=n))
    window = [F(v) for v in moments_of((atoms, weights), 2 * n + d + 1)]
    window[-1] += draw(nudges) * draw(st.sampled_from([-1, 1]))
    tail = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(3)])
    return window + draw(st.lists(tail, max_size=min(d + 3, 20 - 2 * n - d)))


class TestRecurrencePass:
    @given(st.one_of(determinant_windows, coprime_windows(), zero_block_windows()))
    @settings(derandomize=True, max_examples=600, deadline=None)
    @example([1, 1, 1, 1, 0, 0, 0])
    @example([0, 0, 0, 0, 1])
    @example([1, -1, 1, -1, 1, -1, 1, 0, 0, 2, -1])
    def test_integer_rows_match_the_fraction_pass(self, window):
        s = MomentWindow(window).moments
        steps, ref = list(_pass(s)), fraction_chebyshev(s)
        for step in steps:
            # Content-reduced: den is the lcm of the entries' reduced
            # denominators, so no factor builds up from row to row.
            nums, den = step.row
            assert den > 0 and math.gcd(den, *nums) == 1
        # Up to the first pivot h_k <= 0 the pass takes one three-term step
        # per index, the steps of the Chebyshev algorithm.
        k = len(ref.pivots) - 1
        nums, den = steps[k].row
        assert [F(v, den) for v in nums] == ref.row
        alphas = [step.alpha for step in steps[1 : k + 1]]
        betas = [step.beta for step in steps[1 : k + 1]]
        # beta_0 = s_0 in both, as in Gautschi's Chebyshev algorithm.
        assert ([F(*a) for a in alphas], [F(*b) for b in betas]) == (ref.alphas, ref.betas)
        assert monic_polys(alphas, betas) == fraction_monic_polys(ref.alphas, ref.betas)
        # Past it, the look-ahead steps give what the subresultant
        # continuation gave, and both give the cofactor determinants.
        known = list(accumulate(ref.pivots, mul))
        if ref.pivots[-1] <= 0:
            known[k:] = fraction_continuation(ref, len(s) - 1, known)
        assert [d for step in steps for d in step.dets] == known == cofactor_determinants(window)

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
        rationals(F(1, 5), 5, 5),
        rationals(F(1, 5), 5, 5),
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

    @given(determinant_windows)
    @settings(derandomize=True, max_examples=400, deadline=None)
    @example([1, 1, 1, 1, 0, 0, 0])
    @example([0, 0, 0, 0, 1])
    @example([1, 0, 0, 0, 1])
    def test_every_determinant_matches_cofactor_oracle(self, window):
        # Past a zero or negative pivot every D_j comes from the same pass,
        # across zero blocks and zero prefixes alike.
        analysis = analyze(window)
        assert list(analysis.determinants) == cofactor_determinants(window)
        assert as_tuple(analysis.classification) == classify_brute(window)

    def test_consistent_tail_needs_no_elimination(self):
        # Two atoms, horizon 5: D_2..D_5 are zero by the kernel argument alone.
        analysis = analyze([2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2])
        assert analysis.classification == Degenerate(2, True)
        assert analysis.determinants == (2, 4, 0, 0, 0, 0)
        assert analysis.kernel.coeffs == (-1, 0, 1)

    def test_inconsistent_zero_pivot_needs_no_elimination(self):
        # Two atoms +-1 through s_5; s_6 = 1 breaks the tail with
        # <p_2, x^3> = 0 and <p_2, x^4> = -1, so D_2 = D_3 = 0 and the verdict
        # needs D_4 from the look-ahead step across that zero block.
        window = [2, 0, 2, 0, 2, 0, 1, 0, 2]
        analysis = analyze(window)
        assert analysis.classification == Invalid(4, InvalidReason.ZERO_THEN_POSITIVE)
        assert list(analysis.determinants) == cofactor_determinants(window) == [2, 4, 0, 0, 4]

    def test_analysis_continues_once_past_the_stop(self, monkeypatch):
        calls = count_pass_steps(monkeypatch)
        # analyze runs one pass to D_N, also past s_0 = 0, a negative pivot
        # or a zero block, with one step per regular index; a consistent
        # tail ends the pass at n0.  Reading the record computes nothing.
        for window, verdict, steps in [
            ([0, 0, 1, 0, 0], Invalid(2, InvalidReason.ZERO_S0_NONZERO_TAIL), 1),
            ([1, 0, -1, 0, 1], Invalid(1, InvalidReason.NEGATIVE_DETERMINANT), 3),
            ([2, 0, 2, 0, 2, 0, 1, 0, 2], Invalid(4, InvalidReason.ZERO_THEN_POSITIVE), 3),
            ([1, 1, 1, 1, 1], Degenerate(1, True), 2),
            ([1, 0, 1, 0, 2], PositiveWindow(2), 3),
        ]:
            calls.clear()
            analysis = analyze(window)
            assert analysis.classification == verdict
            for _ in range(2):
                assert list(analysis.determinants) == cofactor_determinants(window)
            assert calls == [steps]

    def test_analysis_of_an_analysis_is_the_record_itself(self, monkeypatch):
        analysis = analyze([2, 0, 4, 0, 8])
        calls = count_pass_steps(monkeypatch)
        assert analyze(analysis) is analysis
        assert det_sequence(analysis) == list(analysis.determinants) == [2, 8, 0]
        assert calls == []

    def test_verdict_reads_no_later_determinants(self, monkeypatch):
        from hankelmp.errors import PreconditionViolated
        from hankelmp.recovery import extend, reconstruct

        calls = count_pass_steps(monkeypatch)
        tail = [3, -1, 2, 0, 1, 1, 2, 0, -1, 2, 1, 1, 0, 2]
        # Step k of the pass forms no row past sigma_k, so library classify,
        # reconstruct and extend pay for nothing past the step that fixes
        # the verdict; analyze, the CLI path, takes every step to D_N.
        for window, verdict, read, drained in [
            ([0, 0, 1] + tail, Invalid(2, InvalidReason.ZERO_S0_NONZERO_TAIL), [], 7),
            ([1, 2, 1] + tail, Invalid(1, InvalidReason.NEGATIVE_DETERMINANT), [2], 9),
            ([2, 0, 2, 0, 2, 0, 1, 0, 2] + tail, Invalid(4, InvalidReason.ZERO_THEN_POSITIVE), [3], 10),
            ([1] * 16 + [2], Degenerate(1, False), [2], 2),
            ([2, 0] * 8 + [2], Degenerate(2, True), [3], 3),
        ]:
            calls.clear()
            assert classify(window) == verdict
            for call in (reconstruct, lambda w: extend(w, 3)):
                if verdict == Degenerate(2, True):
                    call(window)
                else:
                    with pytest.raises(PreconditionViolated):
                        call(window)
            assert calls == read * 3
            calls.clear()
            assert analyze(window).classification == verdict
            assert calls == [drained]

    def test_polynomials_are_built_only_where_they_are_read(self, monkeypatch, tmp_path, capsys):
        from hankelmp.cli import run
        from hankelmp.recovery import extend, reconstruct

        calls = count_builds(monkeypatch)
        # Library classify and det_sequence read no p_k, and analyze builds
        # none until its record is read, so a consistent degenerate window
        # builds none there; reconstruct and extend of a window build the
        # rows of p_0..p_n0 once each, and an analysis builds its own once,
        # on the first read, for reconstruct and extend together.
        window = [1, 1, 4, 4, 16, 16, 64]
        assert classify(window) == Degenerate(2, True) and calls == []
        assert det_sequence(window) == [1, 3, 0, 0] and calls == []
        reconstruct(window)
        assert calls == [2]
        extend(window, 3)
        analysis = analyze(window)
        assert calls == [2, 2]
        reconstruct(analysis), extend(analysis, 3), classify(analysis)
        assert calls == [2, 2, 2]
        for other in ([1] * 16 + [2], [1, 2, 1], [1, 0, 1, 0, 2]):
            classify(other)
            assert analyze(other).orthogonal_polys is None
        assert calls == [2, 2, 2]
        # CLI classify prints the verdict and D_0..D_N, and builds no p_k.
        path = tmp_path / "window.json"
        path.write_text(json.dumps(window), encoding="utf-8")
        assert run(["classify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["determinants"] == ["1", "3", "0", "0"]
        assert calls == [2, 2, 2]

    def test_reading_the_polynomials_changes_no_record(self, monkeypatch):
        from hankelmp.recovery import extend, reconstruct

        calls = count_builds(monkeypatch)
        window = [1, 1, 4, 4, 16, 16, 64]
        unread, read = analyze(window), analyze(window)
        before = (hash(read), repr(read))
        # The kernel is the last row wrapped once; the other p_k are wrapped
        # on the first read of orthogonal_polys, from the same rows.
        assert read.kernel == RationalPoly([-4, 0, 1]) and calls == [2]
        assert read.orthogonal_polys[-1] is read.kernel
        reconstruct(read), extend(read, 3)
        assert calls == [2]
        assert read == unread and (hash(read), repr(read)) == before == (hash(unread), repr(unread))
        assert "RationalPoly" not in repr(read)

    @given(verdict_windows("consistent"))
    @example(([F(0)] * 7, ("degenerate", 0, True)))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_the_record_read_to_the_verdict_holds_every_determinant(self, drawn):
        # On a consistent degenerate window the verdict step is the pass's
        # last, so the record that reconstruct and extend read is analyze's.
        window, expected = drawn
        record = _consistent_analysis(window, "reconstruct")
        assert as_tuple(record.classification) == expected
        assert list(record.determinants) == det_sequence(window) == cofactor_determinants(window)
        assert record == analyze(window)

    def test_polynomial_builder_makes_no_fraction(self, monkeypatch):
        import hankelmp.hankel as hankel

        steps = list(_pass(MomentWindow(hilbert_window(20)).moments))
        alphas = [step.alpha for step in steps if step.alpha is not None]
        betas = [step.beta for step in steps if step.beta is not None]
        assert len(alphas) == 20
        made = []

        def counted(*args):
            made.append(args)
            return F(*args)

        # The builder reads the pass's integer pairs as integers.
        monkeypatch.setattr(hankel, "Fraction", counted)
        polys = _monic_from_recurrence(alphas, betas)
        assert made == [] and len(polys) == 21


def count_pass_steps(monkeypatch) -> list[int]:
    """Count the steps taken from each ``hankel._pass``, one list entry per pass."""
    import hankelmp.hankel as hankel

    real = hankel._pass
    calls: list[int] = []

    def counted(s):
        calls.append(0)
        for step in real(s):
            calls[-1] += 1
            yield step

    monkeypatch.setattr(hankel, "_pass", counted)
    return calls


# The 40 primes from 53 to 257: distinct denominators for 20 atoms and 20 weights.
DEEP_PRIMES = tuple(p for p in range(53, 258) if all(p % d for d in range(2, 17)))


def deep_window(rng, n, perturbed):
    """(window, a, c): n atoms in [-3, 3] and weights in (0, 3], each over its
    own prime from DEEP_PRIMES, and integers a and c with every c * a^k * s_k
    an integer.  A perturbed copy moves one moment by +-1/q, q a weight prime.
    """
    dens = rng.sample(DEEP_PRIMES, 2 * n)
    atoms = sorted(F(rng.choice([v for v in range(-3 * p, 3 * p + 1) if v % p]), p) for p in dens[:n])
    weights = [F(rng.choice([v for v in range(1, 3 * q) if v % q]), q) for q in dens[n:]]
    window = moments_of((atoms, weights), 2 * n + 1 + rng.randint(0, 1))
    if perturbed:
        window[rng.randrange(len(window))] += F(rng.choice([-1, 1]), dens[-1])
    return window, math.prod(dens[:n]), math.prod(dens[n:])


class TestDeepWindows:
    @pytest.mark.parametrize(
        "n, perturbed, seed",
        [(20, False, 0), (18, True, 1), (14, True, 2), (11, False, 3), (7, True, 4), (4, True, 5)],
    )
    def test_determinants_match_bareiss_and_polys_stay_orthogonal(self, n, perturbed, seed):
        window, a, c = deep_window(random.Random(seed), n, perturbed)
        analysis = analyze(window)
        if not perturbed:
            assert analysis.classification == Degenerate(n, True)
        # D_j of c * a^k * s_k is c^(j+1) a^(j(j+1)) D_j.  One Bareiss
        # elimination of that integer window's H_N gives every leading minor,
        # since no D_j but the last is zero on these windows.
        scaled = [c * a**k * s for k, s in enumerate(window)]
        assert all(x.denominator == 1 for x in scaled)
        order = len(analysis.determinants)
        h = [[x.numerator for x in scaled[i : i + order]] for i in range(order)]
        assert leading_minors(h) == [
            c ** (j + 1) * a ** (j * (j + 1)) * d for j, d in enumerate(analysis.determinants)
        ]
        steps = list(_pass(analysis.window.moments))
        for step in steps:
            nums, den = step.row
            assert den > 0 and math.gcd(den, *nums) == 1
        # Up to the first D_k <= 0, step k is a three-term step with pivot
        # h_k = D_k / D_{k-1}, and p_0..p_k stay orthogonal.
        k = next((k for k, step in enumerate(steps) if step.dets[0] <= 0), len(steps) - 1)
        dets = [F(1)] + [step.dets[0] for step in steps[: k + 1]]
        polys = monic_polys(
            [step.alpha for step in steps[1 : k + 1]], [step.beta for step in steps[1 : k + 1]]
        )
        for k, p in enumerate(polys):
            for j in range(k + 1):
                x_j = RationalPoly([0] * j + [1])
                assert moment_inner_product(p, x_j, window) == (dets[k + 1] / dets[k] if j == k else 0)
        if not perturbed:
            assert analysis.orthogonal_polys == polys

    @pytest.mark.parametrize("n, perturbed, seed", [(20, False, 0), (18, True, 1), (11, False, 3), (4, True, 5)])
    def test_three_term_multipliers_stay_near_lowest_terms(self, n, perturbed, seed):
        # Step k multiplies row k by b and row k-1 by e after dividing b, a
        # and e by their gcd; alpha_k = a / b is that reduced pair.  Summed
        # over the pass, its bits are 1.05-1.20 times those of alpha_k in
        # lowest terms on these windows, and 2.05-2.55 times without the gcd.
        window, _, _ = deep_window(random.Random(seed), n, perturbed)
        steps = list(_pass(MomentWindow(window).moments))
        pairs = [step.alpha for step in steps if step.alpha is not None]
        lowest = [(F(*pair).numerator, F(*pair).denominator) for pair in pairs]
        assert all(den > 0 for _, den in pairs)
        bits = [sum(abs(v).bit_length() for pair in ps for v in pair) for ps in (pairs, lowest)]
        assert bits[0] <= 1.5 * bits[1]

    def test_scaled_psd_entries_are_no_larger_than_the_integer_window(self):
        # D A D / g of H_N is the integer Hankel matrix of c * a^k * s_k over
        # its gcd; without the division by g every entry carries c * a^(2N).
        window, a, c = deep_window(random.Random(0), 20, False)
        h = hankel_matrix(window, 20)
        bound = max((c * a**k * s).numerator.bit_length() for k, s in enumerate(window[:41]))
        m, _, g = _scaled(h)
        assert max(abs(x).bit_length() for row in m for x in row) <= bound
        assert max(abs(x * g).bit_length() for row in m for x in row) > bound


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# Windows up to N = 10, zeros frequent, with an optional zero prefix.
sympy_windows = st.tuples(
    st.integers(0, 3),
    st.lists(st.one_of(st.just(F(0)), small_rationals), min_size=1, max_size=21),
).map(lambda pair: ([F(0)] * pair[0] + pair[1])[:21])


class TestAgainstSympy:
    @given(sympy_windows)
    @settings(derandomize=True, max_examples=100, deadline=None)
    @example([0] * 20 + [1])
    def test_determinants_match_sympy(self, sympy, window):
        determinants = analyze(window).determinants
        for j, d in enumerate(determinants):
            h = sympy.Matrix(j + 1, j + 1, lambda r, c: sympy.Rational(str(window[r + c])))
            assert h.det() == sympy.Rational(d.numerator, d.denominator)
