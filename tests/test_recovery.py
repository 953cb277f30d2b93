"""Tests for measure moments, measure recovery, and the unique extension."""
from __future__ import annotations

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmp.errors import PreconditionViolated
from hankelmp.exact import IsolatingInterval, RationalPoly
from hankelmp.hankel import Degenerate, MomentWindow, analyze, classify, det_sequence
from hankelmp.recovery import (
    DiscreteMeasure,
    RationalInterval,
    _moment_sums,
    _residuals_certified,
    extend,
    measure_moments,
    reconstruct,
)
from oracles import (
    hilbert_window,
    interval_mul,
    interval_power,
    interval_power_sum,
    solve_exact,
)


def holds(iv, x) -> bool:
    return iv.lo <= x <= iv.hi


def random_exact_measure(rng, max_atoms=5):
    count = rng.randint(1, max_atoms)
    atoms: set[F] = set()
    while len(atoms) < count:
        atoms.add(F(rng.randint(-10, 10), rng.randint(1, 6)))
    weights = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(count))
    return DiscreteMeasure(tuple(sorted(atoms)), weights)


class TestRationalInterval:
    def test_arithmetic_encloses(self):
        # The interval oracles that _moment_sums is checked against.
        rng = random.Random(9)
        for _ in range(200):
            a = F(rng.randint(-8, 8), rng.randint(1, 5))
            b = F(rng.randint(-8, 8), rng.randint(1, 5))
            ia = RationalInterval(a - F(1, rng.randint(2, 9)), a + F(1, rng.randint(2, 9)))
            ib = RationalInterval(b - F(1, rng.randint(2, 9)), b + F(1, rng.randint(2, 9)))
            assert holds(interval_mul(ia, ib), a * b)
            k = rng.randint(0, 5)
            assert holds(interval_power(ia, k), a**k)
            assert holds(interval_power_sum([ia, ib], [ib, ia], k), b * a**k + a * b**k)

    def test_power_tightness(self):
        iv = RationalInterval(F(-1), F(2))
        assert interval_power(iv, 0) == RationalInterval(F(1), F(1))
        assert interval_power(iv, 2) == RationalInterval(F(0), F(4))
        assert interval_power(iv, 3) == RationalInterval(F(-1), F(8))

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            RationalInterval(F(2), F(1))


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((F(1),), (F(0),))  # weight not positive
        with pytest.raises(ValueError):
            DiscreteMeasure((F(2), F(1)), (F(1), F(1)))  # atoms out of order
        with pytest.raises(ValueError):
            DiscreteMeasure((F(1), F(1)), (F(1), F(1)))  # atoms not distinct
        with pytest.raises(ValueError):
            DiscreteMeasure((F(1),), (F(1), F(1)))  # length mismatch

    def test_interval_atoms_must_be_disjoint(self):
        poly = RationalPoly([-2, 0, 1])
        with pytest.raises(ValueError):
            DiscreteMeasure(
                (IsolatingInterval(F(1), F(2), poly), IsolatingInterval(F(3, 2), F(3), poly)),
                (F(1), F(1)),
            )

    def test_empty_measure_is_exact(self):
        mu = DiscreteMeasure((), ())
        assert mu.is_exact and len(mu) == 0

    @pytest.mark.parametrize(
        "atoms, weights",
        [((1, 2), (1, 3)), ((F(1), 2), (1, F(3)))],
        ids=["all-int", "mixed"],
    )
    def test_int_atoms_and_weights_are_exact(self, atoms, weights):
        mu = DiscreteMeasure(atoms, weights)
        assert mu.is_exact
        assert all(type(v) is F for v in mu.atoms + mu.weights)
        moments = measure_moments(mu, 3)
        assert moments == [4, 7, 13]
        assert all(type(s) is F for s in moments)

    def test_point_interval_atom_is_exact(self):
        # An isolating interval with lo == hi is its rational root; weights
        # are stored as given, a point enclosure included.
        atom = IsolatingInterval(F(1), F(1), RationalPoly([-1, 1]))
        weight = RationalInterval(F(1, 3), F(1, 3))
        mu = DiscreteMeasure((atom, F(2)), (F(1, 2), F(1, 3)))
        assert mu.is_exact and mu.atoms == (F(1), F(2))
        assert all(type(a) is F for a in mu.atoms)
        assert measure_moments(mu, 3) == [F(5, 6), F(7, 6), F(11, 6)]
        assert DiscreteMeasure((atom,), (weight,)).weights == (weight,)


nonneg = st.fractions(min_value=0, max_value=4, max_denominator=7)
signed = st.fractions(min_value=-4, max_value=4, max_denominator=7)
widths = st.fractions(min_value=F(1, 7), max_value=2, max_denominator=7)


@st.composite
def exact_measures(draw):
    """Distinct signed rational atoms with positive rational weights."""
    atoms = sorted(draw(st.sets(signed, min_size=1, max_size=5)))
    weights = [draw(st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7)) for _ in atoms]
    return DiscreteMeasure(tuple(atoms), tuple(weights))


@st.composite
def atom_intervals(draw):
    """Mixed-sign, point, bare rational, negative and positive atom enclosures."""
    a, b = sorted(draw(st.tuples(nonneg, nonneg)))
    kind = draw(st.sampled_from(["mixed", "point", "bare", "negative", "positive"]))
    if kind == "mixed":
        return RationalInterval(-a, b)
    if kind == "point":
        x = draw(st.sampled_from([-a, b]))
        return RationalInterval(x, x)
    if kind == "bare":
        return draw(st.sampled_from([-a, b]))
    if kind == "negative":
        return RationalInterval(-b, -a)
    return RationalInterval(a, b)


@st.composite
def weight_intervals(draw):
    lo = draw(nonneg)
    if draw(st.booleans()):
        return lo  # a bare rational, as exact weights are stored
    return RationalInterval(lo, lo + draw(nonneg))


def as_interval(value) -> RationalInterval:
    """The oracle's view of a stored value: a bare rational is a point interval."""
    return RationalInterval(value, value) if isinstance(value, F) else value


def match_the_oracle(atoms, weights, count) -> list[RationalInterval]:
    """Assert that _moment_sums equals the interval oracle for k < count; return the oracle."""
    atom_ivs = [as_interval(a) for a in atoms]
    weight_ivs = [as_interval(w) for w in weights]
    oracle = [interval_power_sum(atom_ivs, weight_ivs, k) for k in range(count)]
    sums = _moment_sums(atoms, weights, count)
    assert [RationalInterval(F(lo, den), F(hi, den)) for lo, hi, den in sums] == oracle
    return oracle


class TestMeasureMoments:
    @given(
        st.lists(st.tuples(atom_intervals(), weight_intervals()), min_size=1, max_size=4),
        st.integers(1, 8),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_moment_sums_match_the_interval_oracle(self, terms, count):
        match_the_oracle([atom for atom, _ in terms], [weight for _, weight in terms], count)

    @given(exact_measures(), st.integers(1, 10))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_exact_measures_match_the_oracle(self, mu, count):
        oracle = match_the_oracle(mu.atoms, mu.weights, count)
        assert all(iv.lo == iv.hi for iv in oracle)
        assert measure_moments(mu, count) == [iv.lo for iv in oracle]

    @given(
        st.lists(st.tuples(signed, nonneg, st.booleans()), min_size=1, max_size=5),
        st.integers(1, 10),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_point_weight_intervals_match_the_oracle(self, terms, count):
        # Every bound is a point, so _moment_sums takes its one-product branch.
        atoms = [x for x, _, _ in terms]
        weights = [RationalInterval(w, w) if boxed else w for _, w, boxed in terms]
        assert all(iv.lo == iv.hi for iv in match_the_oracle(atoms, weights, count))

    @given(
        st.lists(st.tuples(signed, st.none() | widths, nonneg), max_size=4),
        signed,
        widths,
        nonneg,
        st.integers(1, 10),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_mixed_exact_and_interval_atoms_match_the_oracle(self, terms, x, width, w, count):
        # The last atom is a proper interval, so _moment_sums takes its interval branch.
        atoms = [a if d is None else RationalInterval(a, a + d) for a, d, _ in terms]
        atoms.append(RationalInterval(x, x + width))
        match_the_oracle(atoms, [v for _, _, v in terms] + [w], count)

    def test_dirac_at_origin(self):
        assert measure_moments(DiscreteMeasure((F(0),), (F(1),)), 4) == [1, 0, 0, 0]

    def test_paper_example_a4(self):
        mu = DiscreteMeasure((F(-2), F(2)), (F(1, 4), F(3, 4)))
        assert measure_moments(mu, 5) == [1, 1, 4, 4, 16]

    def test_paper_example_a_quarter(self):
        mu = DiscreteMeasure((F(-1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        assert measure_moments(mu, 5) == [1, F(1, 4), F(1, 4), F(1, 16), F(1, 16)]

    def test_zero_measure(self):
        assert measure_moments(DiscreteMeasure((), ()), 3) == [0, 0, 0]

    def test_count_validated(self):
        with pytest.raises(ValueError):
            measure_moments(DiscreteMeasure((), ()), 0)

    def test_interval_measure_widths(self):
        rec = reconstruct([1, 0, 2, 0, 4], digits=30)
        values = measure_moments(rec, 6, digits=25)
        for k, expected in enumerate([1, 0, 2, 0, 4, 0]):
            assert isinstance(values[k], RationalInterval)
            assert values[k].hi - values[k].lo <= F(1, 10**25)
            assert holds(values[k], F(expected))


class TestReconstruct:
    def test_paper_example_a4(self):
        rec = reconstruct([1, 1, 4, 4, 16])
        assert rec.atoms == (F(-2), F(2))
        assert rec.weights == (F(1, 4), F(3, 4))

    def test_dirac_fixtures(self):
        assert reconstruct([1, 0, 0]).atoms == (F(0),)
        rec = reconstruct([1, 1, 1])
        assert rec.atoms == (F(1),) and rec.weights == (F(1),)

    def test_zero_measure(self):
        rec = reconstruct([0, 0, 0])
        assert rec.atoms == () and rec.weights == ()

    @pytest.mark.parametrize(
        "window",
        [
            [1, 1, 1, 1, 0, 0, 0],  # invalid (zero then positive)
            [1, 1, 1, 1, 0],  # degenerate but inconsistent tail
            [1, 0, 1],  # positive window
            [-1, 0, 0],  # negative determinant
        ],
    )
    def test_precondition_violations(self, window):
        for run in (reconstruct, lambda w: extend(w, 4)):
            with pytest.raises(PreconditionViolated) as refused:
                run(window)
            # The window's analysis is refused with the same message.
            with pytest.raises(PreconditionViolated, match=f"^{re.escape(str(refused.value))}$"):
                run(analyze(window))

    def test_an_analysis_reconstructs_and_extends_as_its_window(self):
        rng = random.Random(64)
        windows = [[0, 0, 0], [1, 1, 4, 4, 16], [1, 0, 2, 0, 4, 0, 8]]
        for _ in range(20):
            mu = random_exact_measure(rng)
            windows.append(measure_moments(mu, 2 * len(mu) + 3))
        for window in windows:
            analysis = analyze(window)
            assert reconstruct(analysis) == reconstruct(window)
            assert extend(analysis, 4) == extend(window, 4)

    def test_irrational_atoms_enclosed(self):
        rec = reconstruct([1, 0, 2, 0, 4], digits=40)
        assert len(rec) == 2
        neg, pos = rec.atoms
        assert isinstance(neg, IsolatingInterval) and isinstance(pos, IsolatingInterval)
        assert neg.hi - neg.lo <= F(1, 10**40) and pos.hi - pos.lo <= F(1, 10**40)
        assert neg.hi < 0 < pos.lo
        assert neg.lo**2 >= 2 >= neg.hi**2
        assert pos.lo**2 <= 2 <= pos.hi**2
        for weight in rec.weights:
            assert isinstance(weight, RationalInterval)
            assert weight.lo > 0
            assert holds(weight, F(1, 2))

    def test_mixed_exact_and_algebraic_atoms(self):
        rec = reconstruct([1, 0, 1, 0, 2, 0, 4], digits=30)
        assert len(rec) == 3
        assert isinstance(rec.atoms[0], IsolatingInterval)
        assert rec.atoms[1] == F(0)
        assert isinstance(rec.atoms[2], IsolatingInterval)
        expected = [F(1, 4), F(1, 2), F(1, 4)]
        for weight, target in zip(rec.weights, expected):
            assert isinstance(weight, RationalInterval)
            assert holds(weight, target)

    def test_atoms_closer_than_the_recursion_limit(self):
        # Isolating these atoms takes about 1100 bisections of one segment.
        near = F(1, 3)
        far = near + F(1, 2**1100)
        mu = DiscreteMeasure((near, far), (F(1), F(1)))
        rec = reconstruct(measure_moments(mu, 7))
        assert rec.atoms == (near, far)
        assert rec.weights == (F(1), F(1))

    def test_round_trip_exact_measures(self):
        rng = random.Random(60)
        for _ in range(80):
            mu = random_exact_measure(rng)
            n = len(mu)
            for extra in (1, 5):
                window = MomentWindow(measure_moments(mu, 2 * n + extra))
                rec = reconstruct(window)
                assert rec.atoms == mu.atoms
                assert rec.weights == mu.weights


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
positive_weights = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)


@st.composite
def hostile_exact_measures(draw):
    """Exact measures of up to 4 atoms that are 2**-200 apart, near 10**300 or near 10**-300."""
    base = draw(st.lists(small_rationals.filter(bool), min_size=1, max_size=3, unique=True))
    kind = draw(st.sampled_from(["close", "huge", "tiny"]))
    if kind == "close":
        a = draw(small_rationals)
        atoms = {a, a + F(1, 2**200)} | set(base[:2])
    elif kind == "huge":
        atoms = {b * 10**300 for b in base} | set(base[:1])
    else:
        atoms = {b / 10**300 for b in base}
    weights = draw(st.lists(positive_weights, min_size=len(atoms), max_size=len(atoms)))
    return DiscreteMeasure(tuple(sorted(atoms)), tuple(weights))


class TestMomentRoundTrip:
    @given(hostile_exact_measures())
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_reconstruct_returns_the_measure(self, mu):
        rec = reconstruct(measure_moments(mu, 2 * len(mu) + 3))
        assert rec.atoms == mu.atoms and rec.weights == mu.weights

    @given(hostile_exact_measures(), small_rationals)
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_shifted_atoms_reconstruct_shifted(self, mu, c):
        count = 2 * len(mu) + 3
        shifted = DiscreteMeasure(tuple(a + c for a in mu.atoms), mu.weights)
        rec = reconstruct(measure_moments(mu, count))
        rec_shifted = reconstruct(measure_moments(shifted, count))
        assert rec_shifted.atoms == tuple(a + c for a in rec.atoms)
        assert rec_shifted.weights == rec.weights


def encloses_root(iv: RationalInterval, a: F, b: F, m: int) -> bool:
    """Whether iv holds a + b*sqrt(m), tested without square roots."""
    lo, hi = (iv.lo - a) / b, (iv.hi - a) / b
    if b < 0:
        lo, hi = hi, lo
    return (lo <= 0 or lo * lo <= m) and hi >= 0 and hi * hi >= m


class TestWeights:
    def test_exact_weights_equal_the_vandermonde_solve(self):
        rng = random.Random(64)
        for _ in range(60):
            mu = random_exact_measure(rng, max_atoms=7)
            n = len(mu)
            window = measure_moments(mu, 2 * n + 1)
            rec = reconstruct(window)
            vandermonde = [[a**k for a in rec.atoms] for k in range(n)]
            assert list(rec.weights) == solve_exact(vandermonde, window[:n])
            assert rec.weights == mu.weights

    def test_interval_weights_enclose_one_half(self):
        for digits in (1, 5, 50, 200):
            rec = reconstruct([1, 0, 2, 0, 4], digits=digits)
            for weight in rec.weights:
                assert weight.lo > 0 and holds(weight, F(1, 2))
                assert weight.hi - weight.lo <= F(1, 10**digits)

    @pytest.mark.parametrize(
        "n0, targets",
        [
            (2, [F(1, 2), F(1, 2)]),
            (3, [F(5, 18), F(4, 9), F(5, 18)]),
            # (18 -+ sqrt(30)) / 72, outer atoms first
            (4, [(F(1, 4), F(-1, 72)), (F(1, 4), F(1, 72)), (F(1, 4), F(1, 72)), (F(1, 4), F(-1, 72))]),
        ],
    )
    def test_interval_weights_enclose_gauss_legendre(self, n0, targets):
        rec = reconstruct(hilbert_window(n0), digits=40)
        assert not rec.is_exact and len(rec) == n0
        for weight, target in zip(rec.weights, targets):
            assert weight.lo > 0
            if isinstance(target, F):
                assert holds(weight, target)
            else:
                assert encloses_root(weight, target[0], target[1], 30)

    def test_nudged_weight_fails_the_residual_certificate(self):
        digits = 30
        tol = F(1, 10**digits)
        for window in ([1, 0, 2, 0, 4], hilbert_window(3), hilbert_window(4)):
            rec = reconstruct(window, digits=digits)
            n0 = len(rec)
            atom_ivs = [
                RationalInterval(a, a) if isinstance(a, F) else RationalInterval(a.lo, a.hi)
                for a in rec.atoms
            ]
            weights = list(rec.weights)
            assert _residuals_certified(atom_ivs, weights, window, 2 * n0, tol)
            shift = F(1, 10 ** (digits - 1))
            for j in range(n0):
                for sign in (1, -1):
                    nudged = list(weights)
                    nudged[j] = RationalInterval(weights[j].lo + sign * shift, weights[j].hi + sign * shift)
                    assert not _residuals_certified(atom_ivs, nudged, window, 2 * n0, tol)

    def test_nudged_exact_measure_fails_the_exact_residual_check(self):
        # reconstruct checks an all-rational measure with point intervals and tol 0.
        window = [1, 1, 4, 4, 16]
        rec = reconstruct(window)
        atoms = [RationalInterval(a, a) for a in rec.atoms]
        weights = [RationalInterval(w, w) for w in rec.weights]
        assert _residuals_certified(atoms, weights, window, 4, F(0))
        for j in range(2):
            nudged = list(atoms)
            nudged[j] = RationalInterval(rec.atoms[j] + F(1, 10**40), rec.atoms[j] + F(1, 10**40))
            assert not _residuals_certified(nudged, weights, window, 4, F(0))

    @pytest.mark.parametrize("digits", [0, -3])
    def test_digits_below_one_rejected(self, digits):
        with pytest.raises(ValueError, match="digits"):
            reconstruct([1, 0, 2, 0, 4], digits=digits)
        with pytest.raises(ValueError, match="digits"):
            reconstruct([1, 1, 4, 4, 16], digits=digits)
        mu = DiscreteMeasure((F(-2), F(2)), (F(1, 4), F(3, 4)))
        with pytest.raises(ValueError, match="digits"):
            measure_moments(mu, 3, digits=digits)


class TestExtend:
    def test_examples(self):
        assert extend([1, 3, 9], 2) == [27, 81]
        assert extend([1, 1, 4, 4, 16], 2) == [16, 64]
        assert extend([1, 0, 0], 3) == [0, 0, 0]

    def test_zero_measure_extension(self):
        assert extend([0, 0], 4) == [0, 0, 0, 0]

    def test_zero_count(self):
        assert extend([1, 3, 9], 0) == []
        with pytest.raises(ValueError):
            extend([1, 3, 9], -1)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            extend([1, 1, 1, 1, 0], 2)
        with pytest.raises(PreconditionViolated):
            extend([1, 0, 1], 2)

    def test_extension_coherence(self):
        rng = random.Random(61)
        for _ in range(25):
            mu = random_exact_measure(rng, max_atoms=4)
            n = len(mu)
            window = MomentWindow(measure_moments(mu, 2 * n + 2))
            for tail in range(1, 11):
                grown = MomentWindow(list(window) + extend(window, tail))
                assert classify(grown) == Degenerate(n, True)

    def test_extension_agrees_with_measure_moments(self):
        rng = random.Random(62)
        for _ in range(40):
            mu = random_exact_measure(rng, max_atoms=4)
            n = len(mu)
            window = MomentWindow(measure_moments(mu, 2 * n + 1))
            tail = extend(window, 6)
            full = measure_moments(reconstruct(window), len(window) + 6)
            assert tail == full[len(window) :]

    def test_uniqueness_probe(self):
        # Adding eps to s_{2 n0} turns D_{n0} into eps * D_{n0 - 1} exactly and
        # drives the classification away from Degenerate(n0).
        rng = random.Random(63)
        for _ in range(40):
            mu = random_exact_measure(rng, max_atoms=4)
            n0 = len(mu)
            window = MomentWindow(measure_moments(mu, 2 * n0 + 3))
            dets = det_sequence(window)
            eps = F(0)
            while eps == 0:
                eps = F(rng.randint(-9, 9), rng.randint(1, 9))
            bumped = list(window)
            bumped[2 * n0] += eps
            bumped_dets = det_sequence(MomentWindow(bumped))
            d_prev = dets[n0 - 1] if n0 >= 1 else F(1)
            assert bumped_dets[n0] == eps * d_prev
            cls = classify(MomentWindow(bumped))
            assert not (isinstance(cls, Degenerate) and cls.n0 == n0)
