"""Tests for measure moments, measure recovery, and the unique extension."""
from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmp.errors import PrecisionUnattainable, PreconditionViolated
from hankelmp.exact import MAX_DECIMAL_EXPONENT, IsolatingInterval, RationalPoly
from hankelmp.hankel import Degenerate, MomentWindow, analyze, classify, det_sequence
from hankelmp.recovery import (
    DiscreteMeasure,
    RationalInterval,
    _enclose,
    _moment_sums,
    _residuals_certified,
    extend,
    measure_moments,
    reconstruct,
)
from hankelmp.identities import verify_roundtrip
from oracles import (
    fraction_sturm_isolate,
    hilbert_window,
    interval_horner,
    interval_mul,
    interval_power,
    interval_power_sum,
    orthogonal_poly,
    solve_exact,
)
from strategies import rationals


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


nonneg = rationals(0, 4, 7)
signed = rationals(-4, 4, 7)
widths = rationals(F(1, 7), 2, 7)


@st.composite
def exact_measures(draw):
    """Distinct signed rational atoms with positive rational weights."""
    atoms = sorted(draw(st.sets(signed, min_size=1, max_size=5)))
    weights = [draw(rationals(F(1, 7), 4, 7)) for _ in atoms]
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


def oracle_sums(atoms, weights, count) -> list[RationalInterval]:
    """The exact interval enclosures of sum_j w_j * x_j**k for k < count."""
    atom_ivs, weight_ivs = [as_interval(a) for a in atoms], [as_interval(w) for w in weights]
    return [interval_power_sum(atom_ivs, weight_ivs, k) for k in range(count)]


def match_the_oracle(atoms, weights, count) -> list[RationalInterval]:
    """Assert that _moment_sums equals the interval oracle for k < count; return the oracle.

    Every bound must be a point, so that the sums are exact.
    """
    oracle = oracle_sums(atoms, weights, count)
    sums = _moment_sums(atoms, weights, count)
    assert [RationalInterval(F(lo, den), F(hi, den)) for lo, hi, den in sums] == oracle
    return oracle


def match_the_interval_oracle(atoms, weights, count, bits) -> None:
    """Assert that the grid sums of _moment_sums contain the interval oracle and
    lie within a few 2**-bits of the unrounded sums of the same interval steps."""
    if all(iv.lo == iv.hi for iv in map(as_interval, atoms + weights)):
        match_the_oracle(atoms, weights, count)
        return
    m = math.ceil(max(max(-a.lo, a.hi) for a in map(as_interval, atoms))) + 1
    wmax = math.ceil(max(as_interval(w).hi for w in weights)) + 1
    sums = list(_moment_sums(atoms, weights, count, bits))
    powers = [RationalInterval(F(1), F(1))] * len(atoms)
    for k, ((lo, hi, den), iv) in enumerate(zip(sums, oracle_sums(atoms, weights, count))):
        assert F(lo, den) <= iv.lo and iv.hi <= F(hi, den)
        # The same steps without rounding: w_j times the k-fold product of x_j.
        terms = [interval_mul(as_interval(w), p) for w, p in zip(weights, powers)]
        lo_ref, hi_ref = sum(t.lo for t in terms), sum(t.hi for t in terms)
        powers = [interval_mul(p, as_interval(x)) for p, x in zip(powers, atoms)]
        # Each of the k power roundings and the rounding of the bounds widens a
        # term by at most 2**-bits times wmax * m**k, so the excess is that sum.
        excess = F(3 * (k + 1) * len(atoms) * wmax * m**k, 1 << bits)
        assert 0 <= lo_ref - F(lo, den) <= excess and 0 <= F(hi, den) - hi_ref <= excess


@st.composite
def mixed_terms(draw):
    """Up to 4 bare or interval atoms, then one proper interval, all with bare weights."""
    head = draw(st.lists(st.tuples(signed, st.none() | widths, nonneg), max_size=4))
    x, width, w = draw(signed), draw(widths), draw(nonneg)
    terms = [(a if d is None else RationalInterval(a, a + d), v) for a, d, v in head]
    return terms + [(RationalInterval(x, x + width), w)]


class TestMeasureMoments:
    @given(
        st.lists(st.tuples(atom_intervals(), weight_intervals()), min_size=1, max_size=4),
        st.integers(1, 8),
        st.integers(1, 64),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_moment_sums_match_the_interval_oracle(self, terms, count, bits):
        match_the_interval_oracle(
            [atom for atom, _ in terms], [weight for _, weight in terms], count, bits
        )

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

    @given(mixed_terms(), st.integers(1, 10), st.integers(1, 64))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_mixed_exact_and_interval_atoms_match_the_oracle(self, terms, count, bits):
        # The last atom is a proper interval, so _moment_sums takes its grid branch.
        match_the_interval_oracle([a for a, _ in terms], [w for _, w in terms], count, bits)

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

    @pytest.mark.parametrize("count", [2000, 3000])
    def test_large_powers_refine_past_pad_160(self, count):
        # s_k = 2**(k/3) reaches 10**200 at k = 1999, so the atom's width must
        # fall past 10**-(50 + 200), beyond the pad of 160 that suffices for
        # reconstruct.
        cbrt = IsolatingInterval(F(5, 4), F(2), RationalPoly([-2, 0, 0, 1]))
        moments = measure_moments(DiscreteMeasure((cbrt,), (F(1),)), count, 50)
        assert len(moments) == count
        for k, m in enumerate(moments):
            assert m.hi - m.lo <= F(1, 10**50)
            assert 0 < m.lo and m.lo**3 <= 2**k <= m.hi**3

    def test_precision_failures_name_their_cause(self, monkeypatch):
        import hankelmp.recovery as recovery

        cbrt = IsolatingInterval(F(5, 4), F(2), RationalPoly([-2, 0, 0, 1]))
        wide = DiscreteMeasure((cbrt,), (RationalInterval(F(1, 2), F(1, 2) + F(1, 10**40)),))
        with pytest.raises(PrecisionUnattainable, match="stored weight enclosures are too wide"):
            measure_moments(wide, 3, 50)
        # With the rounds cut to the first, pad 10, the atom is the limit.
        real = recovery._refinements
        monkeypatch.setattr(
            recovery, "_refinements", lambda *args: itertools.islice(real(*args), 1)
        )
        with pytest.raises(PrecisionUnattainable, match="refinement rounds ran out"):
            measure_moments(DiscreteMeasure((cbrt,), (F(1),)), 100, 50)

    def test_interval_measure_widths(self):
        rec = reconstruct([1, 0, 2, 0, 4], digits=30)
        values = measure_moments(rec, 6, digits=25)
        for k, expected in enumerate([1, 0, 2, 0, 4, 0]):
            assert isinstance(values[k], RationalInterval)
            assert values[k].hi - values[k].lo <= F(1, 10**25)
            assert holds(values[k], F(expected))

    def test_interval_moment_endpoints_stay_on_the_grid(self):
        # Atoms sqrt(1/3) and 2**(1/3) < 2: each endpoint of an enclosure of s_k
        # has O(P + k) bits, with P the grid bits of the last refinement round;
        # exact interval sums would grow by one atom endpoint's size per power.
        sqrt = IsolatingInterval(F(0), F(1), RationalPoly([F(-1, 3), 0, 1]))
        cbrt = IsolatingInterval(F(5, 4), F(2), RationalPoly([-2, 0, 0, 1]))
        mu = DiscreteMeasure((sqrt, cbrt), (F(1), F(2, 3)))
        digits, count = 20, 200
        bits = (10 ** (digits + 160)).bit_length() + 8
        moments = measure_moments(mu, count, digits)
        assert len(moments) == count
        for k, m in enumerate(moments):
            assert m.hi - m.lo <= F(1, 10**digits)
            size = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in (m.lo, m.hi))
            assert size <= 2 * bits + k + 2


# atom_intervals() plus intervals with an endpoint at 0 and intervals that hold 0 inside.
grid_atoms = (
    atom_intervals()
    | st.builds(lambda b: RationalInterval(F(0), b), nonneg)
    | st.builds(lambda a: RationalInterval(-a, F(0)), nonneg)
    | st.builds(lambda a, b: RationalInterval(-a - F(1, 7), b + F(1, 7)), nonneg, nonneg)
)
grid_terms = st.lists(st.tuples(grid_atoms, weight_intervals()), min_size=1, max_size=4)


def exact_certified(atoms, weights, moments, count, tol) -> bool:
    """The residual certificate read from the exact enclosures of ``oracle_sums``."""
    return all(
        s - tol <= iv.lo and iv.hi <= s + tol
        for iv, s in zip(oracle_sums(atoms, weights, count), moments)
    )


class TestGridMomentSums:
    @given(grid_terms, st.integers(1, 10), st.integers(1, 64))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_grid_sums_contain_the_oracle_in_bounded_integers(self, terms, count, bits):
        atoms, weights = [a for a, _ in terms], [w for _, w in terms]
        sums = list(_moment_sums(atoms, weights, count, bits))
        oracle = oracle_sums(atoms, weights, count)
        assert len(sums) == count
        if all(iv.lo == iv.hi for iv in map(as_interval, atoms + weights)):
            # Every bound is a point: the one-product branch, exact and off the grid.
            assert [RationalInterval(F(lo, den), F(hi, den)) for lo, hi, den in sums] == oracle
            return
        # Grid atoms lie within m of 0 and grid weights below wmax, and each
        # rounded power of an atom is at most 2 * m**k, so the numerators over
        # 2**(2 * bits) grow by one bit length of m per power, not by bits.
        m = math.ceil(max(max(-a.lo, a.hi) for a in map(as_interval, atoms))) + 1
        wmax = math.ceil(max(as_interval(w).hi for w in weights)) + 1
        for k, ((lo, hi, den), iv) in enumerate(zip(sums, oracle)):
            assert den == 1 << 2 * bits
            assert F(lo, den) <= iv.lo and iv.hi <= F(hi, den)
            size = 2 * bits + k * m.bit_length() + (len(terms) * wmax).bit_length() + 2
            assert max(abs(lo), abs(hi)).bit_length() <= size

    @given(
        grid_terms,
        st.integers(1, 8),
        st.integers(1, 40),
        st.lists(rationals(-1, 1, 16), min_size=8, max_size=8),
        rationals(0, 2, 16),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_grid_certificate_never_passes_where_the_exact_one_fails(
        self, terms, count, bits, offsets, slack
    ):
        atoms, weights = [a for a, _ in terms], [w for _, w in terms]
        exact = oracle_sums(atoms, weights, count)
        half = max((iv.hi - iv.lo) / 2 for iv in exact)
        moments = [(iv.lo + iv.hi) / 2 + o * half for iv, o in zip(exact, offsets)]
        tol = half * slack
        if _residuals_certified(atoms, weights, moments, count, tol, bits):
            assert exact_certified(atoms, weights, moments, count, tol)
        # The least tol at which the grid certifies: both certificates pass there.
        grid_tol = max(
            max(s - F(lo, den), F(hi, den) - s)
            for (lo, hi, den), s in zip(_moment_sums(atoms, weights, count, bits), moments)
        )
        assert _residuals_certified(atoms, weights, moments, count, grid_tol, bits)
        assert exact_certified(atoms, weights, moments, count, grid_tol)

    @pytest.mark.parametrize("bits", [None, 64])
    def test_short_moment_list_is_refused(self, bits):
        rec = reconstruct([1, 0, 2, 0, 4], digits=10)
        with pytest.raises(ValueError, match="^the residuals up to s_3 need 4 moments, got 3$"):
            _residuals_certified(rec.atoms, rec.weights, [1, 0, 2], 4, F(1, 10**10), bits)


class TestReconstruct:
    def test_paper_example_a4(self):
        rec = reconstruct([1, 1, 4, 4, 16])
        assert rec.atoms == (F(-2), F(2))
        assert rec.weights == (F(1, 4), F(3, 4))

    def test_dirac_fixtures(self):
        assert reconstruct([1, 0, 0]).atoms == (F(0),)
        rec = reconstruct([1, 1, 1])
        assert rec.atoms == (F(1),) and rec.weights == (F(1),)

    @pytest.mark.parametrize("n0, rounds", [(20, 2), (30, 3)])
    def test_pad_rounds_on_gauss_legendre_windows(self, monkeypatch, n0, rounds):
        import hankelmp.recovery as recovery

        real, taken = recovery._refinements, []

        def counted(*args):
            for round_ in real(*args):
                taken.append(round_)
                yield round_

        monkeypatch.setattr(recovery, "_refinements", counted)
        rec = reconstruct(hilbert_window(n0), digits=50)
        assert len(rec) == n0 and not rec.is_exact
        assert len(taken) <= rounds

    @given(st.integers(2, 4), rationals(-9, 9, 9), st.integers(-300, 300), st.integers(50, 1000))
    @settings(derandomize=True, max_examples=20, deadline=None)
    def test_mapped_gauss_legendre_windows_certify(self, n0, c, j, digits):
        # x -> c + 10**j x maps the Gauss-Legendre atoms on [0, 1] to huge or
        # close irrational atoms; the refinement rounds must reach them.
        s, scale = hilbert_window(n0), F(10) ** j
        window = [
            sum(math.comb(k, i) * c ** (k - i) * scale**i * s[i] for i in range(k + 1))
            for k in range(2 * n0 + 1)
        ]
        rec = reconstruct(window, digits=digits)
        assert len(rec) == n0 and not rec.is_exact
        tol = F(1, 10**digits)
        atoms = [as_interval(a) for a in rec.atoms]
        weights = [as_interval(w) for w in rec.weights]
        for k, moment in enumerate(window[: 2 * n0]):
            enclosure = interval_power_sum(atoms, weights, k)
            assert moment - tol <= enclosure.lo <= moment <= enclosure.hi <= moment + tol, k

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

    def test_inexact_atoms_have_power_of_two_denominators(self):
        # Isolation bisects from [-2**t, 2**t], so no atom interval carries a
        # factor of the kernel's primitive leading coefficient.
        windows = [[1, 0, 2, 0, 4], [1, 0, 1, 0, 2, 0, 4], hilbert_window(8)]
        windows.append(["1", "-2", "13/3", "-10", "121/5", "-182/3", "1093/7", "-410", "4018387/3675"])
        for window in windows:
            rec = reconstruct(window, digits=30)
            inexact = [a for a in rec.atoms if isinstance(a, IsolatingInterval)]
            assert inexact
            for atom in inexact:
                assert all(x.denominator & (x.denominator - 1) == 0 for x in (atom.lo, atom.hi))

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


small_rationals = rationals(-9, 9, 9)
positive_weights = rationals(F(1, 9), 9, 9)


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


def power_sums(atoms, weights, count: int) -> list[F]:
    """s_k = sum_j w_j * x_j**k for k < count, as plain Fraction sums."""
    return [sum((w * x**k for x, w in zip(atoms, weights)), F(0)) for k in range(count)]


def reconstruct_reference(window) -> list[F]:
    """The kernel's roots, isolated over ``Fraction``, for a window whose atoms are rational."""
    n0 = classify(window).n0
    roots = fraction_sturm_isolate(RationalPoly(orthogonal_poly(window, n0)))
    assert all(iv.is_exact for iv in roots)
    return [iv.lo for iv in roots]


def bench_shaped_measure(rng: random.Random, n0: int) -> DiscreteMeasure:
    """n0 distinct atoms in [-4, 4], the k-th with denominator k % 12 + 1, and weights in (0, 5]."""
    atoms: dict[F, F] = {}
    for k in range(n0):
        q = k % 12 + 1
        while True:
            x = F(rng.randint(-4 * q, 4 * q), q)
            if x.denominator == q and x not in atoms:
                break
        atoms[x] = F(rng.randint(1, 5 * q), q)
    ordered = sorted(atoms)
    return DiscreteMeasure(tuple(ordered), tuple(atoms[x] for x in ordered))


def count_calls(monkeypatch, module, name: str) -> list:
    """Count the calls of ``module.name``, one list entry per call."""
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_eigenvalues(monkeypatch) -> list[float]:
    """Record each eigenvalue that the hints take from ``hankel._jacobi_eigenvalues``."""
    import hankelmp.hankel as hankel

    real, taken = hankel._jacobi_eigenvalues, []

    def counted(diag, off):
        for x in real(diag, off):
            taken.append(x)
            yield x

    monkeypatch.setattr(hankel, "_jacobi_eigenvalues", counted)
    return taken


# Windows whose eigenvalue hints cannot give every atom, and the windows of
# n0 = 0 and 1, each with the eigenvalues that its hints take.
FALLBACK_WINDOWS = {
    # The first eigenvalue, 5/10000019, has no convergent with a denominator below 2**16.
    "denominator-past-2**16": (
        power_sums([F(1, 1009), F(2, 100003), F(5, 10000019)], [1, 2, 3], 7), 1
    ),
    # alpha_0 = (10**400 + 2) / 2 overflows a float.
    "atom-near-1e400": (power_sums([F(1), F(10**400 + 1)], [1, 1], 5), 0),
    # Both eigenvalues propose 10**6, so the candidates collide.
    "colliding-hints": (power_sums([F(10**6), 10**6 + F(1, 2**40)], [1, 1], 5), 2),
    # The kernel x * (x**2 - 2): the first hint to deflate is irrational.
    "mixed-kernel": ([3, 0, 4, 0, 8, 0, 16], 1),
    "n0=0": ([0, 0, 0], 0),
    "n0=1": ([2, 6, 18], 1),
}


class TestEigenvalueHints:
    """A window whose atoms are all rational with small denominators gets them,
    and its kernel, from float Jacobi eigenvalues checked exactly by
    orthogonality; Sturm isolation runs only when the hints fail."""

    @given(
        st.lists(small_rationals, min_size=1, max_size=6, unique=True).flatmap(
            lambda xs: st.tuples(
                st.just(sorted(xs)), st.lists(positive_weights, min_size=len(xs), max_size=len(xs))
            )
        ),
        st.integers(1, 3),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_rational_measures_match_the_fraction_reference(self, measure, extra):
        from hankelmp.hankel import _monic_from_recurrence

        atoms, weights = measure
        n = len(atoms)
        window = power_sums(atoms, weights, 2 * n + extra)
        analysis = analyze(window)
        rec = reconstruct(analysis)
        determinantal = orthogonal_poly(window, n)
        reference = fraction_sturm_isolate(RationalPoly(determinantal))
        assert all(iv.is_exact for iv in reference)
        assert rec.atoms == tuple(iv.lo for iv in reference) == tuple(atoms)
        assert rec.weights == tuple(weights)
        # The kernel is the product of the hinted atoms' linear factors: the
        # same reduced record as the builder's last row, and the monic
        # determinantal p_n.
        assert analysis._hint[0] == tuple(atoms)
        product = analysis.kernel
        row = RationalPoly._from_row(*_monic_from_recurrence(*analysis._recurrence)[-1])
        fields = ("numerators", "denominator", "primitive")
        assert [getattr(product, f) for f in fields] == [getattr(row, f) for f in fields]
        assert product.coeffs == tuple(c / determinantal[-1] for c in determinantal)

    @pytest.mark.parametrize("name", sorted(FALLBACK_WINDOWS))
    def test_fallback_windows_give_the_sturm_result(self, monkeypatch, name):
        import hankelmp.hankel as hankel
        import hankelmp.recovery as recovery

        window, eigenvalues = FALLBACK_WINDOWS[name]
        analysis = analyze(window)
        taken = count_eigenvalues(monkeypatch)
        hinted = analysis._hint
        assert len(taken) == eigenvalues
        # n0 = 0 and n0 = 1 are found from the hints; the others fall back once.
        assert (hinted is not None) == (name in ("n0=0", "n0=1"))
        sturm = count_calls(monkeypatch, recovery, "sturm_isolate")
        rec = reconstruct(window, digits=20)
        assert len(sturm) == (0 if hinted is not None else 1)
        assert reconstruct(analysis, digits=20) == rec
        monkeypatch.setattr(hankel, "_hinted_atoms", lambda recurrence, moments: None)
        assert reconstruct(window, digits=20) == rec
        if name == "mixed-kernel":
            assert rec.atoms[1] == 0 and not rec.is_exact
        else:
            assert rec.is_exact and rec.atoms == tuple(reconstruct_reference(window))

    @pytest.mark.parametrize(
        "mutation",
        [
            "off-by-one-convergent",  # the last hint proposes r + 1 over its q
            "off-by-1/L",  # every hint moves one grid step 1/L, L = 6, to another small rational
            "first-repeated",  # the first hint, n0 times, so the candidates collide
            "one-short",  # the last eigenvalue is never yielded
        ],
    )
    def test_wrong_hints_fall_back_to_the_right_measure(self, monkeypatch, mutation):
        import hankelmp.hankel as hankel
        import hankelmp.recovery as recovery

        atoms, weights = (F(-1, 2), F(1, 3), F(2)), (F(1), F(2), F(3))
        window = power_sums(atoms, weights, 9)
        lead = analyze(window).kernel.primitive[-1]
        assert lead == 6
        real_eigenvalues, real_convergent = hankel._jacobi_eigenvalues, hankel._convergent

        def eigenvalues(diag, off):
            values = list(real_eigenvalues(diag, off))
            if mutation == "off-by-1/L":
                return [x + 1 / lead for x in values]
            if mutation == "first-repeated":
                return values[:1] * len(values)
            if mutation == "one-short":
                return values[:-1]
            return values

        proposed = []

        def convergent(x, tol):
            r, q = real_convergent(x, tol)
            proposed.append((r, q))
            return (r + 1, q) if mutation == "off-by-one-convergent" and len(proposed) == 3 else (r, q)

        monkeypatch.setattr(hankel, "_jacobi_eigenvalues", eigenvalues)
        monkeypatch.setattr(hankel, "_convergent", convergent)
        sturm = count_calls(monkeypatch, recovery, "sturm_isolate")
        rec = reconstruct(window)
        assert len(sturm) == 1
        assert rec.atoms == atoms and rec.weights == weights

    @pytest.mark.parametrize("den, hinted", [(2**16 - 1, True), (2**16, False), (2**16 + 1, False)])
    def test_denominators_from_2_to_the_16_fall_back(self, monkeypatch, den, hinted):
        import hankelmp.recovery as recovery

        atoms, weights = (F(-1, 2), F(1, den), F(2)), (F(1), F(2), F(3))
        sturm = count_calls(monkeypatch, recovery, "sturm_isolate")
        analysis = analyze(power_sums(atoms, weights, 9))
        assert (analysis._hint[0] == atoms) if hinted else analysis._hint is None
        rec = reconstruct(analysis)
        assert len(sturm) == (0 if hinted else 1)
        assert rec.atoms == atoms and rec.weights == weights

    def test_bench_shaped_rational_windows_need_no_sturm_isolation(self, monkeypatch):
        # Standing rule: rational atoms with denominators up to 12, at n0 from
        # 4 to 16, are found from the hints, one eigenvalue each.
        import hankelmp.recovery as recovery

        sturm = count_calls(monkeypatch, recovery, "sturm_isolate")
        taken = count_eigenvalues(monkeypatch)
        rng = random.Random(27)
        for n0 in (4, 8, 12, 16):
            for _ in range(3):
                mu = bench_shaped_measure(rng, n0)
                analysis = analyze(measure_moments(mu, 2 * n0 + 3))
                taken.clear()
                assert analysis._hint[0] == mu.atoms and len(taken) == n0
                rec = reconstruct(analysis)
                assert rec.atoms == mu.atoms and rec.weights == mu.weights
        assert sturm == []

    def test_cli_reconstruct_and_extend_build_no_polynomial(self, monkeypatch, tmp_path, capsys):
        # Standing rule: on bench-shaped windows, CLI reconstruct and extend
        # take the kernel from the hinted atoms, so no row of p_0..p_n0 is
        # built and no Sturm isolation runs.
        import hankelmp.hankel as hankel
        import hankelmp.recovery as recovery
        from hankelmp.cli import run

        builds = count_calls(monkeypatch, hankel, "_monic_from_recurrence")
        sturm = count_calls(monkeypatch, recovery, "sturm_isolate")
        rng = random.Random(31)
        path = tmp_path / "window.json"
        for n0 in (4, 8, 12, 16):
            mu = bench_shaped_measure(rng, n0)
            window = measure_moments(mu, 2 * n0 + 3)
            path.write_text(json.dumps([str(s) for s in window]), encoding="utf-8")
            assert run(["reconstruct", str(path)]) == 0
            atoms = json.loads(capsys.readouterr().out)["atoms"]
            assert atoms == [{"exact": str(a)} for a in mu.atoms]
            assert run(["extend", str(path), "--count", "4"]) == 0
            extension = json.loads(capsys.readouterr().out)
            assert extension == {"extension": [str(s) for s in extend(window, 4)]}
        assert builds == [] and sturm == []

    def test_roundtrip_trials_need_no_sturm_isolation(self, monkeypatch):
        import hankelmp.recovery as recovery

        sturm = count_calls(monkeypatch, recovery, "sturm_isolate")
        assert verify_roundtrip(trials=30, seed=4).passed
        assert verify_roundtrip(trials=10, seed=5, max_n=12).passed
        assert sturm == []

    @pytest.mark.parametrize("n0", [2, 4, 6, 8, 20])
    def test_gauss_legendre_windows_isolate_once(self, monkeypatch, n0):
        # An irrational kernel gives up at its first eigenvalue, then runs
        # one Sturm isolation per reconstruct.
        import hankelmp.recovery as recovery

        analysis = analyze(hilbert_window(n0))
        taken = count_eigenvalues(monkeypatch)
        assert analysis._hint is None
        assert len(taken) == 1
        sturm = count_calls(monkeypatch, recovery, "sturm_isolate")
        reconstruct(hilbert_window(n0), digits=20)
        reconstruct(analysis, digits=20)
        assert len(sturm) == 2

    def test_a_record_without_its_recurrence_is_refused(self):
        # The recurrence is a record's one source of its polynomials, so a
        # WindowAnalysis made without it holds no kernel to reconstruct from.
        from hankelmp.hankel import WindowAnalysis

        analysis = analyze([1, 1, 4, 4, 16])
        bare = WindowAnalysis(analysis.window, analysis.classification, analysis.determinants)
        assert bare == analysis and repr(bare) == repr(analysis) and hash(bare) == hash(analysis)
        assert bare.kernel is None and bare.orthogonal_polys is None
        for name, call in (("reconstruct", reconstruct), ("extend", lambda w: extend(w, 3))):
            with pytest.raises(PreconditionViolated, match=f"^{name} needs a consistent degenerate"):
                call(bare)


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

    @given(
        st.lists(st.integers(-60, 60), min_size=1, max_size=7),
        st.integers(1, 12),
        st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
        st.sampled_from(["straddle", "zero-lo", "zero-hi", "positive", "negative"]),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_enclose_matches_four_product_horner(self, cs, den, ends, kind):
        u, v = ends
        a, b = {
            "straddle": (-u - 1, v + 1),
            "zero-lo": (0, v),
            "zero-hi": (-u, 0),
            "positive": (u + 1, v + 1),
            "negative": (-v - 1, -u - 1),
        }[kind]
        lo, hi = _enclose(cs, a, b, den)
        oracle = interval_horner(cs, RationalInterval(F(a, den), F(b, den)))
        scale = den ** (len(cs) - 1)
        assert (F(lo, scale), F(hi, scale)) == (oracle.lo, oracle.hi)

    def test_nudged_weight_fails_the_residual_certificate(self):
        digits = 30
        tol = F(1, 10**digits)
        # The weight grid of reconstruct's first pad round, pad 10, on which
        # these windows certify.
        bits = (10 ** (digits + 10)).bit_length() + 8
        for window in ([1, 0, 2, 0, 4], hilbert_window(3), hilbert_window(4)):
            rec = reconstruct(window, digits=digits)
            n0 = len(rec)
            atom_ivs = [
                RationalInterval(a, a) if isinstance(a, F) else RationalInterval(a.lo, a.hi)
                for a in rec.atoms
            ]
            weights = list(rec.weights)
            assert _residuals_certified(atom_ivs, weights, window, 2 * n0, tol, bits)
            shift = F(1, 10 ** (digits - 1))
            for j in range(n0):
                for sign in (1, -1):
                    nudged = list(weights)
                    nudged[j] = RationalInterval(weights[j].lo + sign * shift, weights[j].hi + sign * shift)
                    assert not _residuals_certified(atom_ivs, nudged, window, 2 * n0, tol, bits)

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

    def test_digits_above_the_decimal_exponent_bound_rejected(self):
        # 10**digits is built in full, so an unbounded digit count is an unbounded
        # allocation; the check runs before any power of ten, so it returns at once.
        window = [1, 0, F(1, 3), 0, F(1, 9)]
        with pytest.raises(ValueError, match="digits must be an integer in 1..4300"):
            reconstruct(window, digits=MAX_DECIMAL_EXPONENT + 1)
        rec = reconstruct(window, digits=MAX_DECIMAL_EXPONENT)
        assert not rec.is_exact
        with pytest.raises(ValueError, match="digits must be an integer in 1..4300"):
            measure_moments(rec, 5, digits=10**7)
        with pytest.raises(ValueError, match="digits must be an integer in 1..4300"):
            measure_moments(rec, 5, digits=MAX_DECIMAL_EXPONENT + 1)
        moments = measure_moments(rec, 5, digits=MAX_DECIMAL_EXPONENT)
        assert all(m.lo <= s <= m.hi for m, s in zip(moments, window))

    def test_digits_and_counts_that_are_not_integers_rejected(self):
        # A float passes a range check, so each check also asks for an int, and
        # fails before Fraction, a power of ten or bit_length sees the float.
        from hankelmp.exact import refine_root

        window = [2, 0, 4, 0, 8]
        mu = reconstruct(window, 10)
        assert not mu.is_exact
        for call, message in [
            (lambda: reconstruct(window, digits=2.5), "digits must be an integer in 1..4300"),
            (lambda: reconstruct(window, digits=4300.0), "digits must be an integer in 1..4300"),
            (lambda: measure_moments(mu, 3, 2.5), "digits must be an integer in 1..4300"),
            (lambda: refine_root(mu.atoms[0], 2.5), "digits must be a positive integer"),
            (lambda: measure_moments(mu, 2.0), "count must be an integer of at least 1"),
            (lambda: extend(window, 2.5), "count must be a nonnegative integer"),
        ]:
            with pytest.raises(ValueError, match=message):
                call()


class TestExtend:
    def test_examples(self):
        assert extend([1, 3, 9], 2) == [27, 81]
        assert extend([1, 1, 4, 4, 16], 2) == [16, 64]
        assert extend([1, 0, 0], 3) == [0, 0, 0]

    def test_zero_measure_extension(self):
        assert extend([0, 0], 4) == [0, 0, 0, 0]

    @pytest.mark.parametrize("n0", [0, 20])
    def test_matches_the_plain_fraction_recurrence(self, n0):
        # Atoms (2j - 19)/7 with weights (j + 1)/11; n0 = 0 is the zero window.
        mu = DiscreteMeasure(
            tuple(F(2 * j - 19, 7) for j in range(n0)), tuple(F(j + 1, 11) for j in range(n0))
        )
        window = measure_moments(mu, 2 * n0 + 3)
        # s_m = -sum_j c_j s_{m - n0 + j} over the monic kernel's Fraction coefficients.
        cs = analyze(window).kernel.coeffs[:-1]
        values = list(window)
        for _ in range(30):
            values.append(-sum((c * v for c, v in zip(cs, values[len(values) - n0 :])), F(0)))
        assert extend(window, 30) == values[len(window) :]
        assert values == measure_moments(mu, len(values))

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
