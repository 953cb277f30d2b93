"""Tests for the orthogonal polynomials that ``analyze`` keeps, and the inner-product oracle."""
from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelmp.exact import RationalPoly, sturm_isolate
from hankelmp.hankel import Degenerate, MomentWindow, analyze, classify, det_sequence
from hankelmp.recovery import DiscreteMeasure, measure_moments
import oracles
from oracles import moment_inner_product
from strategies import rationals

A4 = MomentWindow([1, 1, 4, 4, 16])

ONE = RationalPoly([1])
X = RationalPoly([0, 1])


def orthogonal_poly(w, n):
    """The brute-force determinantal p_n of the oracle module."""
    return RationalPoly(oracles.orthogonal_poly(list(w), n))


def monomial(k):
    return RationalPoly([0] * k + [1])


def random_measure_window(rng, max_atoms, extra):
    count = rng.randint(1, max_atoms)
    atoms: set[F] = set()
    while len(atoms) < count:
        atoms.add(F(rng.randint(-9, 9), rng.randint(1, 5)))
    weights = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(count)]
    mu = DiscreteMeasure(tuple(sorted(atoms)), tuple(weights))
    return measure_moments(mu, 2 * count + 1 + extra)


class TestInnerProduct:
    def test_constants(self):
        assert moment_inner_product(ONE, ONE, A4) == 1
        assert moment_inner_product(ONE, ONE, [7, 0, 0]) == 7

    def test_x_with_x(self):
        assert moment_inner_product(X, X, [1, 1, 4]) == 4

    def test_x_minus_one_squared(self):
        p = RationalPoly([-1, 1])
        assert moment_inner_product(p, p, A4) == 3

    def test_zero_polynomial(self):
        assert moment_inner_product(RationalPoly(), X, A4) == 0

    def test_out_of_window(self):
        with pytest.raises(IndexError):
            moment_inner_product(monomial(2), monomial(1), [1, 1, 4])

    def test_max_degree(self):
        assert A4.horizon == 2
        assert MomentWindow([1, 2]).horizon == 0

    def test_bilinear(self):
        rng = random.Random(8)
        for _ in range(30):
            p = RationalPoly([F(rng.randint(-5, 5)) for _ in range(3)])
            qs = [F(rng.randint(-5, 5)) for _ in range(2)]
            rs = [F(rng.randint(-5, 5)) for _ in range(2)]
            q, r = RationalPoly(qs), RationalPoly(rs)
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = moment_inner_product(p, RationalPoly([c * a + b for a, b in zip(qs, rs)]), A4)
            rhs = c * moment_inner_product(p, q, A4) + moment_inner_product(p, r, A4)
            assert lhs == rhs
            assert moment_inner_product(p, q, A4) == moment_inner_product(q, p, A4)


class TestOrthogonalPoly:
    def test_p0_is_one(self):
        assert orthogonal_poly(A4, 0) == ONE
        # The zero measure is degenerate at n0 = 0, with kernel p_0.
        assert analyze([0, 0, 0]).orthogonal_polys == (ONE,)

    def test_examples(self):
        assert orthogonal_poly(A4, 1) == RationalPoly([-1, 1])
        assert orthogonal_poly(A4, 2) == RationalPoly([-12, 0, 3])

    def test_monic_examples(self):
        p1, p2 = RationalPoly([-1, 1]), RationalPoly([-4, 0, 1])
        assert analyze(A4).orthogonal_polys == (ONE, p1, p2)
        assert analyze([1, 0, 0]).kernel == X
        assert analyze([1, 3, 9, 27]).kernel == RationalPoly([-3, 1])

    def test_out_of_window(self):
        # p_2 needs s_3, past the end of [1, 1, 4]; a window that is not
        # consistent degenerate keeps no polynomials at all.
        with pytest.raises(IndexError):
            oracles.orthogonal_poly([1, 1, 4], 2)
        with pytest.raises(ValueError):
            oracles.orthogonal_poly(A4, -1)
        assert analyze([1, 1, 4]).orthogonal_polys is None
        assert analyze([1, 1, 1, 1, 0]).orthogonal_polys is None

    def test_orthogonality_and_norm_identity(self):
        rng = random.Random(1234)
        for _ in range(60):
            length = rng.randint(2, 9)
            window = MomentWindow(
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(length)]
            )
            dets = det_sequence(window)
            for n in range(window.horizon + 1):
                p_n = orthogonal_poly(window, n)
                for k in range(n):
                    assert moment_inner_product(p_n, monomial(k), window) == 0
                previous = dets[n - 1] if n >= 1 else F(1)
                assert moment_inner_product(p_n, p_n, window) == previous * dets[n]
                if n >= 1 and dets[n - 1] != 0:
                    assert p_n.degree == n and p_n.coeffs[-1] == dets[n - 1]

    def test_monic_leading_coefficient(self):
        rng = random.Random(55)
        for _ in range(40):
            polys = analyze(random_measure_window(rng, 5, rng.randint(0, 3))).orthogonal_polys
            for k, p_k in enumerate(polys):
                assert p_k.degree == k and p_k.coeffs[-1] == 1

    def test_degenerate_kernel_is_square_free_with_n0_roots(self):
        fixtures = [
            [1, 1, 4, 4, 16],
            [1, 0, 2, 0, 4],
            [1, 0, 1, 0, 2, 0, 4],
            [1, 3, 9, 27],
            [1, 0, 0],
        ]
        rng = random.Random(77)
        fixtures += [random_measure_window(rng, 5, 2) for _ in range(25)]
        for seq in fixtures:
            cls = classify(seq)
            assert isinstance(cls, Degenerate) and cls.n0 >= 1
            analysis = analyze(seq)
            kernel = analysis.kernel
            assert kernel.degree == cls.n0
            assert oracles.poly_gcd(kernel, kernel.derivative()).degree == 0
            assert len(sturm_isolate(analysis.orthogonal_polys[::-1])) == cls.n0


def _is_rational_square(a: F) -> bool:
    return all(math.isqrt(v) ** 2 == v for v in (a.numerator, a.denominator))


@st.composite
def consistent_degenerate_windows(draw):
    """Rational measures with n0 <= 8, Gauss-Legendre windows, and the demo
    family 1, 1, a, a, ..., a^4 with atoms -sqrt(a), sqrt(a) for a > 1 not a square."""
    kind = draw(st.sampled_from(["rational", "gauss-legendre", "demo"]))
    if kind == "rational":
        atoms = draw(
            st.lists(rationals(-6, 6, 6), min_size=1, max_size=8, unique=True)
        )
        weights = draw(
            st.lists(
                rationals(F(1, 6), 6, 6),
                min_size=len(atoms),
                max_size=len(atoms),
            )
        )
        mu = DiscreteMeasure(tuple(sorted(atoms)), tuple(weights))
        return measure_moments(mu, 2 * len(atoms) + 1 + draw(st.integers(0, 3)))
    if kind == "gauss-legendre":
        return oracles.hilbert_window(draw(st.integers(1, 6)))
    a = draw(
        rationals(1, 50, 9).filter(
            lambda v: v > 1 and not _is_rational_square(v)
        )
    )
    return [1, 1, a, a, a**2, a**2, a**3, a**3, a**4]


class TestRecurrenceAgainstOracle:
    @given(consistent_degenerate_windows())
    @settings(derandomize=True, max_examples=60, deadline=None)
    @example([0, 0, 0])
    @example([1, 1, 2, 2, 4, 4, 8, 8, 16])
    def test_monic_matches_determinantal_oracle(self, window):
        # Every stored p_k is the monic determinantal p_k and is orthogonal
        # to x^j for j < k, and p_{n0}, ..., p_0 isolates the same intervals
        # as the remainder Sturm chain of the kernel.
        analysis = analyze(window)
        polys = analysis.orthogonal_polys
        n0 = len(polys) - 1
        assert analysis.classification == Degenerate(n0, True)
        for k, p_k in enumerate(polys):
            determinantal = orthogonal_poly(window, k)
            assert p_k == RationalPoly([c / determinantal.coeffs[-1] for c in determinantal.coeffs])
            for j in range(k):
                assert moment_inner_product(p_k, monomial(j), window) == 0
        assert sturm_isolate(polys[::-1]) == oracles.fraction_sturm_isolate(analysis.kernel)

    def test_recurrence_breakdown_examples(self):
        # D_0 = 0 but D_1 = -1, so p_2 exists although p_1 does not; the
        # window is no moment sequence, and analyze keeps no polynomials.
        assert orthogonal_poly([0, 1, 0, 0], 2) == RationalPoly([0, 0, -1])
        assert analyze([0, 1, 0, 0]).orthogonal_polys is None
        # D = 1, 0, 0, 1: p_4 exists past the zero block, but the window is
        # invalid and the recurrence stops at the zero pivot.
        window = [1, 1, 1, 1, 0, 0, 0, 1]
        assert orthogonal_poly(window, 4).degree == 4
        assert analyze(window).orthogonal_polys is None
