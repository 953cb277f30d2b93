"""Tests for the recurrence orthogonal polynomials and the moment form."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelmp.errors import DegenerateNormalization, OutOfWindow
from hankelmp.exact import RationalPoly, poly_gcd, sturm_isolate
from hankelmp.hankel import Degenerate, MomentWindow, classify, det_sequence
from hankelmp.orthopoly import (
    MomentForm,
    moment_inner_product,
    monic_orthogonal_poly,
)
import oracles

A4 = MomentWindow([1, 1, 4, 4, 16])

ONE = RationalPoly([1])
X = RationalPoly([0, 1])


def orthogonal_poly(w, n):
    """The brute-force determinantal p_n of the oracle module."""
    return RationalPoly(oracles.orthogonal_poly(list(w), n))


def monomial(k):
    return RationalPoly([0] * k + [1])


class TestInnerProduct:
    def test_constants(self):
        assert moment_inner_product(ONE, ONE, MomentForm(A4)) == 1
        assert moment_inner_product(ONE, ONE, [7, 0, 0]) == 7

    def test_x_with_x(self):
        assert moment_inner_product(X, X, [1, 1, 4]) == 4

    def test_x_minus_one_squared(self):
        p = RationalPoly([-1, 1])
        assert moment_inner_product(p, p, A4) == 3

    def test_zero_polynomial(self):
        assert moment_inner_product(RationalPoly(), X, A4) == 0

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            moment_inner_product(monomial(2), monomial(1), [1, 1, 4])

    def test_max_degree(self):
        assert MomentForm(A4).max_degree == 2
        assert MomentForm(MomentWindow([1, 2])).max_degree == 0

    def test_bilinear(self):
        rng = random.Random(8)
        form = MomentForm(A4)
        for _ in range(30):
            p = RationalPoly([F(rng.randint(-5, 5)) for _ in range(3)])
            q = RationalPoly([F(rng.randint(-5, 5)) for _ in range(2)])
            r = RationalPoly([F(rng.randint(-5, 5)) for _ in range(2)])
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = moment_inner_product(p, q * c + r, form)
            rhs = c * moment_inner_product(p, q, form) + moment_inner_product(p, r, form)
            assert lhs == rhs
            assert moment_inner_product(p, q, form) == moment_inner_product(q, p, form)


class TestOrthogonalPoly:
    def test_p0_is_one(self):
        assert orthogonal_poly(A4, 0) == ONE
        assert monic_orthogonal_poly([5], 0) == ONE

    def test_examples(self):
        assert orthogonal_poly(A4, 1) == RationalPoly([-1, 1])
        assert orthogonal_poly(A4, 2) == RationalPoly([-12, 0, 3])

    def test_monic_examples(self):
        assert monic_orthogonal_poly(A4, 2) == RationalPoly([-4, 0, 1])
        assert monic_orthogonal_poly([1, 0, 0], 1) == X
        assert monic_orthogonal_poly([1, 3, 9, 27], 1) == RationalPoly([-3, 1])

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            monic_orthogonal_poly([1, 1, 4], 2)
        with pytest.raises(ValueError):
            monic_orthogonal_poly(A4, -1)

    def test_degenerate_normalization(self):
        with pytest.raises(DegenerateNormalization):
            monic_orthogonal_poly([1, 1, 1, 1, 0], 2)

    def test_orthogonality_and_norm_identity(self):
        rng = random.Random(1234)
        for _ in range(60):
            length = rng.randint(2, 9)
            window = MomentWindow(
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(length)]
            )
            dets = det_sequence(window)
            form = MomentForm(window)
            for n in range(window.horizon + 1):
                p_n = orthogonal_poly(window, n)
                for k in range(n):
                    assert moment_inner_product(p_n, monomial(k), form) == 0
                previous = dets[n - 1] if n >= 1 else F(1)
                assert moment_inner_product(p_n, p_n, form) == previous * dets[n]
                if n >= 1 and dets[n - 1] != 0:
                    assert p_n.degree == n and p_n.leading == dets[n - 1]

    def test_monic_leading_coefficient(self):
        rng = random.Random(55)
        for _ in range(40):
            length = rng.randint(2, 9)
            window = MomentWindow(
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(length)]
            )
            dets = det_sequence(window)
            for n in range(window.horizon + 1):
                if n >= 1 and dets[n - 1] == 0:
                    continue
                p_n = monic_orthogonal_poly(window, n)
                assert p_n.degree == n and p_n.leading == 1

    def test_degenerate_kernel_is_square_free_with_n0_roots(self):
        fixtures = [
            [1, 1, 4, 4, 16],
            [1, 0, 2, 0, 4],
            [1, 0, 1, 0, 2, 0, 4],
            [1, 3, 9, 27],
            [1, 0, 0],
        ]
        rng = random.Random(77)
        from hankelmp.recovery import DiscreteMeasure, measure_moments

        for _ in range(25):
            count = rng.randint(1, 5)
            atoms: set[F] = set()
            while len(atoms) < count:
                atoms.add(F(rng.randint(-9, 9), rng.randint(1, 5)))
            weights = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(count)]
            mu = DiscreteMeasure(tuple(sorted(atoms)), tuple(weights))
            fixtures.append(measure_moments(mu, 2 * count + 3))
        for seq in fixtures:
            cls = classify(seq)
            assert isinstance(cls, Degenerate) and cls.n0 >= 1
            kernel = monic_orthogonal_poly(seq, cls.n0)
            assert poly_gcd(kernel, kernel.derivative()).degree == 0
            assert len(sturm_isolate(kernel)) == cls.n0


class TestRecurrenceAgainstOracle:
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=1, max_size=10))
    @settings(derandomize=True, max_examples=150, deadline=None)
    @example([0, 1, 0, 0])
    @example([1, 1, 1, 1, 0, 0, 0, 1])
    @example([1, 1, 1, 1, 0])
    def test_monic_matches_determinantal_oracle(self, window):
        # Zero pivots before D_{n-1} (as in [0, 1, 0, 0]) break the
        # recurrence; p_n must still come out whenever D_{n-1} != 0.
        for n in range((len(window) + 1) // 2 + 1):
            if 2 * n - 1 >= len(window):
                with pytest.raises(OutOfWindow):
                    monic_orthogonal_poly(window, n)
                continue
            p = orthogonal_poly(window, n)
            if p.degree < n:
                with pytest.raises(DegenerateNormalization):
                    monic_orthogonal_poly(window, n)
            else:
                assert monic_orthogonal_poly(window, n) == p * (1 / p.leading)

    def test_recurrence_breakdown_examples(self):
        # D_0 = 0 but D_1 = -1, so p_2 exists although p_1 does not.
        assert monic_orthogonal_poly([0, 1, 0, 0], 2) == monomial(2)
        with pytest.raises(DegenerateNormalization):
            monic_orthogonal_poly([0, 1, 0, 0], 1)
        # D = 1, 0, 0, 1: p_4 exists past the zero block, and its
        # determinantal form is already monic since D_3 = 1.
        window = [1, 1, 1, 1, 0, 0, 0, 1]
        assert monic_orthogonal_poly(window, 4) == orthogonal_poly(window, 4)
