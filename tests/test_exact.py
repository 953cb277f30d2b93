"""Tests for exact scalars, polynomials, and Sturm root isolation."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmp.errors import NotSquareFree, ZeroPolynomial
from hankelmp.exact import (
    MAX_DECIMAL_EXPONENT,
    IsolatingInterval,
    RationalPoly,
    cauchy_root_bound,
    format_rational,
    parse_rational,
    poly_eval,
    poly_gcd,
    refine_root,
    sign_variations,
    sturm_chain,
    sturm_isolate,
)
from oracles import eval_power_sum

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(RationalPoly)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", F(1, 2)),
            ("-3", F(-3)),
            ("1.25", F(5, 4)),
            ("-0.5", F(-1, 2)),
            ("007", F(7)),
            (" 2/4 ", F(1, 2)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["abc", "1/0", "1/-2", "nan", "inf", "1//2", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", ["1e4301", "1E-4301", "2.5e+100000000", "1e" + "9" * 5000])
    def test_parse_rejects_huge_exponents(self, text):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)

    def test_parse_accepts_exponents_up_to_the_bound(self):
        assert parse_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
        assert parse_rational(f"3e-{MAX_DECIMAL_EXPONENT}") == F(3, 10**MAX_DECIMAL_EXPONENT)
        assert parse_rational("1.5e1_0") == 15 * 10**9

    @given(rationals)
    @settings(derandomize=True)
    def test_round_trip(self, x):
        text = format_rational(x)
        assert parse_rational(text) == x
        assert format_rational(parse_rational(text)) == text


class TestPolyBasics:
    def test_eval_examples(self):
        assert poly_eval(RationalPoly([-4, 0, 1]), F(2)) == 0
        assert poly_eval(RationalPoly(), F(7)) == 0
        assert poly_eval(RationalPoly([-12, 0, 3]), F(1)) == -9

    def test_zero_poly_degree(self):
        assert RationalPoly().degree == -1
        assert RationalPoly([0, 0]).is_zero
        assert RationalPoly([1, 0]).degree == 0

    @given(small_polys, rationals)
    @settings(derandomize=True, max_examples=60)
    def test_eval_matches_power_sum(self, p, x):
        assert p(x) == eval_power_sum(p.coeffs, x)

    @given(small_polys, small_polys, rationals)
    @settings(derandomize=True, max_examples=60)
    def test_ring_homomorphism(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p - q)(x) == p(x) - q(x)

    @given(small_polys, small_polys)
    @settings(derandomize=True, max_examples=60)
    def test_divmod_invariant(self, a, b):
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    def test_derivative(self):
        p = RationalPoly([5, -1, 0, 2])
        assert p.derivative() == RationalPoly([-1, 0, 6])
        assert RationalPoly([3]).derivative().is_zero

    def test_from_roots(self):
        p = RationalPoly.from_roots([1, -2])
        assert p == RationalPoly([-2, 1, 1])
        assert p(1) == 0 and p(-2) == 0

    def test_gcd(self):
        a = RationalPoly.from_roots([1, 2])
        b = RationalPoly.from_roots([2, 3])
        assert poly_gcd(a, b) == RationalPoly.from_roots([2])
        assert poly_gcd(a, RationalPoly()).coeffs == (a * (1 / a.leading)).coeffs


class TestSturmIsolation:
    def test_rational_roots_collapse(self):
        ivs = sturm_isolate(RationalPoly([-4, 0, 1]))
        assert [(iv.lo, iv.hi) for iv in ivs] == [(-2, -2), (2, 2)]

    def test_irrational_roots_bracketed(self):
        ivs = sturm_isolate(RationalPoly([-2, 0, 1]))
        assert len(ivs) == 2
        assert -2 < ivs[0].lo < ivs[0].hi < -1
        assert 1 < ivs[1].lo < ivs[1].hi < 2

    def test_linear(self):
        ivs = sturm_isolate(RationalPoly([-1, 1]))
        assert [(iv.lo, iv.hi) for iv in ivs] == [(1, 1)]

    def test_no_real_roots(self):
        assert sturm_isolate(RationalPoly([1, 0, 1])) == []

    def test_constant_poly_has_no_roots(self):
        assert sturm_isolate(RationalPoly([5])) == []

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomial):
            sturm_isolate(RationalPoly())

    def test_square_free_precondition(self):
        with pytest.raises(NotSquareFree):
            sturm_isolate(RationalPoly.from_roots([1, 1, 2]))

    def test_planted_rational_roots(self):
        rng = random.Random(20240809)
        for _ in range(120):
            count = rng.randint(1, 6)
            roots: set[F] = set()
            while len(roots) < count:
                roots.add(F(rng.randint(-12, 12), rng.randint(1, 9)))
            poly = RationalPoly.from_roots(roots)
            ivs = sturm_isolate(poly)
            assert all(iv.is_exact for iv in ivs)
            assert [iv.lo for iv in ivs] == sorted(roots)

    def test_mixed_rational_irrational(self):
        poly = RationalPoly([-2, 0, 1]) * RationalPoly([F(-1, 2), 1])
        ivs = sturm_isolate(poly)
        assert len(ivs) == 3
        assert ivs[1].is_exact and ivs[1].lo == F(1, 2)
        assert not ivs[0].is_exact and not ivs[2].is_exact

    def test_endpoint_signs_and_disjointness(self):
        rng = random.Random(412)
        for _ in range(40):
            count = rng.randint(1, 5)
            roots: set[F] = set()
            while len(roots) < count:
                roots.add(F(rng.randint(-10, 10), rng.randint(1, 7)))
            poly = RationalPoly.from_roots(roots) * RationalPoly([1, 0, 1])
            ivs = sturm_isolate(poly)
            for iv in ivs:
                lo_val, hi_val = poly(iv.lo), poly(iv.hi)
                if iv.is_exact:
                    assert lo_val == 0
                else:
                    assert lo_val * hi_val < 0
            for left, right in zip(ivs, ivs[1:]):
                assert left.hi < right.lo

    def test_root_count_matches_sign_variations(self):
        rng = random.Random(99)
        for _ in range(40):
            count = rng.randint(1, 5)
            roots: set[F] = set()
            while len(roots) < count:
                roots.add(F(rng.randint(-8, 8), rng.randint(1, 5)))
            poly = RationalPoly.from_roots(roots)
            chain = sturm_chain(poly)
            bound = cauchy_root_bound(poly)
            for b in (bound + 1, 2 * bound + 3):
                diff = sign_variations([q(-b) for q in chain]) - sign_variations(
                    [q(b) for q in chain]
                )
                assert diff == len(sturm_isolate(poly)) == count


class TestRefineRoot:
    def setup_method(self):
        self.sqrt2 = [iv for iv in sturm_isolate(RationalPoly([-2, 0, 1])) if iv.lo > 0][0]
        self.neg_sqrt2 = [iv for iv in sturm_isolate(RationalPoly([-2, 0, 1])) if iv.lo < 0][0]

    def test_width_and_containment(self):
        refined = refine_root(self.sqrt2, 10)
        assert refined.width <= F(1, 10**10)
        assert refined.lo**2 <= 2 <= refined.hi**2

    def test_exact_root_unchanged(self):
        iv = IsolatingInterval(F(2), F(2), RationalPoly([-4, 0, 1]))
        assert refine_root(iv, 5) == iv

    def test_negative_root_digits_3(self):
        refined = refine_root(self.neg_sqrt2, 3)
        assert refined.width <= F(1, 1000)
        assert refined.hi < 0 and refined.hi**2 <= 2 <= refined.lo**2
        assert abs(refined.midpoint() + F(141421, 100000)) < F(2, 1000)

    def test_idempotent_and_nested(self):
        once = refine_root(self.sqrt2, 8)
        again = refine_root(once, 8)
        assert again == once
        assert self.sqrt2.lo <= once.lo <= once.hi <= self.sqrt2.hi

    @given(st.integers(min_value=1, max_value=12))
    @settings(derandomize=True, max_examples=12)
    def test_nesting_over_digits(self, digits):
        refined = refine_root(self.sqrt2, digits)
        assert refined.width <= F(1, 10**digits)
        tighter = refine_root(refined, digits + 2)
        assert refined.lo <= tighter.lo <= tighter.hi <= refined.hi

    def test_digits_must_be_positive(self):
        with pytest.raises(ValueError):
            refine_root(self.sqrt2, 0)
