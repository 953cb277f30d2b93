"""Tests for exact scalars, polynomials, and Sturm root isolation."""
from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankelmp import exact
from hankelmp.errors import NotSquareFree, ZeroPolynomial
from hankelmp.exact import (
    MAX_DECIMAL_EXPONENT,
    IsolatingInterval,
    RationalInterval,
    RationalPoly,
    format_rational,
    parse_rational,
    refine_root,
    sturm_chain,
    sturm_isolate,
)
from hankelmp.hankel import analyze
import oracles
import strategies
from oracles import eval_power_sum, fraction_sturm_chain, poly_from_roots, poly_gcd, poly_mul

rationals = strategies.rationals(-50, 50, 20)


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

    @pytest.mark.parametrize("zero", ["\u0660", "\uff10"])  # Arabic-Indic and fullwidth digits
    def test_exponent_bound_holds_for_any_decimal_digits(self, zero):
        # Fraction reads an exponent in any Unicode decimal digits, so the bound must too.
        def script(text):
            return "".join(chr(ord(zero) + int(c)) for c in text)

        assert parse_rational(f"1e{script('4300')}") == 10**MAX_DECIMAL_EXPONENT
        assert parse_rational(f"3e-{script('4300')}") == F(3, 10**MAX_DECIMAL_EXPONENT)
        assert parse_rational(f"1e{script('0000001')}") == 10
        for text in (f"1e{script('4301')}", f"1E-{script('4301')}", f"1e{script('500000')}"):
            with pytest.raises(ValueError, match="exceeds 4300"):
                parse_rational(text)

    def test_format_past_the_int_to_string_limit(self):
        x = F(-(10**5000) - 1, 3 * 10**4400)
        assert format_rational(x) == "-1" + "0" * 4999 + "1/3" + "0" * 4400
        assert format_rational(F(10**4400)) == "1" + "0" * 4400

    @given(rationals)
    @settings(derandomize=True)
    def test_round_trip(self, x):
        text = format_rational(x)
        assert parse_rational(text) == x
        assert format_rational(parse_rational(text)) == text


# Distinct ten-digit primes: coefficient denominators that share no factor.
TEN_DIGIT_PRIMES = (1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093)


@st.composite
def poly_inputs(draw):
    """Coefficient lists as RationalPoly takes them: ints, strings, Fractions,
    values over distinct ten-digit primes, trailing zeros, and zero polynomials."""
    if draw(st.booleans()):
        primes = draw(st.permutations(TEN_DIGIT_PRIMES))[: draw(st.integers(0, 6))]
        values = [F(draw(st.integers(-(10**12), 10**12)), q) for q in primes]
    else:
        values = draw(st.lists(rationals, max_size=6))
    values += [F(0)] * draw(st.integers(0, 2))
    forms = (lambda v: v, str, lambda v: int(v) if v.denominator == 1 else v)
    return [draw(st.sampled_from(forms))(v) for v in values]


class TestPolyBasics:
    def test_zero_poly_degree(self):
        assert RationalPoly().degree == -1
        assert RationalPoly([0, 0]).is_zero
        assert RationalPoly([1, 0]).degree == 0

    @given(
        poly_inputs(), poly_inputs(), st.lists(st.one_of(rationals, st.integers(-9, 9)), max_size=3)
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    @example([0, "0", F(0)], [], [F(3, 7)])
    @example(["1/2", 0, "-3"], [F(1, 2), F(0), F(-3), F(0)], [2, F(-1, 1000000007)])
    def test_matches_fraction_tuple_reference(self, coeffs, other, points):
        # ``points`` is not read; drawing it keeps the examples of the others.
        p, ref = RationalPoly(coeffs), oracles.fraction_coeffs(coeffs)
        q, other_ref = RationalPoly(other), oracles.fraction_coeffs(other)
        assert p.coeffs == ref and all(type(c) is F for c in p.coeffs)
        assert RationalPoly(p.coeffs) == p == RationalPoly(ref)
        assert (p == q) == (ref == other_ref)
        assert hash(p) == hash(ref) and (p != q or hash(p) == hash(q))
        assert p.degree == len(ref) - 1 and p.is_zero == (not ref)
        derivative = oracles.fraction_derivative(ref)
        assert p.derivative().coeffs == derivative
        assert p.derivative() == RationalPoly(derivative)
        # The stored forms: reduced numerators over a positive denominator, and
        # coprime integers that are a positive multiple of the polynomial.
        for poly, cs in ((p, ref), (p.derivative(), derivative)):
            nums, den, prim = poly.numerators, poly.denominator, poly.primitive
            assert den > 0 and math.gcd(den, *nums) == 1
            assert tuple(F(v, den) for v in nums) == cs
            assert all(type(v) is int for v in nums + prim)
            assert len(prim) == len(cs) and math.gcd(*prim) == (1 if cs else 0)
            if cs:
                ratio = F(prim[-1]) / cs[-1]
                assert ratio > 0 and all(v == ratio * c for v, c in zip(prim, cs))

    def test_str_skips_zero_coefficients(self):
        assert str(RationalPoly()) == "0"
        assert str(RationalPoly([-4, 0, 1])) == "x^2 - 4"

    def test_not_equal_to_a_number(self):
        assert RationalPoly([1]) != 1

    def test_derivative(self):
        p = RationalPoly([5, -1, 0, 2])
        assert p.derivative() == RationalPoly([-1, 0, 6])
        assert RationalPoly([3]).derivative().is_zero

    def test_gcd(self):
        a = poly_from_roots([1, 2])
        b = poly_from_roots([2, 3])
        assert poly_gcd(a, b) == poly_from_roots([2])
        assert poly_gcd(poly_mul(RationalPoly([3]), a), RationalPoly()) == a


def _scaled_to_integers(poly: RationalPoly) -> RationalPoly:
    den = 1
    for c in poly.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return RationalPoly([c * den for c in poly.coeffs])


@st.composite
def root_bound_polys(draw):
    """Integer polys of degree >= 1 whose coefficient sizes spread widely.

    Planted roots +-2**j, j from -20 to 60, some moved by 2**-70, repeated
    up to twice, times an optional integer factor whose coefficients have up
    to 200 bits, zeros included.
    """
    poly = RationalPoly([1])
    for _ in range(draw(st.integers(0, 3))):
        r = F(2) ** draw(st.integers(-20, 60)) + draw(st.sampled_from([F(0), F(1, 2**70), -F(1, 2**70)]))
        factor = RationalPoly([draw(st.sampled_from([r, -r])), 1])
        for _ in range(draw(st.integers(1, 2))):
            poly = poly_mul(poly, factor)
    if poly.degree < 1 or draw(st.booleans()):
        bits = draw(st.integers(0, 200))
        cs = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=5))
        lead = draw(st.integers(1, 2**bits)) * draw(st.sampled_from([1, -1]))
        poly = poly_mul(poly, RationalPoly(cs + [lead]))
    return _scaled_to_integers(poly)


class TestSturmIsolation:
    def test_rational_roots_collapse(self):
        ivs = sturm_isolate(sturm_chain(RationalPoly([-4, 0, 1])))
        assert [(iv.lo, iv.hi) for iv in ivs] == [(-2, -2), (2, 2)]

    def test_irrational_roots_bracketed(self):
        ivs = sturm_isolate(sturm_chain(RationalPoly([-2, 0, 1])))
        assert len(ivs) == 2
        assert -2 < ivs[0].lo < ivs[0].hi < -1
        assert 1 < ivs[1].lo < ivs[1].hi < 2

    def test_linear(self):
        ivs = sturm_isolate(sturm_chain(RationalPoly([-1, 1])))
        assert [(iv.lo, iv.hi) for iv in ivs] == [(1, 1)]

    def test_no_real_roots(self):
        assert sturm_isolate(sturm_chain(RationalPoly([1, 0, 1]))) == []

    def test_constant_poly_has_no_roots(self):
        assert sturm_isolate(sturm_chain(RationalPoly([5]))) == []

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomial):
            sturm_isolate(sturm_chain(RationalPoly()))

    def test_square_free_precondition(self):
        with pytest.raises(NotSquareFree):
            sturm_isolate(sturm_chain(poly_from_roots([1, 1, 2])))

    def test_zero_poly_rejected_without_a_chain(self):
        with pytest.raises(ZeroPolynomial):
            sturm_isolate([RationalPoly()])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one polynomial"):
            sturm_isolate([])

    def test_planted_rational_roots(self):
        rng = random.Random(20240809)
        for _ in range(120):
            count = rng.randint(1, 6)
            roots: set[F] = set()
            while len(roots) < count:
                roots.add(F(rng.randint(-12, 12), rng.randint(1, 9)))
            poly = poly_from_roots(roots)
            ivs = sturm_isolate(sturm_chain(poly))
            assert all(iv.is_exact for iv in ivs)
            assert [iv.lo for iv in ivs] == sorted(roots)

    def test_mixed_rational_irrational(self):
        poly = poly_mul(RationalPoly([-2, 0, 1]), RationalPoly([F(-1, 2), 1]))
        ivs = sturm_isolate(sturm_chain(poly))
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
            poly = poly_mul(poly_from_roots(roots), RationalPoly([1, 0, 1]))
            ivs = sturm_isolate(sturm_chain(poly))
            for iv in ivs:
                lo_val, hi_val = (eval_power_sum(poly.coeffs, x) for x in (iv.lo, iv.hi))
                if iv.is_exact:
                    assert lo_val == 0
                else:
                    assert lo_val * hi_val < 0
            for left, right in zip(ivs, ivs[1:]):
                assert left.hi < right.lo

    @given(root_bound_polys())
    @settings(derandomize=True, max_examples=150, deadline=None)
    @example(RationalPoly([0, 1]))  # the one root 0, t = 0
    @example(RationalPoly([0, 0, 0, 5]))  # a triple root at 0
    @example(RationalPoly([-(2**40), 1]))  # a root on a power of two
    @example(poly_from_roots([F(-1, 3), 7, 2**60 - 1]))
    def test_root_count_matches_sign_variations(self, poly):
        # 2**t strictly bounds every real root: p(+-2**t) != 0, and the chain
        # loses as many sign variations between -2**t and 2**t as the
        # Fraction chain loses over Cauchy's bound, 1 + max |c_i / c_n|.
        top = 1 << exact._root_bound_exponent(poly.primitive)
        assert oracles.power_of_two_root_bound(poly) == top
        chain = sturm_chain(poly)
        ints = [q.primitive[::-1] for q in chain]
        assert exact._value_at(ints[0], -top, 0) and exact._value_at(ints[0], top, 0)
        diff = exact._variations(ints, -top, 0) - exact._variations(ints, top, 0)
        reference = fraction_sturm_chain(poly)
        cauchy = 1 + max(abs(c / poly.coeffs[-1]) for c in poly.coeffs[:-1])
        assert diff == oracles._variations(reference, -cauchy) - oracles._variations(reference, cauchy)
        if chain[-1].degree == 0:
            assert diff == len(sturm_isolate(chain))


@st.composite
def square_free_integer_polys(draw):
    """Products of distinct linear, quadratic and close-pair factors, cleared to integers.

    Close pairs are two rational roots r and r + 2**-e, or the irrational roots
    r +- 2**-e * sqrt(m) of one quadratic (m <= 7), with e from 203 to 240: both are
    closer than 2**-200.
    """
    factors = []
    small = strategies.rationals(-20, 20, 12)
    for r in draw(st.lists(small, max_size=3, unique=True)):
        factors.append(RationalPoly([-r, 1]))
    if draw(st.booleans()):
        m = draw(st.integers(-9, 9).filter(lambda v: v != 0))
        factors.append(RationalPoly([-m, 0, 1]))  # x^2 - m: irrational, rational or no roots
    if draw(st.booleans()):
        r, e = draw(small), draw(st.integers(203, 240))
        if draw(st.booleans()):
            factors += [RationalPoly([-r, 1]), RationalPoly([-(r + F(1, 2**e)), 1])]
        else:
            m = draw(st.sampled_from([2, 3, 5, 7]))
            factors.append(RationalPoly([r * r - F(m, 4**e), -2 * r, 1]))
    if draw(st.booleans()):
        cs = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=4))
        factors.append(RationalPoly(cs))
    poly = RationalPoly([1])
    for f in factors:
        poly = poly_mul(poly, f)
    assume(poly.degree >= 1 and poly_gcd(poly, poly.derivative()).degree == 0)
    return _scaled_to_integers(poly)


factor_polys = st.lists(
    strategies.rationals(-9, 9, 6), min_size=1, max_size=3
).map(RationalPoly).filter(lambda p: not p.is_zero)


class TestSturmChain:
    @given(st.lists(st.tuples(factor_polys, st.integers(1, 3)), min_size=1, max_size=3))
    @settings(derandomize=True, max_examples=150, deadline=None)
    @example([(RationalPoly([-1, 1]), 2), (RationalPoly([-2, 1]), 1)])
    @example([(RationalPoly([F(7, 2)]), 1)])
    def test_members_are_positive_multiples_of_the_fraction_chain(self, factors):
        poly = RationalPoly([1])
        for factor, multiplicity in factors:
            for _ in range(multiplicity):
                poly = poly_mul(poly, factor)
        chain = sturm_chain(poly)
        reference = fraction_sturm_chain(poly)
        assert len(chain) == len(reference)
        for member, ref in zip(chain, reference):
            assert member.degree == ref.degree
            if member.is_zero:
                continue  # p' of a constant p
            ratio = member.coeffs[-1] / ref.coeffs[-1]
            assert ratio > 0
            assert member.coeffs == tuple(ratio * c for c in ref.coeffs)

    def test_later_members_are_primitive_integer_polys(self):
        poly = poly_mul(poly_from_roots([F(1, 3), F(-2, 5), 4]), RationalPoly([F(1, 7), 0, 2]))
        for member in sturm_chain(poly)[2:]:
            nums = [c.numerator for c in member.coeffs]
            assert all(c.denominator == 1 for c in member.coeffs)
            assert math.gcd(*nums) == 1


@st.composite
def interval_atoms(draw):
    """(poly, lo, hi) as a measure file may give them.

    The poly is c * prod (x - u*r)^m * q with multiplicities m up to 3, an
    optional quadratic q, a constant c from {1, -7/3, 10^300, -10^-300} and
    a root unit u from {1, 10^-300, 10^300}.  The endpoints are roots, points
    near roots, or other multiples of u, in either order or equal.
    """
    unit = draw(st.sampled_from([F(1), F(1, 10**300), F(10**300)]))
    small = strategies.rationals(-5, 5, 6)
    roots = draw(st.lists(small, max_size=3, unique=True))
    poly = RationalPoly([draw(st.sampled_from([F(1), F(-7, 3), F(10**300), -F(1, 10**300)]))])
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            poly = poly_mul(poly, RationalPoly([-r * unit, 1]))
    if draw(st.booleans()):
        m = draw(st.integers(-9, 9))
        poly = poly_mul(poly, RationalPoly([-m * unit * unit, 0, 1]))
    anchors = st.sampled_from(roots) if roots else small

    def near(anchor):
        offset = draw(st.sampled_from([F(0), F(1, 2), F(1, 7), F(1, 10**300)]))
        return (anchor + draw(st.sampled_from([offset, -offset]))) * unit

    anchor = draw(st.one_of(anchors, small))
    lo = near(anchor)
    if draw(st.sampled_from([False, False, False, True])):
        return poly, lo, lo
    lo, hi = sorted((lo, near(draw(st.one_of(st.just(anchor), anchors, small)))))
    return (poly, hi, lo) if draw(st.sampled_from([False] * 7 + [True])) else (poly, lo, hi)


class TestCheckIsolating:
    @given(interval_atoms())
    @settings(derandomize=True, max_examples=200, deadline=None)
    @example((poly_from_roots([1, 1, 3]), F(0), F(2)))  # double root: no sign change
    @example((poly_from_roots([1, 1, 1]), F(0), F(2)))  # triple root: one distinct root
    @example((poly_from_roots([1, 1, 2]), F(0), F(3)))  # a double and a simple root
    @example((poly_from_roots([1, 2, 3]), F(0), F(5)))
    @example((poly_from_roots([1, 2, 3]), F(1), F(3, 2)))  # lo on a root
    @example((poly_from_roots([1, 2]), F(3, 2), F(3, 2)))  # point off the roots
    @example((RationalPoly([-3, 0, 2]), F(2), F(1)))  # reversed
    def test_matches_the_fraction_oracle(self, case):
        poly, lo, hi = case
        expected = oracles.fraction_isolating_check(poly, lo, hi)
        try:
            exact._check_isolating(poly, lo, hi)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


class TestIntegerKernelsAgainstFractionBisection:
    @given(square_free_integer_polys(), st.integers(1, 60))
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_identical_intervals(self, poly, digits):
        ivs = sturm_isolate(sturm_chain(poly))
        assert ivs == oracles.fraction_sturm_isolate(poly)
        for iv in ivs[:2]:
            assert refine_root(iv, digits) == oracles.fraction_refine_root(iv, digits)

    def test_roots_closer_than_2_to_minus_200(self):
        r = F(1, 3)
        for poly in (
            poly_from_roots([r, r + F(1, 2**230), F(-5, 7)]),
            poly_mul(RationalPoly([r * r - F(2, 4**215), -2 * r, 1]), RationalPoly([-3, 0, 1])),
        ):
            ivs = sturm_isolate(sturm_chain(poly))
            assert ivs == oracles.fraction_sturm_isolate(poly)
            assert any(b.lo - a.hi < F(1, 2**200) for a, b in zip(ivs, ivs[1:]))
            for iv in ivs:
                assert refine_root(iv, 80) == oracles.fraction_refine_root(iv, 80)

    @pytest.mark.parametrize(
        "coeffs",
        [
            [-2, 40, -200, 0, 0, 1],  # x^5 - 2(10x - 1)^2
            [-2, 64, -512, 0, 1],  # x^4 - 2(16x - 1)^2
            [-2, 12, -18, 0, 0, 0, 0, 0, 1],  # x^8 - 2(3x - 1)^2
        ],
    )
    def test_mignotte_neighbours_are_separated(self, coeffs):
        # Two roots lie closer than the settle width, so their settled
        # segments share an endpoint until ``_separate`` shrinks the left one.
        poly = RationalPoly(coeffs)
        ivs = sturm_isolate(sturm_chain(poly))
        assert ivs == oracles.fraction_sturm_isolate(poly)
        assert all(a.hi < b.lo for a, b in zip(ivs, ivs[1:]))

    @given(square_free_integer_polys(), st.integers(1, 60))
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_inexact_intervals_have_power_of_two_denominators(self, poly, digits):
        for iv in sturm_isolate(sturm_chain(poly)):
            for out in (iv, refine_root(iv, digits)):
                if not out.is_exact:
                    assert all(x.denominator & (x.denominator - 1) == 0 for x in (out.lo, out.hi))

    def test_refine_from_non_dyadic_endpoints(self):
        iv = IsolatingInterval(F(4, 3), F(3, 2), RationalPoly([-2, 0, 1]))
        for digits in (1, 7, 30):
            assert refine_root(iv, digits) == oracles.fraction_refine_root(iv, digits)


@pytest.fixture(scope="module")
def high_digit_cases():
    """(kind, interval) pairs on which quadratic refinement must match bisection."""
    r, lead = F(1, 3), 3 * 10**300
    cases = []
    for poly in (
        poly_from_roots([r, r + F(1, 2**230), F(-5, 7)]),
        RationalPoly([r * r - F(2, 4**215), -2 * r, 1]),
    ):
        cases += [("close pair", iv) for iv in sturm_isolate(sturm_chain(poly))]
    legendre = RationalPoly(oracles.orthogonal_poly(oracles.hilbert_window(3), 3))
    cases += [("legendre", iv) for iv in sturm_isolate(sturm_chain(legendre))]
    # Roots on grid points: level 40 of [0, 1], level 41 of [1/3, 2/3] (a
    # non-dyadic denominator), and level 1500 of [1/2, 3/2], which is below
    # the target level at 1000 digits and above it at 300.
    for lo, hi, root in (
        (F(0), F(1), F(5, 2**40)),
        (F(1, 3), F(2, 3), F(1, 3) + F(5, 3 * 2**41)),
        (F(1, 2), F(3, 2), 1 + F(1, 2**1500)),
    ):
        cases.append(("grid point", IsolatingInterval(lo, hi, poly_from_roots([root, 7]))))
    # Primitive leading coefficient L = 3 * 10**300: isolation settles each
    # segment to width 1/(2L) before it tests the one rational candidate.
    wide = RationalPoly([-(2 * lead + 7), 0, lead])
    ivs = sturm_isolate(sturm_chain(wide))
    assert ivs == oracles.fraction_sturm_isolate(wide)
    assert all(not iv.is_exact and iv.hi - iv.lo <= F(1, 2 * lead) for iv in ivs)
    cases += [("large leading coefficient", iv) for iv in ivs]
    return cases


class TestQuadraticRefinement:
    """``refine_root`` takes quadratic steps on the bisection grid: same intervals."""

    @pytest.mark.parametrize("digits,per_kind", [(300, None), (1000, 1)])
    def test_matches_fraction_bisection_at_high_digits(self, high_digit_cases, digits, per_kind):
        # The Fraction oracle costs 0.3-1 s per root at 1000 digits, so
        # that level checks the first inexact interval of each kind.
        seen: dict[str, int] = {}
        for kind, iv in high_digit_cases:
            if iv.is_exact or seen.get(kind, 0) == per_kind:
                continue
            seen[kind] = seen.get(kind, 0) + 1
            refined = refine_root(iv, digits)
            assert refined == oracles.fraction_refine_root(iv, digits), kind
            assert iv.lo <= refined.lo <= refined.hi <= iv.hi
        assert len(seen) == 4

    def test_grid_point_roots_come_back_exact_below_the_target_level(self, high_digit_cases):
        cases = [iv for kind, iv in high_digit_cases if kind == "grid point"]
        assert [refine_root(iv, 300).is_exact for iv in cases] == [True, True, False]
        assert refine_root(cases[2], 1000).lo == 1 + F(1, 2**1500)

    def test_refining_a_refined_interval_matches_refining_the_original(self, high_digit_cases):
        # The pad loops of reconstruct and measure_moments rely on this.
        for _, iv in high_digit_cases:
            assert refine_root(refine_root(iv, 60), 300) == refine_root(iv, 300)

    def test_few_evaluations_to_4300_digits(self, monkeypatch):
        sqrt2 = sturm_isolate(sturm_chain(RationalPoly([-2, 0, 1])))[1]
        calls, value_at = [], exact._value_at

        def counting(hs, n, k):
            calls.append(k)
            return value_at(hs, n, k)

        monkeypatch.setattr(exact, "_value_at", counting)
        refined = refine_root(sqrt2, 4300)
        # Bisection makes one evaluation per bit: about 14 300 here.
        assert len(calls) < 200
        assert refined.hi - refined.lo <= F(1, 10**4300)
        assert refined.lo**2 < 2 < refined.hi**2

    @pytest.mark.parametrize("digits, bound", [(50, 18), (500, 24), (4300, 30)])
    def test_evaluations_grow_with_log_digits_on_gauss_legendre_atoms(self, monkeypatch, digits, bound):
        # The 8 atoms of the Gauss-Legendre window take 15.25, 21.25 and 27.25
        # evaluations each at 50, 500 and 4300 digits: a few more per doubling
        # of the digits, where bisection takes 3.3 more per digit.
        roots = sturm_isolate(analyze(oracles.hilbert_window(8)).orthogonal_polys[::-1])
        calls, value_at = [], exact._value_at

        def counting(hs, n, k):
            calls.append(k)
            return value_at(hs, n, k)

        monkeypatch.setattr(exact, "_value_at", counting)
        for iv in roots:
            refined = refine_root(iv, digits)
            assert refined.hi - refined.lo <= F(1, 10**digits)
        assert len(roots) == 8 and len(calls) / 8 <= bound

    @pytest.mark.parametrize("n0, bound", [(20, 30), (30, 42), (60, 78)])
    def test_isolation_work_on_gauss_legendre_kernels(self, monkeypatch, n0, bound):
        # p_{n0}, ..., p_0 take 27, 38 and 69 ``_variations`` calls from
        # [-2**t, 2**t].  The bounds leave room to fall, and a start at
        # Cauchy's bound, which takes 34, 48 and 93, fails all three.
        chain = analyze(oracles.hilbert_window(n0)).orthogonal_polys[::-1]
        calls, variations = [], exact._variations

        def counting(hs, n, k):
            calls.append(k)
            return variations(hs, n, k)

        monkeypatch.setattr(exact, "_variations", counting)
        assert len(sturm_isolate(chain)) == n0 and len(calls) <= bound

    def test_same_sign_endpoints_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            refine_root(IsolatingInterval(F(2), F(3), RationalPoly([-2, 0, 1])), 5)


class TestIntervalTypes:
    poly = RationalPoly([-2, 0, 1])

    def test_isolating_interval_is_a_rational_interval(self):
        iv = IsolatingInterval(F(1), F(2), self.poly)
        assert isinstance(iv, RationalInterval)
        assert (iv.hi - iv.lo, iv.midpoint()) == (F(1), F(3, 2))
        assert repr(iv) == (
            "IsolatingInterval(lo=Fraction(1, 1), hi=Fraction(2, 1), "
            "poly=RationalPoly(['-2', '0', '1']))"
        )

    def test_types_compare_unequal_and_both_hash(self):
        plain = RationalInterval(F(1), F(2))
        isolating = IsolatingInterval(F(1), F(2), self.poly)
        assert plain != isolating and isolating != plain
        assert plain == RationalInterval(F(1), F(2))
        assert isolating == IsolatingInterval(F(1), F(2), RationalPoly([-2, 0, 1]))
        assert len({plain, isolating, RationalInterval(F(1), F(2))}) == 2

    def test_out_of_order_isolating_interval_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            IsolatingInterval(F(2), F(1), self.poly)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            IsolatingInterval(F(1), F(2), RationalPoly())


class TestRefineRoot:
    def setup_method(self):
        self.neg_sqrt2, self.sqrt2 = sturm_isolate(sturm_chain(RationalPoly([-2, 0, 1])))

    def test_width_and_containment(self):
        refined = refine_root(self.sqrt2, 10)
        assert refined.hi - refined.lo <= F(1, 10**10)
        assert refined.lo**2 <= 2 <= refined.hi**2

    def test_exact_root_unchanged(self):
        iv = IsolatingInterval(F(2), F(2), RationalPoly([-4, 0, 1]))
        assert refine_root(iv, 5) == iv

    def test_root_on_an_endpoint_comes_back_exact(self):
        x_minus_1 = RationalPoly([-1, 1])
        for lo, hi in ((F(1), F(2)), (F(0), F(1))):
            refined = refine_root(IsolatingInterval(lo, hi, x_minus_1), 5)
            assert refined == IsolatingInterval(F(1), F(1), x_minus_1) and refined.is_exact

    def test_negative_root_digits_3(self):
        refined = refine_root(self.neg_sqrt2, 3)
        assert refined.hi - refined.lo <= F(1, 1000)
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
        assert refined.hi - refined.lo <= F(1, 10**digits)
        tighter = refine_root(refined, digits + 2)
        assert refined.lo <= tighter.lo <= tighter.hi <= refined.hi

    def test_digits_must_be_positive(self):
        with pytest.raises(ValueError):
            refine_root(self.sqrt2, 0)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestAgainstSympy:
    @given(square_free_integer_polys())
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_intervals_match_sympy_real_roots(self, sympy, poly):
        x = sympy.Symbol("x")
        reference = sympy.Poly([sympy.Integer(int(c)) for c in reversed(poly.coeffs)], x)
        ivs = sturm_isolate(sturm_chain(poly))
        assert len(ivs) == reference.count_roots()
        roots = sympy.real_roots(reference)
        assert len(roots) == len(ivs)
        for iv, root in zip(ivs, roots):
            lo = sympy.Rational(iv.lo.numerator, iv.lo.denominator)
            hi = sympy.Rational(iv.hi.numerator, iv.hi.denominator)
            if root.is_Rational:
                assert iv.is_exact and root == lo
            else:
                # evalf(600) is accurate far below the 2**-240 root gaps drawn here.
                value = root.evalf(600)
                assert not iv.is_exact and lo < value < hi
