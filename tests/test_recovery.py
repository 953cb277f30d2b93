"""Tests for measure moments, measure recovery, and the unique extension."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from hankelmp.errors import PreconditionViolated
from hankelmp.exact import IsolatingInterval, RationalPoly
from hankelmp.hankel import Degenerate, MomentWindow, classify, det_sequence
from hankelmp.recovery import (
    DiscreteMeasure,
    RationalInterval,
    extend,
    measure_moments,
    reconstruct,
)


def random_exact_measure(rng, max_atoms=5):
    count = rng.randint(1, max_atoms)
    atoms: set[F] = set()
    while len(atoms) < count:
        atoms.add(F(rng.randint(-10, 10), rng.randint(1, 6)))
    weights = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(count))
    return DiscreteMeasure(tuple(sorted(atoms)), weights)


class TestRationalInterval:
    def test_arithmetic_encloses(self):
        rng = random.Random(9)
        for _ in range(200):
            a = F(rng.randint(-8, 8), rng.randint(1, 5))
            b = F(rng.randint(-8, 8), rng.randint(1, 5))
            ia = RationalInterval(a - F(1, rng.randint(2, 9)), a + F(1, rng.randint(2, 9)))
            ib = RationalInterval(b - F(1, rng.randint(2, 9)), b + F(1, rng.randint(2, 9)))
            assert (ia + ib).contains(a + b)
            assert (ia - ib).contains(a - b)
            assert (ia * ib).contains(a * b)
            k = rng.randint(0, 5)
            assert ia.power(k).contains(a**k)
            if not ib.contains(F(0)):
                assert (ia / ib).contains(a / b)

    def test_power_tightness(self):
        iv = RationalInterval(F(-1), F(2))
        assert iv.power(2) == RationalInterval(F(0), F(4))
        assert iv.power(3) == RationalInterval(F(-1), F(8))

    def test_division_by_zero_enclosure(self):
        with pytest.raises(ZeroDivisionError):
            RationalInterval(F(1), F(2)) / RationalInterval(F(-1), F(1))

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


class TestMeasureMoments:
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
            assert values[k].width <= F(1, 10**25)
            assert values[k].contains(F(expected))


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
        with pytest.raises(PreconditionViolated):
            reconstruct(window)

    def test_irrational_atoms_enclosed(self):
        rec = reconstruct([1, 0, 2, 0, 4], digits=40)
        assert len(rec) == 2
        neg, pos = rec.atoms
        assert isinstance(neg, IsolatingInterval) and isinstance(pos, IsolatingInterval)
        assert neg.width <= F(1, 10**40) and pos.width <= F(1, 10**40)
        assert neg.hi < 0 < pos.lo
        assert neg.lo**2 >= 2 >= neg.hi**2
        assert pos.lo**2 <= 2 <= pos.hi**2
        for weight in rec.weights:
            assert isinstance(weight, RationalInterval)
            assert weight.lo > 0
            assert weight.contains(F(1, 2))

    def test_mixed_exact_and_algebraic_atoms(self):
        rec = reconstruct([1, 0, 1, 0, 2, 0, 4], digits=30)
        assert len(rec) == 3
        assert isinstance(rec.atoms[0], IsolatingInterval)
        assert rec.atoms[1] == F(0)
        assert isinstance(rec.atoms[2], IsolatingInterval)
        expected = [F(1, 4), F(1, 2), F(1, 4)]
        for weight, target in zip(rec.weights, expected):
            assert isinstance(weight, RationalInterval)
            assert weight.contains(target)

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
                grown = window.with_appended(extend(window, tail))
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
