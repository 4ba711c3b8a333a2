import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane import qspace
from qcplane.errors import DomainError
from qcplane.qspace import Interval


def orbit_weight_sum(mu, interval, k_range=range(-90, 91)):
    """Brute-force oracle: enumerate orbit points and add weights directly."""
    total = Fraction(0)
    for pos, w in mu.base_atoms:
        for k in k_range:
            if interval.contains(mu.q ** k * pos):
                total += w
    if interval.contains(Fraction(0)):
        total += mu.zero_mass
    return total


def test_make_spectral_set_sorts_and_includes_zero():
    X = qspace.make_spectral_set("1/2", ["1", "9/10"])
    assert X.generators == (Fraction(9, 10), Fraction(1))
    assert X.includes_zero


def test_membership_on_orbit():
    X = qspace.make_spectral_set("1/2", ["1"])
    assert qspace.contains(X, Fraction(1, 1024))
    assert qspace.contains(X, Fraction(4096))
    assert qspace.contains(X, 0)
    assert not qspace.contains(X, Fraction(3, 8))
    assert not qspace.contains(X, Fraction(3, 4))


def test_membership_matches_enumeration():
    X = qspace.make_spectral_set("2/3", ["1", "3/4"])
    q = X.q
    orbit = {q ** k * x for k in range(-25, 26) for x in X.generators}
    for t in sorted(orbit):
        assert qspace.contains(X, t)
    for t in [Fraction(5, 7), Fraction(1, 5), Fraction(13, 9)]:
        assert qspace.contains(X, t) == (t in orbit)


def _member_by_generator(X, span=60):
    """Oracle: t is 0 in a set with 0, or q**k g for some generator g and |k| <= span."""
    orbit = {X.q ** k * g for g in X.generators for k in range(-span, span + 1)}
    return lambda t: X.includes_zero if t == 0 else t in orbit


def _membership_points(X, levels):
    """Orbit points, the ends of (q, 1] and points between them, on the given levels."""
    q = X.q
    base = sorted({q, Fraction(1), *X.generators, (q + 1) / 2, (2 * q + 1) / 3,
                   q + (1 - q) / 10 ** 6, 1 - (1 - q) / 10 ** 6})
    return [Fraction(0)] + [q ** k * x for k in levels for x in base]


@pytest.mark.parametrize("q, gens", [
    ("1/2", ["1", "3/4"]), ("3/7", ["2/3", "1/2"]), ("9/10", ["1", "19/20"]),
    (Fraction(10 ** 14 - 1, 10 ** 14), ["1", Fraction(3 * 10 ** 14 - 1, 3 * 10 ** 14)])])
def test_membership_matches_per_generator_definition(q, gens):
    X = qspace.make_spectral_set(q, gens)
    points = _membership_points(X, range(-40, 41))
    if X.q < Fraction(99, 100):
        points += [Fraction(a, b) for a in range(1, 40) for b in range(1, 40)]
    member, hits = _member_by_generator(X), 0
    for t in points:
        want = member(t)
        assert qspace.contains(X, t) == want, t
        hits += want
    assert 0 < hits < len(points)


@pytest.mark.parametrize("delta", [-3, -1, 1, 3])
def test_membership_corrects_a_level_guess_that_is_off(monkeypatch, delta):
    # shift the logarithm of every t by delta levels, leaving log q alone
    flog = qspace._flog
    X = qspace.make_spectral_set("3/7", ["2/3", "1"])
    monkeypatch.setattr(qspace, "_flog",
                        lambda x: flog(x) if x == X.q else flog(x) + delta * flog(X.q))
    member = _member_by_generator(X)
    for t in _membership_points(X, range(-8, 9)):
        assert qspace.contains(X, t) == member(t), t


def test_membership_negative_rejected():
    X = qspace.make_spectral_set("1/2", ["1"])
    with pytest.raises(DomainError):
        qspace.contains(X, Fraction(-1, 2))


def test_generator_outside_fundamental_interval():
    with pytest.raises(DomainError):
        qspace.make_spectral_set("1/2", ["1/2"])
    with pytest.raises(DomainError):
        qspace.make_spectral_set("1/2", ["5/4"])
    with pytest.raises(DomainError):
        qspace.make_spectral_set("1/2", ["1", "1"])


def test_classical_ratio_rejected_for_sets():
    with pytest.raises(DomainError):
        qspace.make_spectral_set("1/1", ["1"])


def test_zero_only_set():
    X = qspace.make_spectral_set("1/2", [])
    assert X.is_zero_only
    assert qspace.contains(X, 0)
    assert not qspace.contains(X, Fraction(1, 2))


def test_mu0_from_nu_moves_endpoint_mass():
    # atom at the left endpoint q folds onto 1 on the quotient circle
    mu = qspace.mu0_from_nu("1/2", [("1/2", "1")])
    assert mu.base_atoms == ((Fraction(1), Fraction(1)),)

    mu2 = qspace.mu0_from_nu("1/2", [("1/2", "1/3"), ("1", "1/4"), ("3/4", "2")])
    assert dict(mu2.base_atoms) == {Fraction(1): Fraction(7, 12), Fraction(3, 4): Fraction(2)}


def test_mu0_from_nu_rejects_outside_atoms():
    with pytest.raises(DomainError):
        qspace.mu0_from_nu("1/2", [("1/4", "1")])


def test_measure_level_counting(dyadic_measure):
    assert qspace.measure_of(dyadic_measure, Interval.open_closed("1/4", 1)) == 2
    assert qspace.measure_of(dyadic_measure, Interval.open_closed("1/2", 1)) == 1
    assert qspace.measure_of(dyadic_measure, Interval.point("1/2")) == 1
    assert qspace.measure_of(dyadic_measure, Interval.point("3/4")) == 0


def test_measure_matches_enumeration_oracle():
    mu = qspace.atomic_measure("2/3", [("1", "1/2"), ("7/9", "3")], zero_mass="1/5")
    cases = [
        Interval.open_closed("1/4", "5/2"),
        Interval(Fraction(1, 10), Fraction(7, 9), True, False),
        Interval.point("14/27"),
        Interval(Fraction(0), Fraction(0), True, True),
        Interval(Fraction(2), Fraction(9), False, False),
    ]
    for interval in cases:
        assert qspace.measure_of(mu, interval) == orbit_weight_sum(mu, interval)


def test_orbit_exponents_match_enumeration():
    # the exponents themselves, not only their count: both ends open and
    # closed, on and off the orbit, and an interval the orbit misses
    for q, x in ((Fraction(1, 2), Fraction(1)), (Fraction(2, 3), Fraction(7, 9)),
                 (Fraction(3, 7), Fraction(1, 2))):
        for lo, hi in ((q ** 5 * x, q ** -4 * x), (Fraction(1, 10), Fraction(5, 2)),
                       (x, x), (q * x * Fraction(101, 100), x * Fraction(99, 100))):
            for lower_closed in (False, True):
                for upper_closed in (False, True):
                    interval = Interval(lo, hi, lower_closed, upper_closed)
                    if interval.is_empty:
                        continue
                    want = [k for k in range(-40, 41) if interval.contains(q ** k * x)]
                    assert list(qspace.orbit_exponents(q, x, interval)) == want, interval


@pytest.mark.parametrize("e", [14, 15, 20])
def test_ratios_next_to_one_keep_their_logarithm(e):
    # log(num) - log(den) cancels to nothing near q = 1; log1p does not
    q = Fraction(10 ** e - 1, 10 ** e)
    assert qspace._flog(q) < 0
    X = qspace.make_spectral_set(q, ["1"])
    for k in range(-40, 41):
        assert qspace.contains(X, q ** k)
        level, num, den = qspace.ladder(q, q ** k)
        assert (level, num) == (k, den)
        assert not qspace.contains(X, q ** k * (1 + q) / 2)
    mu = qspace.uniform_measure(q, ["1"])
    ends = Interval.open_closed(q ** 5, q ** -5)
    assert qspace.orbit_exponents(q, Fraction(1), ends) == range(-5, 5)
    assert qspace.measure_of(mu, ends) == 10
    assert qspace.measure_of(mu, Interval(q ** 5, q ** -5, True, False)) == 10


def test_orbit_edge_walks_down_from_a_guess_above_the_answer(monkeypatch):
    # with the cancelling difference of logarithms, the guess for the upper
    # end of (q^5, q^-5] is level -4 where the answer is -5
    q = Fraction(10 ** 14 - 1, 10 ** 14)
    monkeypatch.setattr(qspace, "_flog", lambda x: math.log(x.numerator) - math.log(x.denominator))
    upper = q ** -5
    assert round(qspace._flog(upper) / qspace._flog(q)) == -4
    ends = Interval.open_closed(q ** 5, upper)
    assert qspace.orbit_exponents(q, Fraction(1), ends) == range(-5, 5)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 99), dr=st.integers(1, 99),
       a=st.integers(1, 10 ** 6), b=st.integers(1, 10 ** 6))
def test_ladder_places_t_on_its_level(p, dr, a, b):
    # t == q**k * num / den exactly with num / den in (q, 1], also when the
    # logarithmic guess is off by three levels either way
    q, t = Fraction(p, p + dr), Fraction(a, b)
    flog = qspace._flog
    for delta in (0, -3, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qspace, "_flog",
                       lambda x: flog(x) if x == q else flog(x) + delta * flog(q))
            k, num, den = qspace.ladder(q, t)
        assert t == q ** k * Fraction(num, den)
        assert q < Fraction(num, den) <= 1


def test_level_run_leaves_an_unbounded_side_open():
    # no upper end: every level from start down; lower end 0: every level from start up
    levels = range(-40, 41)
    for q, x in ((Fraction(1, 2), Fraction(1)), (Fraction(2, 3), Fraction(7, 9)),
                 (Fraction(3, 7), Fraction(1, 2))):
        for end in (q ** 5 * x, q ** -4 * x, Fraction(1, 10), Fraction(5, 2)):
            for closed in (False, True):
                above = Interval(end, None, closed, False)
                start, stop = qspace.level_run(q, x, above)
                assert start is None
                assert [k for k in levels if above.contains(q ** k * x)] == \
                    [k for k in levels if k < stop], above
                below = Interval(Fraction(0), end, closed, closed)
                start, stop = qspace.level_run(q, x, below)
                assert stop is None
                assert [k for k in levels if below.contains(q ** k * x)] == \
                    [k for k in levels if k >= start], below
        assert qspace.level_run(q, x, Interval.point(0)) == (0, 0)


NEXT_TO_ONE = "q = Fraction(10 ** 14 - 1, 10 ** 14)\n"


@pytest.mark.parametrize("call", [
    "qspace.contains(qspace.make_spectral_set(q, ['1']), Fraction(1, 2))",
    "qspace.measure_of(qspace.uniform_measure(q, ['1']), Interval.open_closed(Fraction(1, 4), Fraction(1, 2)))",
], ids=["contains", "measure_of"])
def test_far_levels_of_a_ratio_next_to_one_are_refused(call):
    # t = 1/2 sits near level 7e13 of q = 1 - 1e-14: refused before q**k is
    # formed; run apart so that a search that never returns fails the test
    script = ("from fractions import Fraction\n"
              "from qcplane import qspace\n"
              "from qcplane.errors import DomainError\n"
              "from qcplane.qspace import Interval\n" + NEXT_TO_ONE +
              f"try:\n    {call}\nexcept DomainError as exc:\n    print('refused:', exc)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("refused:"), done.stdout


def test_measure_infinite_cases(dyadic_measure):
    assert qspace.measure_of(dyadic_measure, Interval(Fraction(0), Fraction(1), False, True)) == float("inf")
    assert qspace.measure_of(dyadic_measure, Interval(Fraction(1), None, False, False)) == float("inf")
    # {0} alone carries only the zero mass
    assert qspace.measure_of(dyadic_measure, Interval.point(0)) == 0
    mu0 = qspace.uniform_measure("1/2", ["1"], zero_mass="1/3")
    assert qspace.measure_of(mu0, Interval.point(0)) == Fraction(1, 3)


def test_empty_interval_measure(dyadic_measure):
    empty = Interval(Fraction(1), Fraction(1), False, False)
    assert empty.is_empty
    assert qspace.measure_of(dyadic_measure, empty) == 0


def test_invariance_fixed_intervals(dyadic_measure):
    for interval in [Interval.open_closed("1/4", 1), Interval.open_closed("1/3", "7/2"),
                     Interval.point("1/8"), Interval(Fraction(1, 7), Fraction(6), True, False)]:
        assert qspace.verify_q_invariance(dyadic_measure, interval)


def test_invariance_endpoint_fixture():
    mu = qspace.mu0_from_nu("3/4", [("3/4", "2"), ("1", "1/2"), ("7/8", "1")])
    for interval in [Interval.open_closed("3/4", 1), Interval.open_closed("9/16", "3/4"),
                     Interval.point("7/8"), Interval.point("21/32")]:
        assert qspace.verify_q_invariance(mu, interval)


def test_invariance_rejects_sets_through_zero(dyadic_measure):
    with pytest.raises(DomainError):
        qspace.verify_q_invariance(dyadic_measure, Interval(Fraction(0), Fraction(1), True, True))


@st.composite
def rational_intervals(draw):
    lo = draw(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(64), max_denominator=64))
    span = draw(st.fractions(min_value=0, max_value=Fraction(8), max_denominator=32))
    lc = draw(st.booleans())
    uc = draw(st.booleans())
    return Interval(lo, lo + span, lc, uc)


@settings(max_examples=60, deadline=None)
@given(rational_intervals())
def test_invariance_random_intervals(interval):
    mu = qspace.atomic_measure("2/3", [("1", "1"), ("5/6", "1/2")], zero_mass="1/4")
    assert qspace.verify_q_invariance(mu, interval)


def test_support_of_measure():
    mu = qspace.atomic_measure("1/2", [("1", "2"), ("3/4", "1")])
    X = mu.support()
    assert X.generators == (Fraction(3, 4), Fraction(1))
    assert X.includes_zero
    trivial = qspace.uniform_measure("1/2", [], zero_mass="1")
    assert trivial.support().is_zero_only


def test_duplicate_atom_positions_model_multiplicity():
    mu = qspace.atomic_measure("1/2", [("1", "1"), ("1", "1")])
    assert qspace.measure_of(mu, Interval.point(1)) == 2


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(Fraction(-1), Fraction(1))
    with pytest.raises(DomainError):
        Interval(Fraction(2), Fraction(1))
    with pytest.raises(DomainError):
        Interval(Fraction(1), None, False, True)


def test_interval_scaling():
    iv = Interval.open_closed("1/2", 1)
    half = iv.scaled(Fraction(1, 2))
    assert half.contains(Fraction(1, 2))
    assert not half.contains(Fraction(1, 4))
    assert not half.contains(Fraction(3, 4))


def test_weights_must_be_positive():
    with pytest.raises(DomainError):
        qspace.atomic_measure("1/2", [("1", "0")])
    with pytest.raises(DomainError):
        qspace.atomic_measure("1/2", [("1", "-1")])
