import ast
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qcplane import algebra, bott, qspace, ratfunc
from qcplane.algebra import (Classification, ClosureCoefficient,
                             IndicatorCoefficient, RationalCoefficient,
                             classify, element_residual, grid_sample_points,
                             parse_element, parse_element_term,
                             parse_rational_expression)
from qcplane.errors import DomainError, EvaluationError
from qcplane.qspace import Interval
from qcplane.ratfunc import RationalFunction
from qcplane.scalars import RationalComplex, exact_magnitude

HALF = Fraction(1, 2)
T = RationalFunction.variable()


def test_alpha_scales_argument():
    f = RationalCoefficient(T)
    g = algebra.cf_alpha(f, 1, HALF)
    # f(q t) with f the identity is t/2
    assert g.eval_exact(Fraction(3)) == Fraction(3, 2)
    assert algebra.cf_alpha(f, 2, HALF).eval_exact(Fraction(4)) == Fraction(1)


def test_alpha_roundtrip_exact():
    f = RationalCoefficient(parse_rational_expression("(1+t)/(1+2*t^2)"))
    back = algebra.cf_alpha(algebra.cf_alpha(f, 3, HALF), -3, HALF)
    for p in helpers.sample_fractions():
        assert back.eval_exact(p) == f.eval_exact(p)


def test_alpha_on_indicator_rescales_interval():
    ind = IndicatorCoefficient(Interval.open_closed(HALF, 1))
    shifted = algebra.cf_alpha(ind, 1, HALF)
    # chi_{(1/2,1]}(t/2) = chi_{(1,2]}(t)
    assert shifted.eval_exact(Fraction(2)) == 1
    assert shifted.eval_exact(Fraction(1)) == 0
    assert shifted.eval_exact(Fraction(3)) == 0


def test_multiply_single_modes_twist():
    a = algebra.element(HALF, {1: RationalCoefficient(T)})
    b = algebra.element(HALF, {2: RationalCoefficient(T * T)})
    ab = algebra.multiply(a, b)
    assert ab.modes == (3,)
    # coefficient is t * (q t)^2
    for p in helpers.sample_fractions():
        assert ab.coefficient(3).eval_exact(p) == p * (HALF * p) ** 2


def test_multiply_zero_annihilates():
    a = helpers.random_element(random.Random(3), HALF)
    z = algebra.zero_element(HALF)
    assert algebra.multiply(a, z).is_zero
    assert algebra.multiply(z, a).is_zero


def test_adjoint_single_mode():
    a = algebra.element(HALF, {1: RationalCoefficient(T)})
    astar = algebra.adjoint(a)
    assert astar.modes == (-1,)
    # (t U)* = alpha^{-1}(t) U^{-1} = 2t U^{-1}
    assert astar.coefficient(-1).eval_exact(Fraction(3)) == Fraction(6)


def test_double_adjoint_identity():
    rng = random.Random(11)
    pts = helpers.sample_fractions()
    for _ in range(10):
        a = helpers.random_element(rng, HALF)
        assert element_residual(algebra.adjoint(algebra.adjoint(a)), a, pts) == 0


def test_involution_reverses_products():
    rng = random.Random(12)
    pts = helpers.sample_fractions()
    for _ in range(10):
        a = helpers.random_element(rng, HALF, max_modes=3)
        b = helpers.random_element(rng, HALF, max_modes=3)
        lhs = algebra.adjoint(algebra.multiply(a, b))
        rhs = algebra.multiply(algebra.adjoint(b), algebra.adjoint(a))
        assert element_residual(lhs, rhs, pts) == 0


def test_residual_matches_pointwise_evaluation():
    # unequal pairs that share some modes exactly: the shared modes are
    # decided as polynomials, the others still sampled point by point
    rng = random.Random(13)
    pts = helpers.sample_fractions()
    for trial in range(20):
        a = helpers.random_element(rng, HALF, max_modes=4)
        b = helpers.random_element(rng, HALF, max_modes=3)
        if trial % 2:
            b = algebra.add(a, b)
        expected = Fraction(0)
        for k in set(a.modes) | set(b.modes):
            for p in pts:
                gap = a.coefficient(k).eval_exact(p) - b.coefficient(k).eval_exact(p)
                expected = max(expected, gap.magnitude())
        assert expected > 0
        assert element_residual(a, b, pts) == expected
        assert element_residual(b, a, pts) == expected


def test_adjoint_antilinear():
    a = helpers.random_element(random.Random(5), HALF)
    i = RationalComplex(Fraction(0), Fraction(1))
    lhs = algebra.adjoint(algebra.scale(a, i))
    rhs = algebra.scale(algebra.adjoint(a), -i)
    assert element_residual(lhs, rhs, helpers.sample_fractions()) == 0


def test_add_and_scale_pointwise():
    a = parse_element("1/2", ["t@0", "1@1"])
    b = parse_element("1/2", ["t^2@0"])
    s = algebra.add(algebra.scale(a, Fraction(3)), b)
    assert s.coefficient(0).eval_exact(Fraction(2)) == Fraction(10)
    assert s.coefficient(1).eval_exact(Fraction(7)) == Fraction(3)


def test_associativity_random_triples():
    rng = random.Random(21)
    pts = helpers.sample_fractions()
    for _ in range(8):
        a = helpers.random_element(rng, HALF, max_modes=3)
        b = helpers.random_element(rng, HALF, max_modes=3)
        c = helpers.random_element(rng, HALF, max_modes=3)
        lhs = algebra.multiply(algebra.multiply(a, b), c)
        rhs = algebra.multiply(a, algebra.multiply(b, c))
        assert element_residual(lhs, rhs, pts) == 0


def test_product_mode_support():
    a = parse_element("1/2", ["t@1", "t@2"])
    b = parse_element("1/2", ["t@-1", "t@3"])
    ab = algebra.multiply(a, b)
    allowed = {n + m for n in a.modes for m in b.modes}
    assert set(ab.modes) <= allowed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_associativity_hypothesis_seeded(seed):
    rng = random.Random(seed)
    pts = [Fraction(0), Fraction(1, 2), Fraction(2)]
    a = helpers.random_element(rng, HALF, max_modes=2)
    b = helpers.random_element(rng, HALF, max_modes=2)
    c = helpers.random_element(rng, HALF, max_modes=2)
    lhs = algebra.multiply(algebra.multiply(a, b), c)
    rhs = algebra.multiply(a, algebra.multiply(b, c))
    assert element_residual(lhs, rhs, pts) == 0


def test_classify_vanishing_and_full():
    diag = parse_element("1/2", ["1@0"])
    assert classify(diag) is Classification.VANISHING

    van = parse_element("1/2", ["t@1", "t^2@-2", "1@0"])
    assert classify(van) is Classification.VANISHING

    full = algebra.element(HALF, {1: ClosureCoefficient(lambda t: math.exp(-t), 1.0, True)})
    assert classify(full) is Classification.FULL

    # an indicator mode is decided by whether its interval holds 0
    away = IndicatorCoefficient(Interval.open_closed(HALF, 1))
    at_zero = IndicatorCoefficient(Interval(Fraction(0), Fraction(1), True, True))
    assert (away.value_at_zero, at_zero.value_at_zero) == (0, 1)
    assert classify(algebra.element(HALF, {1: away})) is Classification.VANISHING
    assert classify(algebra.element(HALF, {-1: at_zero})) is Classification.FULL


def test_vanishing_closed_under_products():
    rng = random.Random(31)
    for _ in range(10):
        a = helpers.random_element(rng, HALF, vanishing=True)
        b = helpers.random_element(rng, HALF, vanishing=True)
        assert classify(a) is Classification.VANISHING
        assert classify(algebra.multiply(a, b)) is Classification.VANISHING


def test_unit_element_is_neutral():
    # the unit of the unitization is the constant element 1@0
    one = parse_element("1/2", ["1@0"])
    x = parse_element("1/2", ["t@1", "t^2/(1+t^2)@0", "2@0", "(1+t)/(2+t^2)@-2"])
    pts = helpers.sample_fractions()
    assert algebra.element_residual(algebra.multiply(one, x), x, pts) == 0
    assert algebra.element_residual(algebra.multiply(x, one), x, pts) == 0


def test_unitized_adjoint_conjugates_scalar():
    i = RationalComplex(Fraction(0), Fraction(1))
    x = algebra.element(HALF, {0: RationalCoefficient(RationalFunction.constant(i))})
    adj = algebra.adjoint(x)
    assert adj.modes == (0,)
    assert adj.coefficient(0).rf.equals(RationalFunction.constant(-i))


def test_classical_eval_single_mode():
    a = parse_element("1/1", ["t^2@0"])
    assert algebra.classical_eval(a, 3.0, 0.7) == pytest.approx(9.0)


def test_classical_eval_multiplicative_at_q1():
    a = parse_element("1/1", ["t@1", "1@0"])
    b = parse_element("1/1", ["t@-1"])
    ab = algebra.multiply(a, b)
    for r in (0.5, 1.0, 2.5):
        for th in (0.0, 1.1, 2.9):
            lhs = algebra.classical_eval(ab, r, th)
            rhs = algebra.classical_eval(a, r, th) * algebra.classical_eval(b, r, th)
            assert abs(lhs - rhs) < 1e-13


def test_classical_eval_theta_independent_at_origin():
    a = parse_element("1/1", ["(1+t)/(1+t^2)@0"])
    vals = {algebra.classical_eval(a, 0.0, th) for th in (0.0, 0.5, 1.0, 3.0)}
    assert vals == {1.0 + 0j}


def test_q1_commutators_vanish_exactly():
    rng = random.Random(41)
    pts = helpers.sample_fractions()
    for _ in range(10):
        a = helpers.random_element(rng, Fraction(1), max_modes=3)
        b = helpers.random_element(rng, Fraction(1), max_modes=3)
        comm = element_residual(algebra.multiply(a, b), algebra.multiply(b, a), pts)
        assert comm == 0


def test_grid_sample_points():
    X = qspace.make_spectral_set("1/2", ["1"])
    pts = grid_sample_points(X, -2, 2)
    assert pts == (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                   Fraction(2), Fraction(4))


def test_parser_precedence_and_power():
    f = parse_rational_expression("1+2*t^2")
    assert f.evaluate(Fraction(2)) == 9
    g = parse_rational_expression("(1+2)*t^2")
    assert g.evaluate(Fraction(2)) == 12
    h = parse_rational_expression("t^2/(1+4*t^2)")
    assert h.evaluate(Fraction(1, 2)) == Fraction(1, 8)
    neg = parse_rational_expression("-t+3")
    assert neg.evaluate(Fraction(1)) == 2
    inv = parse_rational_expression("(1+t)^-1")
    assert inv.evaluate(Fraction(1)) == Fraction(1, 2)
    for text, at_3 in (("+t", 3), (" t ^ 2 ", 9), ("\n t", 3), ("007", 7),
                       ("t^--2", 9), ("-2^2", -4), ("2*-t", -6)):
        assert parse_rational_expression(text).evaluate(Fraction(3)) == at_3, text


def test_parser_rejects_garbage():
    for bad in ("x", "t@", "1+", "(t", "t^t", "2**3", "tt", "t@t", "0x10", "1_0",
                "1j", "t^2.5", "t^2^3", "True", "", "t # c"):
        with pytest.raises(DomainError):
            parse_rational_expression(bad)


def test_parser_rejects_deep_nesting():
    with pytest.raises(DomainError):
        parse_rational_expression("(" * 300 + "t" + ")" * 300)


def test_parse_element_terms():
    a = parse_element("1/2", ["t@1", "t@1", "1/(1+t^2)@0"])
    # repeated modes accumulate
    assert a.coefficient(1).eval_exact(Fraction(3)) == 6
    assert a.coefficient(0).eval_exact(Fraction(1)) == Fraction(1, 2)
    with pytest.raises(DomainError):
        parse_element("1/2", ["t"])
    with pytest.raises(DomainError):
        parse_element("1/2", ["t@one"])


def test_division_by_zero_function_rejected():
    with pytest.raises(DomainError):
        parse_rational_expression("1/(t-t)")


def test_denominator_vanishing_on_half_line_rejected():
    # 1/(1-t) blows up at t=1, caught by the constructor's exact root test
    with pytest.raises(EvaluationError):
        parse_element("1/2", ["1/(1-t)@0"])


def test_vanishes_at_infinity_flags():
    lor = parse_element("1/2", ["1/(1+t^2)@0"]).coefficient(0)
    assert lor.vanishes_at_infinity
    assert lor.limit_at_infinity() == 0
    poly = parse_element("1/2", ["t^2@0"]).coefficient(0)
    assert not poly.vanishes_at_infinity
    with pytest.raises(DomainError, match="unbounded"):
        poly.limit_at_infinity()
    ind = IndicatorCoefficient(Interval.open_closed(HALF, 1))
    assert ind.vanishes_at_infinity


def test_mismatched_ratios_rejected():
    a = parse_element("1/2", ["t@0"])
    b = parse_element("1/3", ["t@0"])
    with pytest.raises(DomainError):
        algebra.multiply(a, b)
    with pytest.raises(DomainError):
        algebra.add(a, b)
    with pytest.raises(DomainError):
        algebra.element_residual(a, b, [Fraction(1)])


def test_indicator_float_call_at_deep_levels_and_endpoints():
    deep = IndicatorCoefficient(Interval.open_closed(Fraction(1, 7) ** 30, 1))
    point = Fraction(1, 7) ** 20
    assert deep(float(point)) == 1
    assert deep.eval_exact(point) == 1
    sevenths = IndicatorCoefficient(Interval.open_closed(Fraction(1, 7), 1))
    assert sevenths(float(Fraction(1, 7))) == 0
    assert sevenths(1.0) == 1
    # 1/5 and 4/5 round up as floats: each float stands for its endpoint
    fifths = IndicatorCoefficient(Interval.open_closed(Fraction(1, 5), Fraction(4, 5)))
    assert fifths(float(Fraction(1, 5))) == 0
    assert fifths(float(Fraction(4, 5))) == 1
    assert fifths(0.5) == 1


def test_grid_sample_points_match_the_pointwise_formula():
    for q, gens in (("1/2", ["1"]), ("3/7", ["1", "2/3"]), ("9/10", ["19/20", "1"])):
        X = qspace.make_spectral_set(q, gens)
        for lo, hi in ((-12, 12), (0, 0), (3, 2), (-30, 5), (4, 9)):
            want = sorted({X.q ** n * x for n in range(lo, hi + 1) for x in X.generators})
            assert grid_sample_points(X, lo, hi) == (Fraction(0), *want)


# The parser as it was before it computed on (num, den) pairs: one
# RationalFunction per node, built by the class's own operators.
_PER_NODE_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub,
                        ast.Mult: operator.mul, ast.Div: operator.truediv}
_PER_NODE_SIGNS = {ast.UAdd: lambda x: x, ast.USub: operator.neg}


def _per_node_exponent(node: ast.AST) -> int:
    if isinstance(node, ast.UnaryOp) and type(node.op) in _PER_NODE_SIGNS:
        return _PER_NODE_SIGNS[type(node.op)](_per_node_exponent(node.operand))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    raise DomainError("exponent must be an integer")


def _per_node(node: ast.AST) -> RationalFunction:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _per_node(node.left) ** _per_node_exponent(node.right)
    if isinstance(node, ast.BinOp) and type(node.op) in _PER_NODE_ARITHMETIC:
        return _PER_NODE_ARITHMETIC[type(node.op)](_per_node(node.left), _per_node(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _PER_NODE_SIGNS:
        return _PER_NODE_SIGNS[type(node.op)](_per_node(node.operand))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return RationalFunction.constant(node.value)
    if isinstance(node, ast.Name) and node.id == "t":
        return RationalFunction.variable()
    raise DomainError("malformed expression")


def _per_node_parse(text: str):
    """The per-node value of text, or the (type, message) of the error it raises."""
    source = algebra._LEADING_ZEROS.sub("", " ".join(text.split())).replace("^", "**")
    try:
        return _per_node(ast.parse(source, mode="eval").body)
    except SyntaxError as exc:
        return DomainError, f"malformed expression: {exc.msg}"
    except (RecursionError, MemoryError):
        return DomainError, "expression nests too deeply"
    except DomainError as exc:
        return DomainError, str(exc)


def _random_literal(rng: random.Random, depth: int) -> str:
    pick = rng.random()
    if depth == 0 or pick < 0.25:
        return rng.choice(["t", "0", "1", "2", "3", "10", "007", "t", "t"])
    if pick < 0.35:
        return f"-{_random_literal(rng, depth - 1)}"
    if pick < 0.5:
        k = rng.choice([-3, -2, -1, 0, 1, 2, 3])
        return f"({_random_literal(rng, depth - 1)})^{k}"
    op = rng.choice(["+", "-", "*", "/", "/"])
    return f"({_random_literal(rng, depth - 1)}){op}({_random_literal(rng, depth - 1)})"


def test_parser_matches_the_per_node_evaluator():
    rng = random.Random(5)
    bound = ratfunc.MAX_POWER_DEGREE
    texts = [_random_literal(rng, rng.randint(1, 5)) for _ in range(400)]
    texts += ["1/0", "t/(t-t)", "(t-t)^-2", "0^-1", "(0)^0", "t^-0", "-t^--2",
              "(" * 300 + "t" + ")" * 300, "-" * 5000 + "t", "t" + "*t" * 3000, "(" * 40 + "1+t" + ")" * 40 + "^-3",
              f"t^{bound}", f"t^{bound + 1}", f"(1+t)^-{bound}", f"(1/(1+t))^-{bound + 1}",
              "(1/(2+2*t)+1/(1+t))^600", "2^32768", "2^32769", "(t/2)^-32768",
              # polynomial sub-expressions, and divisions by a constant
              "0*t/(1+t)", "(7/14)*t", "1/(2/(3*t))", "(2*t)/2", "t/(0*t+3)", "(t-t)/(1+t)",
              "-(6/4)*t^2/(3+t)", "(t^2+1)/(t+1)+t", "((1+t)^2-1)/t", "3/(2-2)", "(4/6)^-2",
              # constant arithmetic, and t^k as a monomial up to the degree bound
              "t^0", "t^1000", "t^1001", "(t)^2", "t^(+2)", "t^-2", "0^0", "(2/4)*t^2",
              "-(3/6)*t", "2^-1*t", "(0/5)*t", "1/(2/3)", "3/(4-4)", "-2^2*t"]
    outcomes = set()
    for text in texts:
        want = _per_node_parse(text)
        if isinstance(want, RationalFunction):
            got = parse_rational_expression(text)
            assert got._pair == want._pair, text
            outcomes.add("value")
        else:
            with pytest.raises(want[0]) as exc:
                parse_rational_expression(text)
            assert str(exc.value) == want[1], text
            outcomes.add(want[1].split()[0])
    assert outcomes >= {"value", "division", "negative", "power", "expression", "malformed"}


def test_grid_sample_points_equal_the_sorted_set_of_grid_values():
    cases = [qspace.make_spectral_set("1/2", ["1"]), qspace.make_spectral_set("3/7", ["2/3", "1"]),
             SimpleNamespace(q=Fraction(1), generators=(Fraction(1, 3), Fraction(1)),
                             includes_zero=True),
             SimpleNamespace(q=Fraction(1), generators=(Fraction(3, 4),), includes_zero=False)]
    for X in cases:
        for lo, hi in ((-25, 25), (0, 0), (2, 1), (-3, 8)):
            want = sorted(set(X.q ** n * x for n in range(lo, hi + 1) for x in X.generators))
            if X.includes_zero:
                want.insert(0, Fraction(0))
            got = grid_sample_points(X, lo, hi)
            assert got == tuple(want) and all(type(v) is Fraction for v in got)


def _leaf_elements():
    """Elements whose mode-1 coefficient is an indicator or a closure."""
    ind = IndicatorCoefficient(Interval.open_closed(HALF, 1))
    clo = ClosureCoefficient(lambda t: math.exp(-t), 1.0, True)
    return [algebra.element(HALF, {1: f}) for f in (ind, clo)]


def test_arithmetic_with_a_leaf_coefficient_raises_domain_error():
    rat = parse_element("1/2", ["t@1", "1@0"])
    for leaf in _leaf_elements():
        for build in (lambda: algebra.multiply(leaf, rat), lambda: algebra.multiply(rat, leaf),
                      lambda: algebra.multiply(leaf, leaf), lambda: algebra.add(leaf, rat),
                      lambda: algebra.add(rat, leaf), lambda: algebra.add(leaf, leaf),
                      lambda: algebra.scale(leaf, 2), lambda: algebra.scale(leaf, Fraction(-1, 3)),
                      lambda: algebra.scale(leaf, RationalComplex(HALF, HALF))):
            with pytest.raises(DomainError):
                build()


def test_scale_by_a_float_raises_type_error():
    a = parse_element("1/2", ["t@1", "(1+t)/(2+t^2)@0"])
    zero = algebra.zero_element(HALF)
    for x, s in ((a, 0.5), (a, 1.0), (a, -2.0), (a, 0.0), (a, -0.0), (zero, 2.5), (zero, 0.0)):
        with pytest.raises(TypeError):
            algebra.scale(x, s)
    for s in (0, Fraction(0), RationalComplex()):
        assert algebra.scale(a, s).is_zero


def test_adjoint_of_an_indicator_element_stays_an_exact_indicator():
    a = _leaf_elements()[0]
    astar = algebra.adjoint(a)
    assert astar.modes == (-1,)
    # (chi_M U)* = alpha^-1(chi_M) U^-1 = chi_{qM} U^-1
    coeff = astar.coefficient(-1)
    assert isinstance(coeff, IndicatorCoefficient)
    assert coeff.interval == Interval.open_closed(Fraction(1, 4), HALF)
    back = algebra.adjoint(astar).coefficient(1)
    assert isinstance(back, IndicatorCoefficient)
    assert back.interval == a.coefficient(1).interval


def test_element_residual_is_a_fraction_for_indicators_and_refuses_closures():
    ind, clo = _leaf_elements()
    pts = helpers.sample_fractions()
    zero = algebra.zero_element(HALF)
    rat = algebra.element(HALF, {1: RationalCoefficient(T)})
    for a, b, want in ((ind, ind, 0), (algebra.adjoint(algebra.adjoint(ind)), ind, 0),
                       (ind, zero, 1), (zero, ind, 1), (ind, rat, 4)):
        got = element_residual(a, b, pts)
        assert type(got) is Fraction and got == want
    for a, b in ((clo, zero), (zero, clo), (clo, clo), (clo, ind)):
        with pytest.raises(EvaluationError):
            element_residual(a, b, pts)


def _pointwise_residual(a, b, points) -> Fraction:
    """element_residual by the per-point formula: each coefficient evaluated at
    each point, a real value as a Fraction, and the largest exact_magnitude of
    the differences.  Equal coefficients are evaluated too; they differ by 0."""
    def value(f, p):
        v = f.evaluate(p) if isinstance(f, RationalCoefficient) else f.eval_exact(p)
        return v if v.im else v.re
    worst = Fraction(0)
    for k in sorted(set(a.modes) | set(b.modes)):
        fa, fb = a.coefficient(k), b.coefficient(k)
        worst = max([worst, *(exact_magnitude(value(fa, p) - value(fb, p)) for p in points)])
    return worst


def test_element_residual_matches_the_pointwise_formula():
    rng = random.Random(97)
    ind = IndicatorCoefficient(Interval.open_closed(Fraction(1, 3), 2))
    for trial in range(40):
        q = rng.choice([HALF, Fraction(3, 7), Fraction(2, 3)])
        points = (helpers.sample_fractions() if trial % 2 else
                  algebra.grid_sample_points(qspace.SpectralSet(q, (Fraction(1), Fraction(5, 6))),
                                             -4, 4))
        real = trial % 3 == 0
        a = helpers.random_element(rng, q, complex_coeffs=not real)
        b = helpers.random_element(rng, q, complex_coeffs=not real)
        # an indicator coefficient in one mode of an otherwise rational element
        with_ind = algebra.element(q, {**dict(a.terms), 2: ind})
        pairs = [(a, b), (b, a), (a, a), (algebra.multiply(a, b), algebra.multiply(b, a)),
                 (algebra.add(a, b), a), (with_ind, a), (with_ind, with_ind),
                 (with_ind, algebra.zero_element(q))]
        for x, y in pairs:
            got = element_residual(x, y, points)
            assert type(got) is Fraction
            assert got == _pointwise_residual(x, y, points)
    # 2P against its square and its adjoint, as the perturbed Bott check measures it
    points = [Fraction(0)] + [Fraction(2) ** k for k in range(-12, 13)]
    for n, sign in ((1, 1), (1, -1), (2, 1), (3, -1)):
        A = bott.m2_scale(bott.bott_projection(n, sign, HALF).entries, 2)
        residues = [element_residual(x, a, points) for R in (bott.m2_mul(A, A), bott.m2_adjoint(A))
                    for row, row_a in zip(R, A) for x, a in zip(row, row_a)]
        assert residues == [_pointwise_residual(x, a, points)
                            for R in (bott.m2_mul(A, A), bott.m2_adjoint(A))
                            for row, row_a in zip(R, A) for x, a in zip(row, row_a)]
        assert max(residues) > 0
    clo = ClosureCoefficient(lambda t: math.exp(-t), 1.0, True)
    for x in (algebra.element(HALF, {0: clo}), algebra.element(HALF, {1: clo, 0: ind})):
        with pytest.raises(EvaluationError):
            element_residual(x, algebra.zero_element(HALF), helpers.sample_fractions())


def _old_cf_alpha(f, n: int, q: Fraction):
    """The former scaling action: one q**n, then substitute_scale or a scaled interval."""
    qn = q ** n
    if qn == 1:
        return f
    if isinstance(f, IndicatorCoefficient):
        return IndicatorCoefficient(f.interval.scaled(1 / qn))
    return RationalCoefficient(f.rf.substitute_scale(qn))


def test_cf_alpha_from_integer_powers_matches_the_fraction_power():
    rng = random.Random(23)
    lits = ["t", "1/(1+t^2)", "(3+t)/(2+t)^2", "t^3/(7+5*t^4)", "(1+2*t-t^2)/(4+t^6)", "5/3"]
    coeffs = [parse_element_term(f"{lit}@0")[1] for lit in lits]
    ind = IndicatorCoefficient(Interval.open_closed(Fraction(1, 3), 2))
    for q in (HALF, Fraction(3, 7), Fraction(9, 10), Fraction(1), Fraction(1, 1000)):
        for n in (-5, -2, -1, 0, 1, 2, 5, rng.randint(-9, 9)):
            for f in coeffs:
                got, want = algebra.cf_alpha(f, n, q), _old_cf_alpha(f, n, q)
                assert got.rf._pair == want.rf._pair
                if n == 0 or q == 1:
                    assert got is f
            got = algebra.cf_alpha(ind, n, q)
            assert got.interval == _old_cf_alpha(ind, n, q).interval
            assert got is ind if n == 0 or q == 1 else isinstance(got, IndicatorCoefficient)


def _assert_assembled(x: algebra.AlgebraElement, *operands: algebra.AlgebraElement) -> None:
    assert any(x.q is y.q for y in operands) and type(x.q) is Fraction
    modes = [k for k, _ in x.terms]
    assert modes == sorted(set(modes)) and all(type(k) is int for k in modes)
    assert not any(algebra._is_syntactic_zero(f) for _, f in x.terms)


def test_operations_assemble_sorted_distinct_nonzero_modes_over_the_operand_ratio():
    q = Fraction(3, 7)
    a = parse_element(q, ["t@2", "1/(1+t^2)@0", "3*t^2@-1"])
    b = parse_element(q, ["-t@2", "t@-3", "(1+t)/(2+t)@1"])
    for x in (algebra.multiply(a, b), algebra.multiply(b, a), algebra.add(a, b),
              algebra.add(b, a), algebra.adjoint(a), algebra.adjoint(b), algebra.scale(a, -2),
              algebra.scale(b, RationalComplex(HALF, HALF)), a - a, a + b - b, a * (b - b)):
        _assert_assembled(x, a, b)
    assert algebra.add(a, b).modes == (-3, -1, 0, 1)       # t@2 and -t@2 cancel
    assert (a - a).is_zero and (a * (b - b)).is_zero
    assert algebra.adjoint(a).modes == (-2, 0, 1)
    # the public constructors keep every check
    for bad in (lambda: algebra.AlgebraElement(2, ()),
                lambda: algebra.AlgebraElement(q, ((1, a.coefficient(2)), (1, a.coefficient(0)))),
                lambda: algebra.element(0, {})):
        with pytest.raises(DomainError):
            bad()
    assert algebra.AlgebraElement(q, ((2, a.coefficient(2)), (0, a.coefficient(0)))).modes == (0, 2)


# The element operations as they were before they computed on (num, den)
# pairs: one wrapped coefficient per step, built by the RationalFunction
# operators, with the scaling action through a Fraction power of q.
def _old_rational(f) -> RationalFunction:
    if not isinstance(f, RationalCoefficient):
        raise DomainError(f"coefficient arithmetic is exact: {type(f).__name__} "
                          "is a leaf, not a rational coefficient")
    return f.rf


def _old_alpha(f, n: int, q: Fraction):
    if n == 0 or q == 1:
        return f
    if isinstance(f, IndicatorCoefficient):
        return IndicatorCoefficient(f.interval.scaled(1 / q ** n))
    return RationalCoefficient._from_checked(_old_rational(f).substitute_scale(q ** n))


def _old_conj(f):
    if isinstance(f, IndicatorCoefficient):
        return f
    return RationalCoefficient._from_checked(_old_rational(f).conjugate())


def _old_mul(f, g):
    return RationalCoefficient._from_checked(_old_rational(f) * _old_rational(g))


def _old_add(f, g):
    return RationalCoefficient._from_checked(_old_rational(f) + _old_rational(g))


def _old_scale_cf(f, s):
    return RationalCoefficient._from_checked(_old_rational(f) * s)


def _old_multiply(a, b):
    if a.q != b.q:
        raise DomainError("cannot multiply elements over different ratios")
    out = {}
    for n, f in a.terms:
        for m, g in b.terms:
            term = _old_mul(f, _old_alpha(g, n, a.q))
            out[n + m] = _old_add(out[n + m], term) if n + m in out else term
    return algebra._assemble(a.q, out)


def _old_adjoint(a):
    return algebra._assemble(a.q, {-k: _old_alpha(_old_conj(f), -k, a.q) for k, f in a.terms})


def _old_element_add(a, b):
    if a.q != b.q:
        raise DomainError("cannot add elements over different ratios")
    out = dict(a.terms)
    for k, g in b.terms:
        out[k] = _old_add(out[k], g) if k in out else g
    return algebra._assemble(a.q, out)


def _old_element_scale(a, s):
    if s == 0:
        return algebra.zero_element(a.q)
    return algebra._assemble(a.q, {k: _old_scale_cf(f, s) for k, f in a.terms})


def _outcome(build):
    """The element build returns, or the (type, message) of what it raises."""
    try:
        return build()
    except (DomainError, TypeError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want) -> None:
    if not isinstance(want, algebra.AlgebraElement):
        assert got == want
        return
    assert isinstance(got, algebra.AlgebraElement) and got.q == want.q
    assert got.modes == want.modes
    for (_, f), (_, g) in zip(got.terms, want.terms):
        assert type(f) is type(g)
        if isinstance(g, RationalCoefficient):
            assert f.rf._pair == g.rf._pair
        elif isinstance(g, IndicatorCoefficient):
            assert f.interval == g.interval
        else:
            assert f is g


_LEAVES = (IndicatorCoefficient(Interval.open_closed(Fraction(1, 3), 2)),
           ClosureCoefficient(lambda t: 1 / (1 + t), 1.0, True))


def _operand(rng: random.Random, q: Fraction, leaves: bool) -> algebra.AlgebraElement:
    """A random element, the zero element, or with leaves one or two leaf modes."""
    if rng.random() < 0.15:
        return algebra.zero_element(q)
    a = helpers.random_element(rng, q, max_modes=4, complex_coeffs=rng.random() < 0.5)
    if not leaves:
        return a
    coeffs = dict(a.terms)
    for k in rng.sample(range(-3, 4), rng.randint(1, 2)):
        coeffs[k] = rng.choice(_LEAVES)
    return algebra.element(q, coeffs)


def _old_multiply_naming_the_left_leaf_first(a, b):
    """_old_multiply, but a leaf is named by multiply's rule: the left operand's first, else the right's."""
    leaves = [f for x in (a, b) for _, f in x.terms if not isinstance(f, RationalCoefficient)]
    if a.terms and b.terms and leaves:
        _old_rational(leaves[0])
    return _old_multiply(a, b)


def _assert_operations_match_the_old_composition(a, b) -> None:
    scalars = (2, -1, Fraction(-1, 3), RationalComplex(HALF, Fraction(-2)), 0, Fraction(0))
    old_multiply = _old_multiply_naming_the_left_leaf_first
    cases = [(lambda: algebra.multiply(a, b), lambda: old_multiply(a, b)),
             (lambda: algebra.multiply(b, a), lambda: old_multiply(b, a)),
             (lambda: a * a, lambda: old_multiply(a, a)),
             (lambda: algebra.add(a, b), lambda: _old_element_add(a, b)),
             (lambda: a - b, lambda: _old_element_add(a, _old_element_scale(b, -1))),
             (lambda: b - a, lambda: _old_element_add(b, _old_element_scale(a, -1))),
             (lambda: -a, lambda: _old_element_scale(a, -1)),
             (lambda: algebra.adjoint(a), lambda: _old_adjoint(a)),
             (lambda: algebra.adjoint(b), lambda: _old_adjoint(b))]
    cases += [(lambda s=s: algebra.scale(a, s), lambda s=s: _old_element_scale(a, s))
              for s in scalars]
    for new, old in cases:
        _assert_same_outcome(_outcome(new), _outcome(old))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([HALF, Fraction(3, 7), Fraction(1)]),
       st.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
def test_pair_operations_match_the_per_coefficient_composition(seed, q, leaves):
    rng = random.Random(seed)
    a, b = _operand(rng, q, leaves[0]), _operand(rng, q, leaves[1])
    _assert_operations_match_the_old_composition(a, b)


def test_leaf_operands_raise_where_the_per_coefficient_composition_raises():
    ind, clo = _LEAVES
    rat = RationalCoefficient(T)
    # a product names the left operand's first leaf, else the right's, and a
    # product with the zero element raises nothing; a - b negates all of b
    # before it reads a
    pairs = [({1: ind}, {1: clo}), ({0: ind}, {1: clo}), ({1: clo}, {0: ind}),
             ({1: rat}, {1: ind}), ({1: ind}, {0: rat, 2: clo}), ({0: ind, 1: rat}, {0: rat, 2: clo}),
             ({2: clo, 1: rat}, {}), ({}, {-1: ind}), ({0: ind}, {1: rat}), ({0: rat}, {0: clo, 1: ind})]
    for q in (HALF, Fraction(1)):
        for x, y in pairs:
            _assert_operations_match_the_old_composition(algebra.element(q, x), algebra.element(q, y))
    # the old steps named the closure here: the twist of mode 1 read it first
    with pytest.raises(DomainError, match="IndicatorCoefficient"):
        algebra.multiply(algebra.element(HALF, {1: ind}), algebra.element(HALF, {1: clo}))


def test_every_coefficient_is_one_checked_rational_function(monkeypatch):
    a = parse_element("1/2", ["t@1", "(1+t)/(2+t^2)@0", "1@-1"])
    b = parse_element("1/2", ["t^2@1", "1/(1+t)@-2"])
    checks = []
    check = RationalFunction.check_denominator
    monkeypatch.setattr(RationalFunction, "check_denominator",
                        lambda self: checks.append(self) or check(self))
    results = [algebra.multiply(a, b), algebra.add(a, b), algebra.scale(a, Fraction(-2, 3)),
               algebra.scale(a, RationalComplex(HALF, HALF)), algebra.adjoint(a), -a, a - b]
    coefficients = [f for x in results for _, f in x.terms]
    coefficients += [algebra.cf_alpha(a.coefficient(0), n, HALF) for n in (-2, 1, 3)]
    assert not checks
    # parse_element checks each literal once; the sum of a repeated mode is not checked again
    repeated = parse_element("1/2", ["t@1", "1/(1+t^2)@1", "2@0"])
    assert len(checks) == 3 and repeated.modes == (0, 1)
    coefficients += [f for _, f in repeated.terms]
    for f in coefficients:
        assert type(f) is RationalCoefficient and isinstance(f, RationalFunction)
        assert f.rf is f
    f = repeated.coefficient(1)
    assert f.equals(T + 1 / (1 + T * T))
    for name in ("rf", "_pair", "_num", "label"):
        with pytest.raises(AttributeError):
            setattr(f, name, 1 / (T - 1))
    with pytest.raises(EvaluationError):
        RationalCoefficient(1 / (T - 1))
    # the constructors build plain, unchecked functions, also on the subclass
    for g in (RationalCoefficient.constant(2), RationalCoefficient.variable(),
              RationalCoefficient.monomial(3, HALF)):
        assert type(g) is RationalFunction
