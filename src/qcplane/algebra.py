"""Twisted crossed product of functions on a spectral set by the scaling action.

Elements are finite sums ``sum_k f_k U**k`` where each coefficient f_k is a
function of the radial variable t >= 0 and U implements the scaling t -> q*t.
Multiplication twists the right factor, ``(f U**n)(g U**m) = f a**n(g) U**(n+m)``
with ``a(g)(t) = g(q*t)``, and the involution is ``(f U**n)* = a**(-n)(conj f) U**(-n)``.

Elements whose nonzero modes vanish at t = 0 form the subalgebra generated by
the deformed coordinate.  Its unitization, the compactified model used for the
projection constructions, needs no second type: the unit is the constant
coefficient ``1@0``, an element like any other.

Each twist a**n(g) is one rescaling of g by q**n = p**n / r**n, read off q's
numerator and denominator once per left mode.  ``AlgebraElement`` and
``element`` validate q and the modes; the operations build their results from
valid operands and only sort the modes and drop syntactic zeros.  They compute
every output mode on ratfunc's (num, den) pairs and make one
``RationalCoefficient`` per output mode: a ``RationalFunction`` whose
denominator was checked when it was made, so results are not checked again.
Element literals are evaluated on the same pairs, node by node, with t**k for
0 <= k <= MAX_POWER_DEGREE built directly as its monomial.
"""

from __future__ import annotations

import ast
import enum
import heapq
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby, repeat
from typing import Callable, Mapping

from .errors import DomainError, EvaluationError
from .matrixops import Band, ExactDiagonal
from .qspace import Interval, SpectralSet
from .ratfunc import (_ONE, MAX_POWER_DEGREE, Pair, RationalFunction, _f_add, _f_argscale,
                      _f_conj, _f_div, _f_mul, _f_neg, _f_pow, _f_sub, _poly, _rf)
from .scalars import RationalComplex, parse_rational


class Classification(enum.Enum):
    FULL = "full"
    VANISHING = "vanishing"


class CoefficientFunction:
    """Radial coefficient.

    The algebra multiplies, adds and scales rational coefficients only.
    Indicators and closures are leaves: they are represented, classified and
    evaluated, and an indicator is rescaled and conjugated exactly.
    """

    @property
    def value_at_zero(self):
        raise NotImplementedError

    @property
    def vanishes_at_infinity(self) -> bool:
        raise NotImplementedError

    def __call__(self, t: float) -> complex:
        raise NotImplementedError

    def eval_exact(self, t: Fraction) -> RationalComplex:
        raise EvaluationError(f"{type(self).__name__} has no exact evaluation")


class RationalCoefficient(RationalFunction, CoefficientFunction):
    """A rational function whose denominator has no root on [0, inf); immutable."""

    def __init__(self, rf: RationalFunction):
        rf.check_denominator()
        self._set(rf._pair)

    @classmethod
    def _from_checked(cls, rf: RationalFunction) -> "RationalCoefficient":
        """rf as a coefficient without the denominator test.

        Only for functions built from checked coefficients by products, sums,
        conjugation, scalar multiples and rescaling t -> c t with c > 0: their
        denominators have no root on [0, inf) either.
        """
        return _coefficient(rf._pair)

    # rf is the coefficient itself, kept read-only for callers that read it;
    # evaluate is looked up at each call, so a rebound evaluate is seen
    rf = property(lambda self: self)
    value_at_zero = property(lambda self: self.evaluate(0))
    __call__ = RationalFunction.evaluate_float

    def eval_exact(self, t) -> RationalComplex:
        return self.evaluate(t)


class IndicatorCoefficient(CoefficientFunction):
    """Characteristic function of an interval; exact at rational points."""

    def __init__(self, interval: Interval):
        self.interval = interval

    @property
    def value_at_zero(self) -> Fraction:
        return Fraction(1) if self.interval.contains(Fraction(0)) else Fraction(0)

    @property
    def vanishes_at_infinity(self) -> bool:
        return self.interval.upper is not None

    def __call__(self, t: float) -> complex:
        # a float equal to a rounded endpoint stands for that endpoint; any
        # other float is decided by its exact value
        ends = [e for e in (self.interval.lower, self.interval.upper)
                if e is not None and t == float(e)]
        x = ends[0] if ends else Fraction(t)
        return 1.0 + 0j if self.interval.contains(x) else 0j

    def eval_exact(self, t) -> RationalComplex:
        return RationalComplex(Fraction(1 if self.interval.contains(Fraction(t)) else 0))


class ClosureCoefficient(CoefficientFunction):
    """Arbitrary callable with declared behaviour at 0 and infinity."""

    def __init__(self, fn: Callable[[float], complex], value_at_zero,
                 vanishes_at_infinity: bool):
        self.fn = fn
        self._zero = value_at_zero
        self._vanishes = bool(vanishes_at_infinity)

    @property
    def value_at_zero(self):
        return self._zero

    @property
    def vanishes_at_infinity(self) -> bool:
        return self._vanishes

    def __call__(self, t: float) -> complex:
        try:
            return complex(self.fn(t))
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(f"coefficient undefined at t={t}") from exc


ZERO_COEFFICIENT = RationalCoefficient(RationalFunction.constant(0))


def _is_syntactic_zero(f: CoefficientFunction) -> bool:
    return isinstance(f, RationalCoefficient) and f.is_zero


def _leaf(f: CoefficientFunction) -> DomainError:
    return DomainError(f"coefficient arithmetic is exact: {type(f).__name__} "
                       "is a leaf, not a rational coefficient")


def _pair(f: CoefficientFunction) -> Pair:
    """The (num, den) pair of a rational coefficient; a leaf raises DomainError."""
    if not isinstance(f, RationalCoefficient):
        raise _leaf(f)
    return f._pair


def _coefficient(pair: Pair) -> RationalCoefficient:
    """The coefficient of a pair computed from checked coefficients."""
    return object.__new__(RationalCoefficient)._set(pair)


def _twist(q: Fraction, n: int) -> tuple[int, int] | None:
    """(p**|n|, r**|n|) with q**n = p**|n| / r**|n| in lowest terms; None if q**n is 1."""
    p, r = (q.numerator, q.denominator) if n > 0 else (q.denominator, q.numerator)
    return None if n == 0 or p == r else (p ** abs(n), r ** abs(n))


def cf_alpha(f: CoefficientFunction, n: int, q: Fraction) -> CoefficientFunction:
    """Scaling action iterate: t -> f(q**n * t)."""
    w = _twist(q, n)
    if w is None:
        return f
    if isinstance(f, IndicatorCoefficient):
        # chi_M(q**n t) = chi_{q**-n M}(t)
        return IndicatorCoefficient(f.interval.scaled(Fraction(w[1], w[0])))
    return _coefficient(_f_argscale(_pair(f), *w))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Finite Fourier sum sum_k f_k U**k over a fixed scaling ratio q."""

    q: Fraction
    terms: tuple[tuple[int, CoefficientFunction], ...]

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if not 0 < self.q <= 1:
            raise DomainError(f"q must lie in (0, 1], got {self.q}")
        seen = set()
        for k, _ in self.terms:
            if k in seen:
                raise DomainError(f"duplicate mode {k}")
            seen.add(k)
        object.__setattr__(self, "terms",
                           tuple(sorted(self.terms, key=lambda kv: kv[0])))

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.terms)

    @property
    def mode_span(self) -> int:
        return max((abs(k) for k, _ in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, k: int) -> CoefficientFunction:
        for kk, f in self.terms:
            if kk == k:
                return f
        return ZERO_COEFFICIENT

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return add(self, -other)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return multiply(self, other)

    def __neg__(self):
        return _assemble(self.q, {k: _coefficient(_f_neg(_pair(f))) for k, f in self.terms})


def element(q, coeffs: Mapping[int, CoefficientFunction]) -> AlgebraElement:
    """Assemble an element, dropping syntactically zero coefficients."""
    terms = tuple((int(k), f) for k, f in coeffs.items() if not _is_syntactic_zero(f))
    return AlgebraElement(q, terms)


def _assemble(q: Fraction, coeffs: dict[int, CoefficientFunction]) -> AlgebraElement:
    """The element of coeffs built by the operations below, without re-validation.

    q is an operand's validated ratio and the modes are dict keys, so distinct
    ints; only the sorting and the dropping of syntactic zeros remain to do.
    """
    out = object.__new__(AlgebraElement)
    out.__dict__.update(q=q, terms=tuple(sorted(
        (k, f) for k, f in coeffs.items() if not _is_syntactic_zero(f))))
    return out


def zero_element(q) -> AlgebraElement:
    return AlgebraElement(Fraction(q), ())


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Sum over modes of f alpha**n(g) U**(n+m), each output mode wrapped once.

    A leaf raises DomainError naming the left operand's first leaf, else the
    right's; a product with the zero element is zero whatever the other holds.
    """
    if a.q != b.q:
        raise DomainError("cannot multiply elements over different ratios")
    out: dict[int, Pair] = {}
    if a.terms and b.terms:
        left, right = ([(k, _pair(f)) for k, f in x.terms] for x in (a, b))
        for n, fp in left:
            w = _twist(a.q, n)
            for m, gp in right:
                term = _f_mul(fp, gp if w is None else _f_argscale(gp, *w))
                k = n + m
                out[k] = _f_add(out[k], term) if k in out else term
    return _assemble(a.q, {k: _coefficient(p) for k, p in out.items()})


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """(f U**n)* = alpha**(-n)(conj f) U**(-n): conjugated and rescaled pairs, indicators exact."""
    out: dict[int, CoefficientFunction] = {}
    for k, f in a.terms:
        if isinstance(f, IndicatorCoefficient):   # real, so its own conjugate
            out[-k] = cf_alpha(f, -k, a.q)
            continue
        w, fp = _twist(a.q, -k), _f_conj(_pair(f))
        out[-k] = _coefficient(fp if w is None else _f_argscale(fp, *w))
    return _assemble(a.q, out)


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    if a.q != b.q:
        raise DomainError("cannot add elements over different ratios")
    out = dict(a.terms)
    for k, g in b.terms:
        out[k] = _coefficient(_f_add(_pair(out[k]), _pair(g))) if k in out else g
    return _assemble(a.q, out)


def scale(a: AlgebraElement, s) -> AlgebraElement:
    """s * a for an exact scalar s (int, Fraction or RationalComplex); a float raises TypeError."""
    if not isinstance(s, (int, Fraction, RationalComplex)):
        raise TypeError(f"scale needs an exact scalar, got {type(s).__name__}")
    if s == 0:
        return zero_element(a.q)
    c = (_poly((s,)), _ONE)
    return _assemble(a.q, {k: _coefficient(_f_mul(_pair(f), c)) for k, f in a.terms})


def classify(a: AlgebraElement) -> Classification:
    """VANISHING iff every nonzero mode coefficient vanishes at t = 0."""
    for k, f in a.terms:
        if k != 0 and f.value_at_zero != 0:
            return Classification.FULL
    return Classification.VANISHING


def classical_table(a: AlgebraElement, radii, angles) -> list[list[complex]]:
    """sum_k f_k(r) e^(i k theta), a row per r in radii and a column per theta in angles.

    f_k(0) is the coefficient's value_at_zero; a negative radius raises DomainError.
    For q = 1 this is the Gelfand transform on the plane; multiplicativity fails
    for q < 1, where the same formula is still available as a symbol map.
    """
    if any(r < 0 for r in radii):
        raise DomainError("modulus must be nonnegative")
    turns = [[complex(math.cos(k * th), math.sin(k * th)) for th in angles] for k in a.modes]
    table = []
    for r in radii:
        row = [0j] * len(angles)
        for (_, f), turn in zip(a.terms, turns):
            val = complex(f.value_at_zero) if r == 0 else complex(f(r))
            row = [total + val * z for total, z in zip(row, turn)]
        table.append(row)
    return table


def classical_eval(a: AlgebraElement, r: float, theta: float) -> complex:
    """a at the point with modulus r and argument theta: the one cell of classical_table."""
    return classical_table(a, [r], [theta])[0][0]


def grid_sample_points(X: SpectralSet, n_min: int, n_max: int) -> tuple[Fraction, ...]:
    """Grid values q**n * x over the level range, ascending, after 0 when X holds it."""
    # each generator's run q**n_min x, q**(n_min + 1) x, ... descends: reversed, they merge
    steps = n_max - n_min
    runs = [list(accumulate(repeat(X.q, steps), operator.mul, initial=X.q ** n_min * x))[::-1]
            for x in X.generators] if steps >= 0 else []
    pts = [v for v, _ in groupby(heapq.merge(*runs))]
    if X.includes_zero:
        pts.insert(0, Fraction(0))
    return tuple(pts)


def _exact_values(f: CoefficientFunction, points) -> ExactDiagonal:
    """f at the rational points as one exact diagonal."""
    if isinstance(f, RationalCoefficient):
        re, im, den = f.evaluate_pairs([p.numerator for p in points],
                                       [p.denominator for p in points])
        return ExactDiagonal.written(re, den, im)
    return ExactDiagonal.of([f.eval_exact(p) for p in points])


def element_residual(a: AlgebraElement, b: AlgebraElement, points) -> Fraction:
    """Exact max coefficient deviation |a_k - b_k| over modes and rational sample points.

    A mode whose two coefficients are the same rational function contributes
    exactly 0 without evaluation.  Otherwise both are evaluated into exact
    diagonals and their difference is measured by the exact ``Band.norm``:
    max(|re|, |im|) of each value.  A closure has no exact evaluation and
    raises EvaluationError.
    """
    if a.q != b.q:
        raise DomainError("cannot compare elements over different ratios")
    worst = Fraction(0)
    for k in sorted(set(a.modes) | set(b.modes)):
        fa, fb = a.coefficient(k), b.coefficient(k)
        if (isinstance(fa, RationalCoefficient) and isinstance(fb, RationalCoefficient)
                and fa.equals(fb)):
            continue
        gap = _exact_values(fa, points) - _exact_values(fb, points)
        worst = max(worst, Band(len(gap), True, {0: gap}).norm())
    return worst


_OUTSIDE_GRAMMAR = re.compile(r"[^0-9t\s()+\-*/^]|\*\*")
_LEADING_ZEROS = re.compile(r"(?<![0-9])0+(?=[0-9])")
_ARITHMETIC = {ast.Add: _f_add, ast.Sub: _f_sub, ast.Mult: _f_mul, ast.Div: _f_div}
_SIGNS = {ast.UAdd: 1, ast.USub: -1}
_T = RationalFunction.variable()._pair


def _exponent(node: ast.AST) -> int:
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        return _SIGNS[type(node.op)] * _exponent(node.operand)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    raise DomainError("exponent must be an integer")


def _evaluate(node: ast.AST) -> Pair:
    """The (num, den) pair of an expression node, built by ratfunc's pair operations.

    t**k for 0 <= k <= MAX_POWER_DEGREE is built directly as its monomial;
    every other node gives the pair the RationalFunction operators would give.
    """
    kind = type(node)
    if kind is ast.BinOp and type(node.op) is ast.Pow:
        base, k = _evaluate(node.left), _exponent(node.right)
        if base == _T and 0 <= k <= MAX_POWER_DEGREE:
            return ((0,) * k + (1,), (0,) * (k + 1), 1), _ONE
        return _f_pow(base, k)
    if kind is ast.BinOp and type(node.op) in _ARITHMETIC:
        return _ARITHMETIC[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    if kind is ast.UnaryOp and type(node.op) in _SIGNS:
        value = _evaluate(node.operand)
        return value if _SIGNS[type(node.op)] > 0 else _f_neg(value)
    if kind is ast.Constant and type(node.value) is int:
        return (((node.value,), (0,), 1) if node.value else ((), (), 1)), _ONE
    if kind is ast.Name and node.id == "t":
        return _T
    raise DomainError("malformed expression")


def parse_rational_expression(text: str) -> RationalFunction:
    """Parse an expression in t with integer literals and + - * / ^ ( ).

    Python's expression parser reads the text once it is confined to that
    grammar.  Whitespace runs become single spaces and the ends are trimmed
    (Python reads indentation and newlines as syntax), integer literals lose
    leading zeros (Python refuses ``007``) and ``^`` is spelled ``**``.
    """
    bad = _OUTSIDE_GRAMMAR.search(text)
    if bad:
        raise DomainError(f"unexpected {bad.group()!r} in expression")
    source = _LEADING_ZEROS.sub("", " ".join(text.split())).replace("^", "**")
    try:
        return _rf(_evaluate(ast.parse(source, mode="eval").body))
    except SyntaxError as exc:
        raise DomainError(f"malformed expression: {exc.msg}") from None
    except (RecursionError, MemoryError):  # MemoryError: "parser stack overflowed"
        raise DomainError("expression nests too deeply") from None


def parse_element_term(text: str) -> tuple[int, RationalCoefficient]:
    """Parse one ``expr@k`` literal into (mode, coefficient)."""
    if "@" not in text:
        raise DomainError(f"element term {text!r} lacks a mode tag expr@k")
    expr, _, mode = text.rpartition("@")
    try:
        k = int(mode.strip())
    except ValueError as exc:
        raise DomainError(f"mode tag must be an integer, got {mode!r}") from exc
    return k, RationalCoefficient(parse_rational_expression(expr))


def parse_element(q, literals) -> AlgebraElement:
    """Build an element from ``expr@k`` strings; repeated modes add."""
    q = parse_rational(q)
    out: dict[int, CoefficientFunction] = {}
    for lit in literals:
        k, cf = parse_element_term(lit)
        out[k] = _coefficient(_f_add(out[k]._pair, cf._pair)) if k in out else cf
    return element(q, out)
