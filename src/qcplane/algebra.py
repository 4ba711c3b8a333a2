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
Element literals are evaluated on the same pairs, each step bounded in
degree, by one reader that defines their grammar and gives every error message.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, EvaluationError
from .qspace import Interval, SpectralSet, _grid_pairs
from .ratfunc import (_STEPS, _T, Pair, RationalFunction, _f_add, _f_argscale, _f_conj,
                      _f_const, _f_mul, _f_neg, _f_pow, _f_step, _rf)
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

    # rf is the coefficient itself, kept read-only for callers that read it;
    # value_at_zero is stored on its first read, which looks evaluate up, so a
    # rebound evaluate is seen
    rf = property(lambda self: self)
    value_at_zero = cached_property(lambda self: self.evaluate(0))
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
        if not math.isfinite(t):
            raise EvaluationError(f"coefficient undefined at t={t}")
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
    c = _f_const(s)
    return _assemble(a.q, {k: _coefficient(_f_mul(_pair(f), c)) for k, f in a.terms})


def classify(a: AlgebraElement) -> Classification:
    """VANISHING iff every nonzero mode coefficient vanishes at t = 0."""
    for k, f in a.terms:
        if k != 0 and f.value_at_zero != 0:
            return Classification.FULL
    return Classification.VANISHING


def classical_tables(elements, radii, angles) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of classical_table for each element, shaped (elements, radii, angles).

    Every value rounds as in the per-radius formula: f_k(r) times the turn
    (cos k theta, sin k theta), in the product and sum order of Python's complex
    arithmetic, summed mode by mode from +0.0.  The real rational coefficients
    of all elements are evaluated in one Horner pass over their float
    coefficients, zero-padded at the high end; a value that pass cannot give
    bit for bit (radius 0, a leaf, a complex coefficient, a non-finite or
    undefined value) comes from the coefficient's own call, which raises as the
    per-radius loop raises: at the first element, radius and mode that fails.
    """
    if any(r < 0 for r in radii):
        raise DomainError("modulus must be nonnegative")
    t = np.array(radii, dtype=float)
    # mode slot s of element e is row e * S + s; an element with fewer modes leaves rows empty
    S = max((len(a.terms) for a in elements), default=0)
    cells = [None] * (len(elements) * S)
    for e, a in enumerate(elements):
        cells[e * S:e * S + len(a.terms)] = a.terms
    fast, parts, empty = [], [], []
    for i, cell in enumerate(cells):
        cs = cell[1]._float_coeffs if cell and isinstance(cell[1], RationalCoefficient) else ()
        if len(cs) == 2:
            fast.append(i)
            parts += cs
        elif cell is None:
            empty.append(i)
    vr, vi = np.zeros((2, len(cells), len(t)))
    ok = np.zeros((len(cells), len(t)), dtype=bool)
    ok[empty] = True
    with np.errstate(all="ignore"):
        acc = np.zeros((len(t), len(parts)))
        for c in np.array(list(zip_longest(*parts, fillvalue=0.0)))[::-1]:
            acc = acc * t[:, None] + c   # _p_eval_float's order
        num, den = acc[:, 0::2], acc[:, 1::2]
        v = num / den
        vr[fast] = v.T
        ok[fast] = ((den != 0) & np.isfinite(den) & np.isfinite(v) & (t != 0)[:, None]).T
    for i, j in sorted(zip(*np.nonzero(~ok)), key=lambda ij: (ij[0] // S, ij[1], ij[0])):
        f, r = cells[i][1], radii[j]
        z = complex(f.value_at_zero) if r == 0 else complex(f(r))
        vr[i, j], vi[i, j] = z.real, z.imag
    # each mode's turn from math.cos and math.sin, once
    modes = sorted({cell[0] for cell in cells if cell})
    zr, zi = (np.array([[fn(k * th) for th in angles] for k in modes])
              .reshape(len(modes), len(angles)) for fn in (math.cos, math.sin))
    at = [modes.index(cell[0]) if cell else 0 for cell in cells]
    ar, ai, br, bi = vr[:, :, None], vi[:, :, None], zr[at][:, None, :], zi[at][:, None, :]
    with np.errstate(all="ignore"):
        pr, pi = ar * br - ai * bi, ar * bi + ai * br   # Python's complex product
        pr[empty] = pi[empty] = -0.0   # x + -0.0 is x, also for x = +0.0 and -0.0
        table_re = np.zeros((len(elements), len(t), len(angles)))
        table_im = np.zeros_like(table_re)
        for s in range(S):
            table_re += pr[s::S]
            table_im += pi[s::S]
    return table_re, table_im


def classical_table(a: AlgebraElement, radii, angles) -> list[list[complex]]:
    """sum_k f_k(r) e^(i k theta), a row per r in radii and a column per theta in angles.

    f_k(0) is the coefficient's value_at_zero; a negative radius raises DomainError.
    For q = 1 this is the Gelfand transform on the plane; multiplicativity fails
    for q < 1, where the same formula is still available as a symbol map.
    """
    (table_re,), (table_im,) = classical_tables([a], radii, angles)
    return [[complex(x, y) for x, y in zip(row_re, row_im)]
            for row_re, row_im in zip(table_re.tolist(), table_im.tolist())]


def classical_eval(a: AlgebraElement, r: float, theta: float) -> complex:
    """a at the point with modulus r and argument theta: the one cell of classical_table."""
    return classical_table(a, [r], [theta])[0][0]


def grid_sample_points(X: SpectralSet, n_min: int, n_max: int) -> tuple[Fraction, ...]:
    """Grid values q**n * x over the level range, ascending, after 0 when X holds it."""
    nums, dens = _grid_pairs(X.q, X.generators, range(n_min, n_max + 1))
    # over one common denominator, the points sort and deduplicate as ints
    common = math.lcm(*dens)
    pts = [Fraction(n, common) for n in sorted({n * (common // d) for n, d in zip(nums, dens)})]
    return (Fraction(0), *pts) if X.includes_zero else tuple(pts)


def element_residual(a: AlgebraElement, b: AlgebraElement, points) -> Fraction:
    """Exact max coefficient deviation |a_k - b_k| over modes and rational sample points.

    A mode whose two coefficients are the same rational function contributes
    exactly 0 without evaluation.  A differing rational pair is measured on
    its difference, one rational function evaluated at every point by one
    ``evaluate_pairs`` call; a leaf on the differences of the two sides' exact
    values.  Each value is sized by max(|re|, |im|), sizes are compared as
    integer cross products, and one Fraction is made at the end.  A closure
    has no exact evaluation and raises EvaluationError.
    """
    if a.q != b.q:
        raise DomainError("cannot compare elements over different ratios")
    best, scale, pairs = 0, 1, None   # the largest size so far is best / scale
    for k in sorted(set(a.modes) | set(b.modes)):
        fa, fb = a.coefficient(k), b.coefficient(k)
        if isinstance(fa, RationalCoefficient) and isinstance(fb, RationalCoefficient):
            if fa.equals(fb):
                continue
            if pairs is None:
                pairs = [p.numerator for p in points], [p.denominator for p in points]
            re, im, den = (fa - fb).evaluate_pairs(*pairs)
            sizes = (zip(map(abs, re), den) if im is None else
                     ((max(abs(x), abs(y)), d) for x, y, d in zip(re, im, den)))
        else:
            sizes = ((fa.eval_exact(p) - fb.eval_exact(p)).magnitude().as_integer_ratio()
                     for p in points)
        for m, d in sizes:
            if m * scale > best * d:
                best, scale = m, d
    return Fraction(best, scale)


_TOKEN = re.compile(r"[0-9]+|\S")
_MODE_TAG = re.compile(r"[+-]?[0-9]+")
_PREFIX = {"+": "pos", "-": "neg", "(": "("}
_BINDING = {"(": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pos": 3, "^": 4}
_HELD = set(_PREFIX.values())
MAX_NESTING = 200   # open parentheses and unary signs held at once


def parse_rational_expression(text: str) -> RationalFunction:
    """Parse an expression in t with ASCII integer literals and + - * / ^ ( ).

    The text is read whole into postfix order before any arithmetic, and a
    malformed one is refused at the token where reading stops.  Precedence is
    Python's: ``+ -`` below ``* /``, below unary signs, below ``^``, which
    groups to the right and whose exponent must be an integer literal under
    signs and parentheses.  The operators are then applied in post-order, so
    the first value error is the one a walk of the expression tree meets.
    """
    tokens = iter(_TOKEN.findall(text))
    program: list = []   # postfix: "t", ints, "neg", binary operators, (k,) powers, None
    ops: list[str] = []   # "(", "neg", "pos" and operators waiting for their right operand
    exponents: list[int] = []   # where the exponent of each stacked ^ begins in program

    def reduce(binding: int) -> None:   # pop the stacked operators binding at least this tightly
        while ops and _BINDING[ops[-1]] >= binding:
            op = ops.pop()
            if op == "^":   # its exponent becomes one item: (k,), or None if it is no literal
                k, *signs = program[exponents[-1]:]
                del program[exponents.pop():]
                program.append((k * (-1) ** len(signs),) if type(k) is int and
                               signs.count("neg") == len(signs) else None)
            elif op != "pos":
                program.append(op)

    tok = next(tokens, "")   # "" ends the text
    while True:
        while tok in _PREFIX:   # an operand: its signs and open parentheses first
            ops.append(_PREFIX[tok])
            if len(ops) > MAX_NESTING and sum(op in _HELD for op in ops) > MAX_NESTING:
                raise DomainError("expression nests too deeply")
            tok = next(tokens, "")
        if tok.isascii() and tok.isdigit():
            try:
                program.append(int(tok.lstrip("0") or 0))
            except ValueError:   # past the interpreter's limit, 4300 digits by default
                raise DomainError("malformed expression: integer literal of more than "
                                  f"{sys.get_int_max_str_digits()} digits") from None
        elif tok == "t":
            program.append(tok)
        else:
            raise DomainError(f"malformed expression: unexpected {repr(tok) if tok else 'end of text'}")
        tok = next(tokens, "")
        while tok == ")":   # then its closing parentheses
            reduce(1)
            if not ops:
                raise DomainError("malformed expression: unmatched ')'")
            ops.pop()
            tok = next(tokens, "")
        if tok == "^":
            exponents.append(len(program))
        elif tok in _STEPS:
            reduce(_BINDING[tok])
        elif tok:
            raise DomainError(f"malformed expression: unexpected {tok!r}")
        else:
            break
        ops.append(tok)
        tok = next(tokens, "")
    reduce(1)
    if ops:
        raise DomainError("malformed expression: '(' is never closed")
    values: list[Pair] = []
    for item in program:
        if type(item) is int:
            values.append(_f_const(item))
        elif item == "t":
            values.append(_T)
        elif item in _STEPS:
            right = values.pop()
            values[-1] = _f_step(item, values[-1], right)
        elif item == "neg":
            values[-1] = _f_neg(values[-1])
        elif item is None:
            raise DomainError("exponent must be an integer")
        else:
            values[-1] = _f_pow(values[-1], item[0])
    return _rf(values[0])


def parse_element_term(text: str) -> tuple[int, RationalCoefficient]:
    """Parse one ``expr@k`` literal into (mode, coefficient)."""
    if "@" not in text:
        raise DomainError(f"element term {text!r} lacks a mode tag expr@k")
    expr, _, mode = text.rpartition("@")
    try:
        if not _MODE_TAG.fullmatch(mode.strip()):   # int() also takes 1_0 and non-ASCII digits
            raise ValueError
        k = int(mode)   # and refuses more than 4300
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
