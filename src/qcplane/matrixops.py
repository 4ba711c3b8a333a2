"""Window operators as diagonals times shift powers, plus a few dense helpers.

Every operator of a truncated model is a finite sum sum_d diag(v_d) S**d, the
shape of the crossed product C0(X) x| Z it represents; :class:`Band` stores
one diagonal per offset d.  Float bands hold complex128 diagonals.  Exact bands
hold :class:`ExactDiagonal` s: integer pairs, value i being
(re[i] + i im[i]) / den[i] over Python ints, never reduced.  A sum or product
of exact bands multiplies and adds integers and makes no Fraction, so it pays
for no gcd (Knuth, TAOCP vol. 2, 4.5.1: reduction can wait until the value
leaves); an exact norm or trace makes one Fraction at the end.  Both kinds of
diagonal take the same indexing and elementwise arithmetic, so one code path
serves both regimes.  Values leave an exact band only through :meth:`Band.dense`
and the read-only :attr:`Band.diags`, by value: a zero as the int 0, wherever
it came from, any other real value as a Fraction, and a value with a nonzero
imaginary part as a RationalComplex.  :meth:`Band.norm` measures a band
without making it dense; a float band's offsets decide its blocks, the
entries of one row class modulo the gcd of the offset differences.  Model
paths never densify: dense matrices are made only for the public dense
results, and the helpers below act on those, exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .scalars import RationalComplex, exact_magnitude


_TINY = np.finfo(float).smallest_subnormal


def _ints(n: int, value: int) -> np.ndarray:
    return np.zeros(n, dtype=object) if value == 0 else np.array([value] * n, dtype=object)


def _scalar_pair(s) -> tuple[int, int, int]:
    """(re, im, den) with s == (re + i im) / den, for an int, Fraction or RationalComplex."""
    if isinstance(s, RationalComplex):
        (a, b), (c, e) = s.re.as_integer_ratio(), s.im.as_integer_ratio()
        return a * e, c * b, b * e
    if isinstance(s, (int, Fraction)):
        n, d = s.as_integer_ratio()
        return n, 0, d
    raise TypeError(f"not an exact scalar: {type(s).__name__}")


class ExactDiagonal:
    """One exact diagonal: value i is (re[i] + i im[i]) / den[i], all Python ints.

    re, im and den are object arrays; den > 0, and no pair is reduced.  im is
    None while every value is real.  Indexing and item assignment take numpy
    row indices.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray | None, den: np.ndarray):
        self.re, self.im, self.den = re, im, den

    @classmethod
    def written(cls, re, den, im=None) -> "ExactDiagonal":
        """Values (re[i] + i im[i]) / den[i] (den > 0) from int sequences."""
        return cls(np.array(re, dtype=object), None if im is None else np.array(im, dtype=object),
                   np.array(den, dtype=object))

    @classmethod
    def of(cls, values) -> "ExactDiagonal":
        """From int, Fraction and RationalComplex values."""
        re, im, den = zip(*map(_scalar_pair, values)) if len(values) else ((), (), ())
        return cls.written(re, den, im if any(im) else None)

    def __len__(self) -> int:
        return len(self.re)

    def __getitem__(self, rows) -> "ExactDiagonal":
        return ExactDiagonal(self.re[rows], None if self.im is None else self.im[rows],
                             self.den[rows])

    def __setitem__(self, rows, v: "ExactDiagonal") -> None:
        self.re[rows], self.den[rows] = v.re, v.den
        if v.im is not None and self.im is None:
            self.im = _ints(len(self), 0)
        if self.im is not None:
            self.im[rows] = 0 if v.im is None else v.im

    def _imag(self) -> np.ndarray:
        return _ints(len(self), 0) if self.im is None else self.im

    def _sum(self, other: "ExactDiagonal", op) -> "ExactDiagonal":
        a, b = self, other
        im = (None if a.im is None and b.im is None
              else op(a._imag() * b.den, b._imag() * a.den))
        return ExactDiagonal(op(a.re * b.den, b.re * a.den), im, a.den * b.den)

    def __add__(self, other: "ExactDiagonal") -> "ExactDiagonal":
        return self._sum(other, operator.add)

    def __sub__(self, other: "ExactDiagonal") -> "ExactDiagonal":
        return self._sum(other, operator.sub)

    def __mul__(self, other: "ExactDiagonal") -> "ExactDiagonal":
        a, b = self, other
        re, im = a.re * b.re, None
        if a.im is not None and b.im is not None:
            re, im = re - a.im * b.im, a.re * b.im + a.im * b.re
        elif a.im is not None or b.im is not None:
            im = a.im * b.re if b.im is None else a.re * b.im
        return ExactDiagonal(re, im, a.den * b.den)

    def scaled(self, s) -> "ExactDiagonal":
        """s times every value, for an int, Fraction or RationalComplex s."""
        re, im, den = _scalar_pair(s)
        # s as a diagonal of plain ints, which broadcast over the rows
        return self * ExactDiagonal(re, im or None, den)

    def conj(self) -> "ExactDiagonal":
        return ExactDiagonal(self.re, None if self.im is None else -self.im, self.den)

    def to_complex(self) -> np.ndarray:
        """Each value rounded once: integer true division of each part by den."""
        out = (self.re / self.den).astype(complex)
        if self.im is not None:
            out.imag = (self.im / self.den).astype(float)
        return out

    def values(self) -> np.ndarray:
        """Object array: the int 0 for a zero value, else a Fraction, or a
        RationalComplex where im != 0."""
        ims = repeat(0) if self.im is None else self.im.tolist()
        out = np.empty(len(self), dtype=object)
        out[:] = [(RationalComplex(Fraction(a, d), Fraction(b, d)) if b else Fraction(a, d))
                  if a or b else 0 for a, b, d in zip(self.re.tolist(), ims, self.den.tolist())]
        return out


def zeros(n: int, exact: bool):
    """A diagonal of n zeros: exact, or complex128."""
    if exact:
        return ExactDiagonal(_ints(n, 0), None, _ints(n, 1))
    return np.zeros(n, dtype=complex)


def ones(n: int, exact: bool):
    """A diagonal of n ones: exact, or complex128."""
    return ExactDiagonal.written([1] * n, [1] * n) if exact else np.full(n, 1.0 + 0j)


class Band:
    """Square operator sum_d diag(v_d) S**d; matrix entry (i, i + d) is v_d[i].

    Diagonals have length dim and are indexed by row; entries whose column
    falls outside the matrix are zero, and offsets with |d| >= dim are dropped.
    An exact band stores :class:`ExactDiagonal` s and accepts, besides those,
    object arrays of int, Fraction and RationalComplex.  Its entries leave as
    the int 0 when they are 0, as Fractions when real, and as RationalComplex
    otherwise; exact norms are Fractions, exact traces Fractions or
    RationalComplex, also when they are 0.
    """

    def __init__(self, dim: int, exact: bool, diags: dict | None = None):
        self.dim = dim
        self.exact = exact
        self._diags = {d: ExactDiagonal.of(v) if exact and not isinstance(v, ExactDiagonal)
                       else v for d, v in (diags or {}).items() if abs(d) < dim}

    @property
    def diags(self) -> MappingProxyType:
        """Read-only offset -> diagonal view; exact values rendered as in ``dense``."""
        if not self.exact:
            return MappingProxyType(self._diags)
        out = {}
        for d, v in self._diags.items():
            out[d] = v.values()
            out[d].flags.writeable = False
        return MappingProxyType(out)

    def diagonal(self, d: int):
        """The stored diagonal at offset d (zeros if there is none)."""
        return self._diags[d] if d in self._diags else zeros(self.dim, self.exact)

    @classmethod
    def identity(cls, dim: int, exact: bool) -> "Band":
        return cls(dim, exact, {0: ones(dim, exact)})

    @classmethod
    def from_blocks(cls, blocks: list[list["Band"]]) -> "Band":
        """The block operator with blocks[i][j] in block row i, block column j.

        Entry (r, r + d) of block (i, j) is entry (i n + r, j n + r + d) of the
        whole, so its diagonal moves to offset d + (j - i) n, rows i n onwards.
        """
        first = blocks[0][0]
        n, m = first.dim, len(blocks)
        out = cls(m * n, first.exact)
        for i, row in enumerate(blocks):
            for j, block in enumerate(row):
                first._check(block)
                for d, v in block._diags.items():
                    rows = block._rows(d)
                    D = d + (j - i) * n
                    if D not in out._diags:
                        out._diags[D] = zeros(m * n, out.exact)
                    out._diags[D][i * n + rows] = v[rows]
        return out

    def _shifted(self, v, d: int):
        """w[i] = v[i + d], 0 where i + d leaves the matrix."""
        out = zeros(self.dim, self.exact)
        if d >= 0:
            out[:self.dim - d] = v[d:]
        else:
            out[-d:] = v[:self.dim + d]
        return out

    def _check(self, other: "Band") -> None:
        if (self.dim, self.exact) != (other.dim, other.exact):
            raise ValueError("bands differ in dimension or scalar regime")

    def _combine(self, other: "Band", op) -> "Band":
        self._check(other)
        out = dict(self._diags)
        for d, v in other._diags.items():
            out[d] = op(out[d] if d in out else zeros(self.dim, self.exact), v)
        return _band(self.dim, self.exact, out)

    def __add__(self, other: "Band") -> "Band":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Band") -> "Band":
        return self._combine(other, operator.sub)

    def __matmul__(self, other: "Band") -> "Band":
        # (A B)[i, i + d + e] = a_d[i] * b_e[i + d]
        self._check(other)
        out: dict = {}
        for d, a in self._diags.items():
            for e, b in other._diags.items():
                if abs(d + e) >= self.dim:
                    continue
                term = a * self._shifted(b, d)
                out[d + e] = out[d + e] + term if d + e in out else term
        return _band(self.dim, self.exact, out)

    def power(self, k: int) -> "Band":
        """self**k as band products taken left to right; (self*)**|k| for k < 0."""
        if k < 0:
            return self.power(-k).adjoint()
        out = self if k else Band.identity(self.dim, self.exact)
        for _ in range(1, k):
            out = out @ self
        return out

    def scale(self, s) -> "Band":
        if self.exact:
            return _band(self.dim, True, {d: v.scaled(s) for d, v in self._diags.items()})
        s = complex(s)
        return _band(self.dim, False, {d: s * v for d, v in self._diags.items()})

    def adjoint(self) -> "Band":
        # (A*)[i, i - d] = conj(a_d[i - d])
        return _band(self.dim, self.exact,
                     {-d: self._shifted(v, -d).conj() for d, v in self._diags.items()})

    def as_float(self) -> "Band":
        if not self.exact:
            return self
        return _band(self.dim, False, {d: v.to_complex() for d, v in self._diags.items()})

    def _rows(self, d: int) -> np.ndarray:
        """Rows i whose entry (i, i + d) lies inside the matrix."""
        return np.arange(max(0, -d), min(self.dim, self.dim - d))

    def _kept_rows(self, keep, offsets) -> dict:
        """Offset d of offsets -> the rows i of entries (i, i + d) with i and i + d in keep.

        A step-1 range from 0 up keeps one run of rows at each offset.
        """
        if keep is None:
            return {d: self._rows(d) for d in offsets}
        if isinstance(keep, range) and keep.step == 1 and keep.start >= 0:
            a, b = keep.start, min(keep.stop, self.dim)
            return {d: np.arange(max(a, a - d), min(b, b - d)) for d in offsets}
        kept = np.zeros(self.dim, dtype=bool)
        kept[np.asarray(list(keep), dtype=int)] = True
        out = {}
        for d in offsets:
            r = self._rows(d)
            out[d] = r[kept[r] & kept[r + d]]
        return out

    def dense(self) -> np.ndarray:
        n = self.dim
        out = np.zeros(n * n, dtype=object if self.exact else complex)
        for d, v in self._diags.items():
            # rows lo..hi - 1 hold entries (i, i + d), every (n + 1)-th flat entry from d
            lo, hi = max(0, -d), min(n, n - d)
            out[lo * (n + 1) + d:hi * (n + 1) + d:n + 1] = (v[lo:hi].values() if self.exact
                                                           else v[lo:hi])
        return out.reshape(n, n)

    def norm(self, keep=None):
        """defect_norm of the operator compressed to the rows and columns in keep.

        Exact bands give the largest entry magnitude, found by comparing
        integer cross products, as one Fraction.  Float bands give the
        2-norm.  Let d0 + hZ be the least coset holding every offset with a
        nonzero kept entry.  The band maps rows c mod h to columns c + d0 mod h,
        so the entries of each row class mod h form a block that shares no row
        and no column with the others, and the 2-norm is the largest block
        norm.  A block of one entry gives its |entry|; the rest are stacked as
        ceil(dim/h)-square matrices at (row // h, col // h) for one batched
        SVD.  One offset leaves every entry its own block, so the norm is the
        largest kept |entry|.  A non-finite kept entry gives inf.
        """
        if self.exact:
            # max(|re|, |im|) / den is the exact size proxy of a value; the
            # largest so far is best / scale
            inside = range(self.dim) if keep is None else set(keep)
            best, scale = 0, 1
            for d, v in self._diags.items():
                ims = repeat(0) if v.im is None else v.im.tolist()
                for i, (a, b, den) in enumerate(zip(v.re.tolist(), ims, v.den.tolist())):
                    if (a or b) and i in inside and i + d in inside:
                        m = max(abs(a), abs(b))
                        if m * scale > best * den:
                            best, scale = m, den
            return Fraction(best, scale)
        kept = self._kept_rows(keep, self._diags)
        return self._float_norm({d: (r, self._diags[d][r]) for d, r in kept.items()})

    def _float_norm(self, kept: dict) -> float:
        """2-norm of float entries; kept maps an offset d to (rows i, entries (i, i + d))."""
        if len(kept) == 1:
            # one offset makes every entry its own block
            (_, v), = kept.values()
            return _largest(v)
        offsets, rows, cols, vals = [], [], [], []
        for d, (r, v) in kept.items():
            nonzero = v != 0
            if nonzero.any():
                offsets.append(d)
                rows.append(r[nonzero])
                cols.append(r[nonzero] + d)
                vals.append(v[nonzero])
        if len(offsets) <= 1:
            return _largest(vals[0]) if vals else 0.0
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        if not np.isfinite(vals).all():
            # an overflowed entry: report an unbounded norm, never a small one
            return math.inf
        # the offsets lie in d0 + hZ, so row classes mod h are the blocks
        h = math.gcd(*(d - offsets[0] for d in offsets))
        block = rows % h
        single = np.bincount(block)[block] == 1
        best = float(np.max(np.abs(vals[single]), initial=0.0))
        if not single.all():
            n = -(-self.dim // h)
            shared = ~single
            members, slot = np.unique(block[shared], return_inverse=True)
            stack = np.zeros((len(members), n, n), dtype=complex)
            stack[slot, rows[shared] // h, cols[shared] // h] = vals[shared]
            best = max(best, float(np.max(np.linalg.norm(stack, 2, axis=(1, 2)))))
        return best

    def gap(self, other: "Band", keep=None) -> tuple[float, float]:
        """(absolute, relative) gap between float bands L = self and R = other, compressed to keep.

        absolute is (L - R).norm(keep).  relative is the largest |L - R| / (|L| + |R|)
        over the kept entries, an entry where both sides are 0 counting 0.  When
        each entry of L and of R is one rounded product, |L| + |R| is the
        componentwise bound of Higham (Accuracy and Stability of Numerical
        Algorithms, 2002, 3.5) on its rounding error, so a correct identity reads
        a few units of roundoff whatever the size of its entries.  A non-finite
        kept entry of either side, or a scale |L| + |R| past float range, makes
        both inf, never small, as in :meth:`norm`; no arithmetic warning is raised.
        Both are measured in one pass over the kept entries, without forming L - R
        as a band.
        """
        self._check(other)
        L, R = self._diags, other._diags
        kept, worst = {}, 0.0
        # inf and nan are caught by the scale test
        with np.errstate(over="ignore", invalid="ignore"):
            for d, r in self._kept_rows(keep, {**L, **R}).items():
                a, b = L[d][r] if d in L else 0j, R[d][r] if d in R else 0j
                scale = np.abs(a) + np.abs(b)
                if not math.isfinite(scale.max(initial=0.0)):
                    return math.inf, math.inf
                v = a - b
                kept[d], diff = (r, v), np.abs(v)
                # a zero scale has a zero difference: dividing by the least float keeps it 0
                worst = max(worst, float((diff / np.maximum(scale, _TINY)).max(initial=0.0)))
            # one offset makes each entry its own block, and finite sides give no nan
            absolute = float(diff.max(initial=0.0)) if len(kept) == 1 else self._float_norm(kept)
        return absolute, worst


def _band(dim: int, exact: bool, diags: dict) -> Band:
    """A Band holding diags as given, for operations whose diagonals are already in
    stored form at offsets |d| < dim; skips the conversion and filter of ``Band(...)``."""
    out = object.__new__(Band)
    out.dim, out.exact, out._diags = dim, exact, diags
    return out


def _largest(v: np.ndarray) -> float:
    """max |v| over float entries, 0 for none; inf if any entry is not finite."""
    best = float(np.max(np.abs(v), initial=0.0))
    return math.inf if math.isnan(best) else best


def adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose; exact entries stay exact."""
    return np.conj(M).T


def compress(M: np.ndarray, indices) -> np.ndarray:
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        return M[:0, :0]
    return M[np.ix_(idx, idx)]


def defect_norm(M: np.ndarray):
    """Exact matrices: max entry magnitude (a Fraction); floats: 2-norm."""
    exact = M.dtype == object
    if M.size == 0:
        return Fraction(0) if exact else 0.0
    if exact:
        return max(exact_magnitude(v) for v in M.flat)
    return float(np.linalg.norm(M, 2))


def to_float(M: np.ndarray) -> np.ndarray:
    return np.array(M, dtype=complex)


def max_entry_gap(A: np.ndarray, B: np.ndarray):
    """Entrywise max |A - B|, exact when both operands are exact."""
    D = A - B
    if D.dtype == object:
        return max((exact_magnitude(v) for v in D.flat), default=Fraction(0))
    return float(np.max(np.abs(D))) if D.size else 0.0
