"""Window operators as diagonals times shift powers, plus a few dense helpers.

Every operator of a truncated model is a finite sum sum_d diag(v_d) S**d, the
shape of the crossed product C0(X) x| Z it represents; :class:`Band` stores
one diagonal per offset d.  Exact bands hold dtype=object diagonals over
Fraction/RationalComplex, float bands complex128 ones, and the same numpy
elementwise code serves both.  Dense matrices are made only at the public
dense returns, before :func:`defect_norm`, and for LAPACK; the helpers below
act on those and keep exact values exact.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import exact_magnitude


class Band:
    """Square operator sum_d diag(v_d) S**d; matrix entry (i, i + d) is v_d[i].

    Diagonals have length dim and are indexed by row; entries whose column
    falls outside the matrix are zero, and offsets with |d| >= dim are dropped.
    """

    def __init__(self, dim: int, exact: bool, diags: dict | None = None):
        self.dim = dim
        self.exact = exact
        self.diags = {d: v for d, v in (diags or {}).items() if abs(d) < dim}

    @classmethod
    def identity(cls, dim: int, exact: bool) -> "Band":
        one = Fraction(1) if exact else 1.0 + 0j
        return cls(dim, exact, {0: np.full(dim, one, dtype=object if exact else complex)})

    def _zeros(self, *shape: int) -> np.ndarray:
        if self.exact:
            return np.full(shape, Fraction(0), dtype=object)
        return np.zeros(shape, dtype=complex)

    def _shifted(self, v: np.ndarray, d: int) -> np.ndarray:
        """w[i] = v[i + d], zero where i + d leaves the matrix."""
        out = self._zeros(self.dim)
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
        out = dict(self.diags)
        for d, v in other.diags.items():
            out[d] = op(out[d] if d in out else self._zeros(self.dim), v)
        return Band(self.dim, self.exact, out)

    def __add__(self, other: "Band") -> "Band":
        return self._combine(other, np.add)

    def __sub__(self, other: "Band") -> "Band":
        return self._combine(other, np.subtract)

    def __matmul__(self, other: "Band") -> "Band":
        # (A B)[i, i + d + e] = a_d[i] * b_e[i + d]
        self._check(other)
        out: dict[int, np.ndarray] = {}
        for d, a in self.diags.items():
            for e, b in other.diags.items():
                if abs(d + e) >= self.dim:
                    continue
                term = a * self._shifted(b, d)
                out[d + e] = out[d + e] + term if d + e in out else term
        return Band(self.dim, self.exact, out)

    def scale(self, s) -> "Band":
        s = s if self.exact else complex(s)
        return Band(self.dim, self.exact, {d: s * v for d, v in self.diags.items()})

    def adjoint(self) -> "Band":
        # (A*)[i, i - d] = conj(a_d[i - d])
        return Band(self.dim, self.exact,
                    {-d: np.conj(self._shifted(v, -d)) for d, v in self.diags.items()})

    def as_float(self) -> "Band":
        if not self.exact:
            return self
        return Band(self.dim, False, {d: v.astype(complex) for d, v in self.diags.items()})

    def dense(self) -> np.ndarray:
        out = self._zeros(self.dim, self.dim)
        for d, v in self.diags.items():
            rows = np.arange(max(0, -d), min(self.dim, self.dim - d))
            out[rows, rows + d] = v[rows]
        return out


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
