"""Window operators as diagonals times shift powers, plus a few dense helpers.

Every operator of a truncated model is a finite sum sum_d diag(v_d) S**d, the
shape of the crossed product C0(X) x| Z it represents; :class:`Band` stores
one diagonal per offset d.  Exact bands hold dtype=object diagonals, with
real values as Fraction and complex ones as RationalComplex (the two mix under
numpy's object arithmetic); float bands hold complex128 ones, and the same
numpy elementwise code serves both.  :meth:`Band.norm` measures a band without
making it dense.  Model paths never densify: dense matrices are made only for
the public dense results, and the helpers below act on those, exactly.
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
                for d, v in block.diags.items():
                    rows = block._rows(d)
                    D = d + (j - i) * n
                    if D not in out.diags:
                        out.diags[D] = out._zeros(m * n)
                    out.diags[D][i * n + rows] = v[rows]
        return out

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

    def power(self, k: int) -> "Band":
        """self**k of a one-diagonal band as one band; (self*)**|k| for k < 0."""
        if k < 0:
            return self.power(-k).adjoint()
        if k == 0:
            return Band.identity(self.dim, self.exact)
        # with v at offset n, row i of self**k is v[i] v[i + n] ... v[i + (k - 1) n]
        (n, v), = self.diags.items()
        if k * abs(n) >= self.dim:
            return Band(self.dim, self.exact)
        row = v
        for j in range(1, k):
            row = row * self._shifted(v, j * n)
        return Band(self.dim, self.exact, {k * n: row})

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

    def _rows(self, d: int) -> np.ndarray:
        """Rows i whose entry (i, i + d) lies inside the matrix."""
        return np.arange(max(0, -d), min(self.dim, self.dim - d))

    def dense(self) -> np.ndarray:
        out = self._zeros(self.dim, self.dim)
        for d, v in self.diags.items():
            rows = self._rows(d)
            out[rows, rows + d] = v[rows]
        return out

    def trace(self):
        if 0 not in self.diags:
            return Fraction(0) if self.exact else 0j
        return self.diags[0].sum()

    def norm(self, keep=None):
        """defect_norm of the operator compressed to the rows and columns in keep.

        Exact bands give the largest entry magnitude.  Float bands give the
        2-norm: the kept nonzero entries split into blocks that share no row
        and no column, the matrix is (up to permutations) their direct sum, and
        its 2-norm is the largest block norm, so only blocks of two or more
        entries need an SVD.  A non-finite kept entry gives inf.
        """
        kept = np.ones(self.dim, dtype=bool)
        if keep is not None:
            kept[:] = False
            kept[np.asarray(list(keep), dtype=int)] = True
        rows, cols, vals = [], [], []
        for d, v in self.diags.items():
            r = self._rows(d)
            r = r[kept[r] & kept[r + d]]
            rows.append(r)
            cols.append(r + d)
            vals.append(v[r])
        if self.exact:
            return max((exact_magnitude(x) for part in vals for x in part),
                       default=Fraction(0))
        vals = np.concatenate(vals) if vals else np.zeros(0, dtype=complex)
        if not np.isfinite(vals).all():
            # an overflowed entry: report an unbounded norm, never a small one
            return float("inf")
        nonzero = vals != 0
        if not nonzero.any():
            return 0.0
        return _block_norm(np.concatenate(rows)[nonzero], np.concatenate(cols)[nonzero],
                           vals[nonzero], self.dim)


def _block_norm(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, dim: int) -> float:
    """2-norm of the dim x dim matrix with the given distinct nonzero entries."""
    # row i is node i, column j node dim + j; an entry links its row and column.
    # Min-label propagation with pointer jumping labels the connected blocks.
    a, b = rows, cols + dim
    label = np.arange(2 * dim)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # number the nodes of each block in order, its rows before its columns
    seen = np.zeros(2 * dim, dtype=bool)
    seen[a] = seen[b] = True
    nodes = np.flatnonzero(seen)
    order = np.argsort(label[nodes], kind="stable")
    ranked = label[nodes][order]
    pos = np.empty(2 * dim, dtype=int)
    pos[nodes[order]] = np.arange(len(nodes)) - np.searchsorted(ranked, ranked)
    n_rows = np.bincount(label[nodes[nodes < dim]], minlength=2 * dim)
    n_nodes = np.bincount(label[nodes], minlength=2 * dim)
    block = label[a]
    height, width = n_rows[block], n_nodes[block] - n_rows[block]
    best = 0.0
    for h, w in set(zip(height.tolist(), width.tolist())):
        sel = (height == h) & (width == w)
        if h == w == 1:
            best = max(best, float(np.max(np.abs(vals[sel]))))
            continue
        members, slot = np.unique(block[sel], return_inverse=True)
        stack = np.zeros((len(members), h, w), dtype=complex)
        stack[slot, pos[a[sel]], pos[b[sel]] - h] = vals[sel]
        best = max(best, float(np.max(np.linalg.norm(stack, 2, axis=(1, 2)))))
    return best


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
