"""Small exact matrices over a field (FqElem or RatFrac entries).

Everything is immutable and hashable.  One Gauss-Jordan reduction,
_gauss_jordan, drives det, inverse and nullspace; entries are field
elements, so no pivoting strategy beyond "first nonzero" is needed.
Products and elimination skip the terms with a zero factor: the group
witnesses are the identity plus a few entries, and zero is the additive
identity of normalised scalars, so every value is the same as with the
full sums.
Powers go through gf.power, the library's one binary-power routine:
M^k makes floor(log2 k) squarings plus popcount(k) - 1 products, and the
identity is built only for k = 0.
"""

from __future__ import annotations

from .errors import SizeMismatch, Singular
from .gf import FqElem, power
from .polyring import RatFrac


def zero_like(x):
    if isinstance(x, FqElem):
        return x.field.zero
    if isinstance(x, RatFrac):
        return RatFrac.zero(x.field)
    raise TypeError(f"unsupported scalar {x!r}")


def one_like(x):
    if isinstance(x, FqElem):
        return x.field.one
    if isinstance(x, RatFrac):
        return RatFrac.one(x.field)
    raise TypeError(f"unsupported scalar {x!r}")


class Mat:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise SizeMismatch("ragged rows")
        self.rows = rows

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @classmethod
    def identity(cls, n, one, zero):
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def block_diag(cls, blocks, zero):
        n = sum(b.nrows for b in blocks)
        rows = [[zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[off + i][off + j] = b[i, j]
            off += b.nrows
        return cls(rows)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise SizeMismatch("inner dimensions differ")
            bt = other.transpose().rows
            return Mat(
                [[_dot(row, col) for col in bt] for row in self.rows]
            )
        # scalar on the right
        return Mat([[x * other for x in row] for row in self.rows])

    def __rmul__(self, other):
        return Mat([[other * x for x in row] for row in self.rows])

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise SizeMismatch("shapes differ")
        return Mat(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat([[-x for x in row] for row in self.rows])

    def __pow__(self, k: int):
        if not self.is_square:
            raise SizeMismatch("power of a non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        if k:
            return power(self, k, None)
        x = self.rows[0][0]
        return Mat.identity(self.nrows, one_like(x), zero_like(x))

    def transpose(self):
        return Mat(list(zip(*self.rows))) if self.rows else self

    def trace(self):
        return _sum(self.rows[i][i] for i in range(self.nrows))

    def map(self, fn):
        return Mat([[fn(x) for x in row] for row in self.rows])

    def det(self):
        """Product of the pivots, negated for an odd number of row swaps."""
        if not self.is_square:
            raise SizeMismatch("determinant of a non-square matrix")
        n = self.nrows
        pivots, values, swaps = _gauss_jordan([list(r) for r in self.rows], n)
        if len(pivots) < n:
            return zero_like(self.rows[0][0])
        det = values[0]
        for v in values[1:]:
            det = det * v
        return -det if swaps % 2 else det

    def inverse(self):
        """The right half of [A | I] after reducing its left half to I."""
        if not self.is_square:
            raise SizeMismatch("inverse of a non-square matrix")
        n = self.nrows
        one = one_like(self.rows[0][0])
        zero = zero_like(self.rows[0][0])
        a = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(self.rows)]
        if len(_gauss_jordan(a, n)[0]) < n:
            raise Singular("matrix is singular")
        return Mat([row[n:] for row in a])

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return ";".join(",".join(str(x) for x in row) for row in self.rows)

    def __repr__(self):
        return f"Mat({self})"


def _dot(row, col):
    acc = None
    for x, y in zip(row, col):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    return zero_like(row[0]) if acc is None else acc


def _sum(items):
    it = iter(items)
    acc = next(it)
    for x in it:
        acc = acc + x
    return acc


def parse_matrix(text: str, entry_parser) -> Mat:
    rows = []
    for row_text in text.strip().split(";"):
        rows.append([entry_parser(cell) for cell in row_text.split(",")])
    return Mat(rows)


def _gauss_jordan(a, ncols):
    """Reduce the rows a (lists of field scalars, changed in place) to
    reduced row echelon form on their first ncols columns.

    Column by column: the first row at or below the next pivot row with a
    nonzero entry is swapped up, scaled to a leading 1, and cleared from
    every other row.  Returns the pivot columns, each pivot's value before
    scaling, and the number of swaps.
    """
    m = len(a)
    one = one_like(a[0][0])
    pivots, values, swaps = [], [], 0
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        values.append(a[r][col])
        inv = one / a[r][col]
        a[r] = [x * inv if x else x for x in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return pivots, values, swaps


def nullspace(rows):
    """Basis of the right kernel of a matrix given as lists of field scalars.

    Returns a list of vectors (lists), deterministic order: free columns
    ascending, each basis vector has a 1 in its free column.
    """
    if not rows:
        return []
    n = len(rows[0])
    one = one_like(rows[0][0])
    zero = zero_like(rows[0][0])
    a = [list(r) for r in rows]
    pivots = _gauss_jordan(a, n)[0]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for prow, pcol in enumerate(pivots):
            v[pcol] = -a[prow][fc]
        basis.append(v)
    return basis
