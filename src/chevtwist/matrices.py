"""Small exact matrices over a field (FqElem or RatFrac entries).

Everything is immutable and hashable.  One Gauss-Jordan reduction,
_gauss_jordan, drives det, inverse and nullspace; entries are field
elements, so no pivoting strategy beyond "first nonzero" is needed.
Products and elimination skip the terms with a zero factor: the group
witnesses are the identity plus a few entries, and zero is the additive
identity of normalised scalars, so every value is the same as with the
full sums.
Over one Fq object (every entry an FqElem of that very object) the product
and the elimination run on the integer codes through the field's table rows
and box the results at the end; other entries (RatFrac, mixed or equal but
distinct fields) use the scalars' operators, which raise MixedFields where
the fields differ.  The pivots are the same either way, so every value is
the same.
Powers go through gf.power, the library's one binary-power routine:
M^k makes floor(log2 k) squarings plus popcount(k) - 1 products, and the
identity is built only for k = 0.
"""

from __future__ import annotations

import operator

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

    @classmethod
    def _of(cls, rows):
        """A Mat on rows that are already a rectangular tuple of tuples."""
        m = object.__new__(cls)
        m.rows = rows
        return m

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
            a, b = _field_codes(self.rows), _field_codes(other.rows)
            if a and b and a[0] is b[0]:
                return Mat._of(_code_product(a[0], a[1], b[1]))
            bt = other.transpose().rows
            return Mat._of(tuple(tuple(_dot(row, col) for col in bt) for row in self.rows))
        # scalar on the right
        return Mat._of(tuple(tuple(x * other for x in row) for row in self.rows))

    def __rmul__(self, other):
        return Mat._of(tuple(tuple(other * x for x in row) for row in self.rows))

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise SizeMismatch("shapes differ")
        return Mat._of(
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat._of(tuple(tuple(-x for x in row) for row in self.rows))

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
        return Mat._of(tuple(zip(*self.rows))) if self.rows else self

    def trace(self):
        return _sum(self.rows[i][i] for i in range(self.nrows))

    def map(self, fn):
        return Mat._of(tuple(tuple(fn(x) for x in row) for row in self.rows))

    def det(self):
        """Product of the pivots, negated for an odd number of row swaps."""
        if not self.is_square:
            raise SizeMismatch("determinant of a non-square matrix")
        n = self.nrows
        pivots, product, swaps = _gauss_jordan([list(r) for r in self.rows], n)
        if len(pivots) < n:
            return zero_like(self.rows[0][0])
        return -product if swaps % 2 else product

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
        return Mat._of(tuple(tuple(row[n:]) for row in a))

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


def _field_codes(rows):
    """(field, code rows) when every entry is an FqElem of the one Fq
    object field, else None."""
    field = rows[0][0].field if rows and rows[0] and type(rows[0][0]) is FqElem else None
    for row in rows:
        for x in row:
            if type(x) is not FqElem or x.field is not field:
                return None
    return field and (field, [[x.code for x in row] for row in rows])


def _code_product(field, a, b):
    """Boxed rows of a b: row i sums b's rows times a's nonzero codes."""
    add, mul, box = field._add, field._mul, field._elem
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                mx = mul[x]
                acc = [add[s][mx[y]] for s, y in zip(acc, brow)]
        out.append(tuple([box[s] for s in acc]))
    return tuple(out)


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
    every other row, on codes for rows over one Fq object.  Returns the
    pivot columns, the product of the pivots' values before scaling (None
    when there is no pivot), and the number of swaps.
    """
    m = len(a)
    coded = _field_codes(a)
    if coded is None:
        one = one_like(a[0][0])
        times = operator.mul

        def scaled(row, lead):
            inv = one / lead
            return [x * inv if x else x for x in row]

        def reduced(row, factor, prow):
            return [x - factor * y if y else x for x, y in zip(row, prow)]
    else:
        field, a[:] = coded
        add, mul, neg, inv = field._add, field._mul, field._neg, field._inv

        def times(x, y):
            return mul[x][y]

        def scaled(row, lead):
            by = mul[inv[lead]]
            return [by[x] for x in row]

        def reduced(row, factor, prow):
            by = mul[neg[factor]]
            return [add[x][by[y]] for x, y in zip(row, prow)]

    pivots, product, swaps = [], None, 0
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
        lead = a[r][col]
        product = lead if product is None else times(product, lead)
        a[r] = scaled(a[r], lead)
        for i in range(m):
            if i != r and a[i][col]:
                a[i] = reduced(a[i], a[i][col], a[r])
        pivots.append(col)
    if coded is not None:
        box = field._elem
        a[:] = [[box[x] for x in row] for row in a]
        if pivots:
            product = box[product]
    return pivots, product, swaps


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
