"""Small exact matrices over a field (FqElem or RatFrac entries).

Everything is immutable and hashable; a matrix has at least one row and
one column.  One Gauss-Jordan reduction, _gauss_jordan, drives det,
inverse and nullspace with the scalars' own operators; entries are field
elements, so no pivoting strategy beyond "first nonzero" is needed.
Products over one field with an inner dimension of 2 or 3 read every
term, in column form; the row loop of the other code products,
_frac_product and elimination skip the terms with a zero factor (the
group witnesses are the identity plus a few entries).  Zero is the
additive identity of normalised scalars, so every value is the same
either way.
Mat._mode reads the entries' field and scalar type off them (see _scan).
Products over one field (every entry an FqElem of that field) run on the
integer codes through the field's table rows; over one field's fractions
(every entry a RatFrac), on polynomial numerators, each row of the left
factor and column of the right one cleared over the lcm of its
denominators, and boxed once, at the end.
Entries over two fields or of two scalar types raise MixedFields; any
other entry raises TypeError.
A Mat over one field is its code rows and its field.  The code product,
the small inverse, the form inverse (groups.GrpElem.inverse), transpose,
the scalar product on either side and the code maps (_mapped, _permuted)
read and write codes only and leave the rows slot unset; the first read
of rows (an entry, the hash, trace, det, str) boxes them once, through
__getattr__, which only an unset slot reaches.  A Mat built from entries
holds them in the slot and pays nothing for this; its first scan stores
the codes it read beside them, or False over fractions, so a Mat is
scanned at most once.  An inverse over one field of size n <= 3 is
the adjugate times det^-1, with no pivots; larger ones and fractions go
through _gauss_jordan.
Powers go through gf.power, the library's one binary-power routine:
M^k makes floor(log2 k) squarings plus popcount(k) - 1 products, and the
identity is built only for k = 0.
"""

from __future__ import annotations

from .errors import CertificateMismatch, MixedFields, SizeMismatch, Singular
from .gf import FqElem, power
from .polyring import Poly, RatFrac, poly_gcd


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
    __slots__ = ("rows", "_codes", "_field")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise SizeMismatch("matrix with no entries")
        if any(len(r) != len(rows[0]) for r in rows):
            raise SizeMismatch("ragged rows")
        self.rows, self._codes = rows, None

    @classmethod
    def _of(cls, rows, codes=None):
        """A Mat on rows that are already a rectangular tuple of tuples;
        codes=False marks them as fractions over one field, never scanned."""
        m = object.__new__(cls)
        m.rows, m._codes = rows, codes
        return m

    @classmethod
    def _coded(cls, field, codes):
        """The Mat over field with these code rows (a tuple of tuples); its
        rows are boxed on first read."""
        m = object.__new__(cls)
        m._field, m._codes = field, codes
        return m

    def __getattr__(self, name):
        # only an unset slot gets here: the rows of a coded Mat, boxed once
        if name != "rows":
            raise AttributeError(name)
        box = self._field._elem
        self.rows = rows = tuple([tuple([box[c] for c in row]) for row in self._codes])
        return rows

    def _mapped(self, table):
        """The Mat over one field whose codes are table[c] for its codes c."""
        field, codes = self._mode()
        return Mat._coded(field, _map_codes(table, codes))

    def _permuted(self, perm):
        """Rows and columns alike reordered by perm: entry (i, j) is
        self[perm[i], perm[j]].  Kept code rows are reordered instead."""

        def permuted(rows):
            return tuple([tuple([rows[i][j] for j in perm]) for i in perm])

        codes = self._codes
        if codes:
            return Mat._coded(self._field, permuted(codes))
        return Mat._of(permuted(self.rows), codes)

    def _mode(self):
        """(field, code rows) over one field, (field, None) over one field's
        fractions; see _scan.  The slot keeps the code rows, or False over
        fractions, so a Mat is scanned at most once."""
        codes = self._codes
        if codes is None:
            field, codes = _scan(self.rows)
            self._field, self._codes = field, codes or False
        if codes:
            return self._field, codes
        return self.rows[0][0].field, None

    @property
    def nrows(self):
        return len(self._codes or self.rows)

    @property
    def ncols(self):
        return len((self._codes or self.rows)[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @classmethod
    def identity(cls, n, one, zero):
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, Mat):
            # kept code rows on both sides: the kernel, with no scan; any
            # other case is checked (and refused) below
            a, b = self._codes, other._codes
            if a and b:
                field = self._field
                if len(a[0]) == len(b) and other._field is field:
                    return Mat._coded(field, _code_product(field, a, b))
            if self.ncols != other.nrows:
                raise SizeMismatch("inner dimensions differ")
            field, a = self._mode()
            other_field, b = other._mode()
            if other_field is not field or (a is None) is not (b is None):
                raise MixedFields("factors over two fields or of two scalar types")
            if a is not None:
                return Mat._coded(field, _code_product(field, a, b))
            return Mat._of(_frac_product(field, self.rows, other.transpose().rows), False)
        # scalar on the right; over one field, one row of the product table
        if self._codes and type(other) is FqElem and other.field is self._field:
            return self._mapped(other.field._mul[other.code])
        return Mat._of(tuple(tuple(x * other for x in row) for row in self.rows))

    # a scalar on the left: every scalar type of the library commutes
    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise SizeMismatch("shapes differ")
        return Mat._of(
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
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
        codes = self._codes
        if codes:
            return Mat._coded(self._field, tuple(zip(*codes)))
        return Mat._of(tuple(zip(*self.rows)), codes)

    def trace(self):
        return _sum(self.rows[i][i] for i in range(self.nrows))

    def map(self, fn):
        return Mat._of(tuple(tuple(fn(x) for x in row) for row in self.rows))

    def det(self):
        """Product of the pivots, negated for an odd number of row swaps."""
        if not self.is_square:
            raise SizeMismatch("determinant of a non-square matrix")
        n = self.nrows
        self._mode()  # refuses mixed and unsupported entries
        pivots, product, swaps = _gauss_jordan(list(self.rows), n)
        if len(pivots) < n:
            return zero_like(self.rows[0][0])
        return -product if swaps % 2 else product

    def inverse(self):
        """Over one field and for n <= 3 the adjugate times det^-1; else the
        right half of [A | I] after reducing its left half to I."""
        if not self.is_square:
            raise SizeMismatch("inverse of a non-square matrix")
        n = self.nrows
        field, codes = self._mode()
        if codes is not None and n <= 3:
            return Mat._coded(field, _small_inverse(field, codes))
        one, zero = one_like(self.rows[0][0]), zero_like(self.rows[0][0])
        a = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(self.rows)]
        if len(_gauss_jordan(a, n)[0]) < n:
            raise Singular("matrix is singular")
        return Mat._of(tuple(tuple(row[n:]) for row in a), None if codes else False)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return False
        a, b = self._codes, other._codes
        if a and b and self._field is other._field:
            return a == b
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return ";".join(",".join(str(x) for x in row) for row in self.rows)

    def __repr__(self):
        return f"Mat({self})"


def _scan(rows):
    """(field, code rows) when every entry is an FqElem of one field, and
    (field, None) when every entry is a RatFrac over one field.  Entries
    over two fields or of two scalar types raise MixedFields; any other
    entry raises TypeError."""
    x = rows[0][0]
    kind = type(x)
    if kind is not FqElem and kind is not RatFrac:
        raise TypeError(f"unsupported scalar {x!r}")
    field = x.field
    for row in rows:
        for x in row:
            if type(x) is not kind or x.field is not field:
                if type(x) in (FqElem, RatFrac):
                    raise MixedFields("matrix entries over two fields or of two scalar types")
                raise TypeError(f"unsupported scalar {x!r}")
    if kind is not FqElem:
        return field, None
    return field, tuple([tuple([x.code for x in row]) for row in rows])


def _code_product(field, a, b):
    """Code rows of a b.  For an inner dimension of 2 or 3, each row of a
    hoists the table rows of its codes and reads every term of each
    column of b; otherwise row i sums b's rows times a's nonzero codes."""
    add, mul = field._add, field._mul
    inner, out = len(b), []
    if inner == 2:
        cols = list(zip(*b))
        for x0, x1 in a:
            m0, m1 = mul[x0], mul[x1]
            out.append(tuple([add[m0[c0]][m1[c1]] for c0, c1 in cols]))
    elif inner == 3:
        cols = list(zip(*b))
        for x0, x1, x2 in a:
            m0, m1, m2 = mul[x0], mul[x1], mul[x2]
            out.append(tuple([add[add[m0[c0]][m1[c1]]][m2[c2]] for c0, c1, c2 in cols]))
    else:
        for row in a:
            acc = [0] * len(b[0])
            for x, brow in zip(row, b):
                if x:
                    mx = mul[x]
                    acc = [add[s][mx[y]] for s, y in zip(acc, brow)]
            out.append(tuple(acc))
    return tuple(out)


def _small_inverse(field, a):
    """Code rows of the inverse of the n x n code rows a, n <= 3: the
    adjugate (transposed cofactors) times det^-1, det by the first row.
    Raises Singular when det = 0."""
    add, mul, neg = field._add, field._mul, field._neg

    def minor(w, x, y, z):  # w z - x y
        return add[mul[w][z]][neg[mul[x][y]]]

    n = len(a)
    if n == 1:
        det, adj = a[0][0], ((1,),)
    elif n == 2:
        (w, x), (y, z) = a
        det, adj = minor(w, x, y, z), ((z, neg[x]), (neg[y], w))
    else:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        adj = (
            (minor(b1, b2, c1, c2), minor(a2, a1, c2, c1), minor(a1, a2, b1, b2)),
            (minor(b2, b0, c2, c0), minor(a0, a2, c0, c2), minor(a2, a0, b2, b0)),
            (minor(b0, b1, c0, c1), minor(a1, a0, c1, c0), minor(a0, a1, b0, b1)),
        )
        det = add[add[mul[a0][adj[0][0]]][mul[a1][adj[1][0]]]][mul[a2][adj[2][0]]]
    if not det:
        raise Singular("matrix is singular")
    if det == 1:
        return adj
    return _map_codes(mul[field._inv[det]], adj)


def _map_codes(table, codes):
    """The code rows table[c] for the code rows c."""
    return tuple([tuple([table[c] for c in row]) for row in codes])


def _exact(num, den):
    """num / den for a den that divides num; anything else is a fault."""
    quot, rem = divmod(num, den)
    if rem:
        raise CertificateMismatch(f"{den} does not divide {num}")
    return quot


def _cleared(row, one):
    """(L, [L x for x in row]) with L the monic lcm of the row's
    denominators, so every entry becomes a polynomial."""
    lcm = one
    for x in row:
        if not (x.den.is_one or x.den == lcm):
            lcm = x.den if lcm.is_one else lcm * _exact(x.den, poly_gcd(lcm, x.den))
    if lcm.is_one:
        return lcm, [x.num for x in row]
    return lcm, [x.num * _exact(lcm, x.den) if x.num else x.num for x in row]


def _frac_product(field, a, bt):
    """Rows of the product of a and the transpose of bt, both RatFrac over
    one field: row i of a and column j of b cleared to polynomials over
    their lcm denominators L_i and N_j, entry (i, j) the sum of polynomial
    products over L_i N_j, normalised once."""
    one, zero = Poly.one(field), RatFrac.zero(field)
    cols = [_cleared(col, one) for col in bt]
    out = []
    for row in a:
        lrow, xs = _cleared(row, one)
        terms = [(k, x) for k, x in enumerate(xs) if x]
        entries = []
        for ncol, ys in cols:
            acc = None
            for k, x in terms:
                y = ys[k]
                if y:
                    acc = x * y if acc is None else acc + x * y
            den = ncol if lrow.is_one else lrow if ncol.is_one else lrow * ncol
            entries.append(RatFrac(acc, den) if acc else zero)
        out.append(tuple(entries))
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
    """Reduce the rows a (a list of rows of field scalars, changed in place)
    to reduced row echelon form on their first ncols columns, with the
    scalars' own operators.

    Column by column: the first row at or below the next pivot row with a
    nonzero entry is swapped up, scaled to a leading one and cleared from
    every other row with a nonzero entry in its column.  Returns the pivot
    columns, the product of the pivots' values before scaling when every
    row holds a pivot (else None), and the number of swaps.
    """
    m = len(a)
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
        product = lead if product is None else product * lead
        by = lead.inverse()
        a[r] = prow = [x * by if x else x for x in a[r]]
        for i in range(m):
            factor = a[i][col]
            if i != r and factor:
                a[i] = [x - factor * y if y else x for x, y in zip(a[i], prow)]
        pivots.append(col)
    return pivots, product if len(pivots) == m else None, swaps


def nullspace(rows):
    """Basis of the right kernel of a matrix given as lists of field scalars.

    Returns a list of vectors (lists), deterministic order: free columns
    ascending, each basis vector has a 1 in its free column.
    """
    if not rows or not rows[0]:
        return []
    n = len(rows[0])
    one = one_like(rows[0][0])
    zero = zero_like(rows[0][0])
    _scan(rows)  # refuses mixed and unsupported entries
    a = list(rows)
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
