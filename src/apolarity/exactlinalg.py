"""Exact scalar arithmetic and dense exact linear algebra.

Field elements are plain Python values: ``fractions.Fraction`` over the
rationals, integers in ``[0, p)`` over a prime field.  A ``FieldSpec``
bundles the arithmetic; matrices carry one and refuse to mix scalars from
different fields.  Everything is immutable after construction and all
operations are pure, so values can be shared freely across threads.

Over the rationals the elimination kernel ``_echelon`` works on primitive
integer rows and builds ``Fraction`` values only for its output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldSpec:
    """The rationals, or GF(p) for a prime p.

    Elements are kept in canonical form: reduced ``Fraction`` values
    (the Fraction constructor guarantees positive denominators), or
    residues in ``[0, p)``.
    """

    __slots__ = ("kind", "modulus")

    RATIONALS = "rationals"
    PRIME = "prime-field"

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == self.PRIME:
            if modulus is None or not _is_prime(modulus):
                raise ValueError(f"modulus {modulus!r} is not a prime")
        elif kind == self.RATIONALS:
            if modulus is not None:
                raise ValueError("the rationals take no modulus")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.modulus = modulus

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(cls.RATIONALS)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls(cls.PRIME, p)

    def characteristic(self) -> int:
        return self.modulus if self.kind == self.PRIME else 0

    def normalize(self, x):
        """Coerce an int / Fraction / 'a/b' string into a canonical element."""
        if isinstance(x, str):
            x = Fraction(x)
        if self.kind == self.PRIME:
            if isinstance(x, Fraction):
                return self.div(x.numerator % self.modulus, x.denominator % self.modulus)
            return x % self.modulus
        return x if isinstance(x, Fraction) else Fraction(x)

    def zero(self):
        return 0 if self.kind == self.PRIME else Fraction(0)

    def one(self):
        return 1 if self.kind == self.PRIME else Fraction(1)

    def add(self, a, b):
        return (a + b) % self.modulus if self.kind == self.PRIME else a + b

    def sub(self, a, b):
        return (a - b) % self.modulus if self.kind == self.PRIME else a - b

    def mul(self, a, b):
        return (a * b) % self.modulus if self.kind == self.PRIME else a * b

    def neg(self, a):
        return (-a) % self.modulus if self.kind == self.PRIME else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.kind == self.PRIME:
            return pow(a, -1, self.modulus)
        return Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def require_same(self, other: "FieldSpec"):
        if self != other:
            raise FieldMismatchError(f"cannot mix {self} and {other}")

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return "QQ" if self.kind == self.RATIONALS else f"GF({self.modulus})"


QQ = FieldSpec.rationals()

# Default working field: a prime far above any desk-scale socle degree, so the
# characteristic restriction (char 0 or > d) never bites in practice.
GF_DEFAULT = FieldSpec.prime_field(32003)


# ---------------------------------------------------------------------------
# the elimination kernel on raw row lists


def _sub_multiple(u, f, v, field: FieldSpec):
    """u -= f * v in place, visiting only the nonzero entries of v."""
    p = field.modulus
    if p:
        for j, x in enumerate(v):
            if x:
                u[j] = (u[j] - f * x) % p
    else:
        for j, x in enumerate(v):
            if x:
                u[j] -= f * x


def _scaled(v, a, field: FieldSpec):
    p = field.modulus
    if p:
        return [x * a % p for x in v]
    return [x * a for x in v]


def _primitive(row):
    """An integer row proportional to a row of rationals (ints accepted),
    divided by its content."""
    den = lcm(*(x.denominator for x in row))
    row = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _cross_eliminate(u, f, v, pc):
    """The primitive integer row proportional to pc*u - f*v, which is zero
    where v holds its pivot pc and u holds f."""
    g = gcd(pc, f)
    a, b = pc // g, f // g
    w = [a * x - b * y for x, y in zip(u, v)]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _echelon(rows, field: FieldSpec, reduced=False):
    """Gauss-Jordan elimination with first-nonzero pivot selection.

    Entries must be canonical field elements (ints are accepted over the
    rationals).  Returns (pivot_cols, echelon_rows) with unit pivots; with
    ``reduced`` entries above pivots are cleared too, giving the unique RREF.

    Over the rationals the rows are eliminated fraction-free as primitive
    integer rows and scaled to unit-pivot ``Fraction`` rows only at output.
    Each integer row is a nonzero multiple of the row Fraction elimination
    would hold, so the pivots and the output are the same.
    """
    p = field.modulus
    rows = [list(r) for r in rows] if p else [_primitive(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        pivot = _scaled(rows[pr], field.inv(rows[pr][c]), field) if p else rows[pr]
        rows[pr] = rows[r]
        rows[r] = pivot
        for i in range(0 if reduced else r + 1, nrows):
            f = rows[i][c]
            if f and i != r:
                if p:
                    _sub_multiple(rows[i], f, pivot, field)
                else:
                    rows[i] = _cross_eliminate(rows[i], f, pivot, pivot[c])
        pivot_cols.append(c)
    ech = rows[: len(pivot_cols)]
    if not p:
        ech = [[Fraction(x, row[c]) for x in row] for c, row in zip(pivot_cols, ech)]
    return pivot_cols, ech


def rank_rows(rows, field: FieldSpec, ncols: int | None = None) -> int:
    """Exact rank of a list of row vectors."""
    if not rows or (ncols is not None and ncols == 0):
        return 0
    return len(_echelon(rows, field)[0])


def mat_mul_rows(a_rows, b_rows, field: FieldSpec, b_ncols: int):
    """Row-major product A @ B on raw row lists: each output row is the
    combination of B's rows by the nonzero entries of A's row, reduced mod p
    once at the end over GF(p)."""
    p = field.modulus
    zero = field.zero()
    out = []
    for arow in a_rows:
        acc = [zero] * b_ncols
        for a, brow in zip(arow, b_rows):
            if a:
                acc = [u + a * v for u, v in zip(acc, brow)]
        out.append([u % p for u in acc] if p else acc)
    return out


class Matrix:
    """Dense exact matrix over a FieldSpec, row-major.

    Zero-row and zero-column shapes are legal (the rank is 0); ``rows`` must
    all share the declared column count.
    """

    __slots__ = ("nrows", "ncols", "rows", "field")

    def __init__(self, rows, field: FieldSpec, ncols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            ncols_seen = {len(r) for r in rows}
            if len(ncols_seen) != 1:
                raise ValueError("ragged rows")
            if ncols is not None and ncols != ncols_seen.pop():
                raise ValueError("declared column count does not match rows")
            self.ncols = len(rows[0])
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols
        self.nrows = len(rows)
        self.rows = rows
        self.field = field

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], field, n)

    @classmethod
    def zero(cls, nrows: int, ncols: int, field: FieldSpec) -> "Matrix":
        z = field.zero()
        return cls([[z] * ncols for _ in range(nrows)], field, ncols)

    def transpose(self) -> "Matrix":
        return Matrix([list(col) for col in zip(*self.rows)] if self.rows else [], self.field, self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self.field.require_same(other.field)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return Matrix(mat_mul_rows(self.rows, other.rows, self.field, other.ncols), self.field, other.ncols)

    def column(self, j: int):
        return [row[j] for row in self.rows]

    def rank(self) -> int:
        return rank_rows(self.rows, self.field, self.ncols)

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column, read off the
        RREF: each vector is 1 at its own free column and 0 at the others.

        Vectors are exact: ``M @ v = 0`` holds on the nose.  Free columns are
        visited in ascending order, so the output is deterministic.
        """
        field = self.field
        pivot_cols, ech = _echelon(self.rows, field, reduced=True)
        pivset = set(pivot_cols)
        basis = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            v = [field.zero()] * self.ncols
            v[f] = field.one()
            for c, row in zip(pivot_cols, ech):
                v[c] = field.neg(row[f])
            basis.append(v)
        return basis

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"

