"""Dense exact linear algebra over cyclotomic fields, for the test oracles.

Matrices are immutable tuples of rows of Cyclotomic entries.  All
algorithms are exact.  Every vector a kernel produces is scaled so its
first nonzero coordinate is 1, so results are deterministic.

The package never builds a matrix: braidings come from characters
(nichols.reps, nichols.braidspace).  The oracles build their dense
representations and simultaneous diagonalization on this module.
"""

from __future__ import annotations

from fractions import Fraction

from exactfield_oracle import Cyclotomic, ONE, ZERO


def as_cyclotomic(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic(1, (x,))
    raise TypeError("cannot interpret %r as a field element" % (x,))


class Matrix:
    """Immutable dense matrix over the cyclotomic numbers."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        rows = tuple(tuple(as_cyclotomic(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def from_columns(cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows])

    def scale(self, c) -> "Matrix":
        c = as_cyclotomic(c)
        return Matrix([[c * a for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.ncols
        out = []
        for row in self.rows:
            acc = [ZERO] * cols
            for t, a in enumerate(row):
                if not a:
                    continue
                orow = other.rows[t]
                for j in range(cols):
                    if orow[j]:
                        acc[j] = acc[j] + a * orow[j]
            out.append(acc)
        return Matrix(out)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        result = Matrix.identity(self.nrows)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def apply(self, vec) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(
            sum((a * v for a, v in zip(row, vec) if a and v), ZERO) for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.ncols)])

    def trace(self) -> Cyclotomic:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def is_scalar(self):
        """The scalar c with self = c * identity, or None."""
        if self.nrows != self.ncols:
            return None
        c = self.rows[0][0]
        for i in range(self.nrows):
            for j in range(self.ncols):
                if i == j:
                    if self.rows[i][j] != c:
                        return None
                elif self.rows[i][j]:
                    return None
        return c

    def is_identity(self) -> bool:
        return self.is_scalar() == ONE

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __hash__(self) -> int:
        return hash(tuple(tuple(str(e) for e in row) for row in self.rows))

    def __repr__(self) -> str:
        return "Matrix([%s])" % "; ".join(
            ", ".join(str(e) for e in row) for row in self.rows)


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form; returns (Matrix, pivot column indices)."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.shape
    pivots = []
    prow = 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, nrows):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[prow], rows[pivot] = rows[pivot], rows[prow]
        inv = rows[prow][col].inverse()
        rows[prow] = [inv * e for e in rows[prow]]
        for r in range(nrows):
            if r != prow and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return Matrix(rows), tuple(pivots)


def _normalize(vec) -> tuple:
    for e in vec:
        if e:
            inv = e.inverse()
            return tuple(inv * x for x in vec)
    return tuple(vec)


def kernel(m: Matrix) -> list:
    """Basis of the null space, one vector per free column, deterministic."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * m.ncols
        vec[f] = ONE
        for row_idx, p in enumerate(pivots):
            vec[p] = -reduced[row_idx][f]
        basis.append(_normalize(vec))
    return basis


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; the first factor varies slowest."""
    out = []
    for i in range(a.nrows):
        for p in range(b.nrows):
            row = []
            for j in range(a.ncols):
                aij = a.rows[i][j]
                if aij:
                    row.extend(aij * bq for bq in b.rows[p])
                else:
                    row.extend([ZERO] * b.ncols)
            out.append(row)
    return Matrix(out)
