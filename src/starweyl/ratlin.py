"""Exact dense linear algebra over Q and Q(i).

All lattice and parameter computations in this package must be exact, so
this module provides the small amount of linear algebra that has to run
over the rationals: characteristic polynomials, ranks, solves, integer
Smith form.  Matrices are tuples of tuples of Fraction (or
GaussianRational); everything here is O(n^3) with n <= 12, so plain
Gaussian elimination with exact pivots is all we need.  Floating point
work lives in numpy over in the matrix modules, never here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # agree with Fraction when the imaginary part vanishes
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def to_complex(x):
    """Exact scalar (int / Fraction / GaussianRational) to builtin complex."""
    if isinstance(x, GaussianRational):
        return complex(x)
    return complex(Fraction(x))


def format_rational(q) -> str:
    """Render an exact scalar as "p/q" (rationals) or "p/q+r/si" (Gaussian)."""
    if isinstance(q, GaussianRational):
        if q.im == 0:
            return format_rational(q.re)
        return f"{format_rational(q.re)}{'+' if q.im >= 0 else '-'}{format_rational(abs(q.im))}i"
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str):
    """Inverse of format_rational.  Accepts "p", "p/q" and "a/b±c/di"."""
    s = s.strip().replace(" ", "")
    if s.endswith("i"):
        body = s[:-1]
        # split at the last +/- that is not a leading sign or part of "/"
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part, im_part = body[:k], body[k] + body[k + 1:]
                break
        else:
            re_part, im_part = "0", body if body not in ("", "+", "-") else body + "1"
        if im_part in ("", "+", "-"):
            im_part += "1"
        return GaussianRational(Fraction(re_part), Fraction(im_part))
    return Fraction(s)


# ---------------------------------------------------------------------------
# matrices as tuples of tuples


def mat(rows):
    return tuple(tuple(row) for row in rows)


def identity(n):
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zeros(n):
    return ((Fraction(0),) * n,) * n


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k, "shape mismatch"
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m))
        for i in range(n)
    )


def transpose(a):
    return tuple(zip(*a))


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def charpoly(a):
    """Monic characteristic polynomial, coefficients highest degree first.

    Faddeev-LeVerrier; only divisions by integers occur, so this is exact
    over any field of characteristic zero.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = mmul(a, m)
        c = -trace(am) / k
        coeffs.append(c)
        m = madd(am, mscale(c, identity(n)))
    return tuple(coeffs)


def det(a):
    n = len(a)
    cp = charpoly(a)
    d = cp[-1]
    return d if n % 2 == 0 else -d


def _rref(rows, ncols=None):
    """Reduced row echelon form by fraction-exact Gauss-Jordan elimination,
    pivoting in the first ncols columns (all by default).  Returns the
    reduced rows, as lists, and the pivot columns."""
    m = [list(row) for row in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def rank(a):
    """Rank by fraction-exact Gauss-Jordan elimination."""
    return len(_rref(a)[1])


def solve(a, b):
    """Solve a @ x = b for square invertible a; b is a matrix (tuple rows)."""
    n = len(a)
    m, pivots = _rref([list(ra) + list(rb) for ra, rb in zip(a, b)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix in exact solve")
    return tuple(tuple(row[n:]) for row in m)


def inv(a):
    return solve(a, identity(len(a)))


def left_pseudo_inverse(phi):
    """(phi^T phi)^(-1) phi^T for a full column rank matrix."""
    pt = transpose(phi)
    return mmul(inv(mmul(pt, phi)), pt)


def exact_key(x) -> tuple:
    """An exact scalar (int, Fraction or GaussianRational) on integers:
    (re numerator, re denominator, im numerator, im denominator), equal
    for equal values (a GaussianRational with zero imaginary part keys
    like its Fraction).  key_complex gives its float."""
    if isinstance(x, GaussianRational):
        return (x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator)
    return (x.numerator, x.denominator, 0, 1)


def key_complex(key) -> complex:
    """The builtin complex of an exact_key, as int / int parts, which round
    exactly as to_complex of its value does."""
    p, q, r, s = key
    return complex(p / q, r / s)


def root_poly_integers(keyed):
    """The monic polynomial with the roots given as (exact_key, multiplicity)
    pairs (in any order, equal keys allowed) on integers: returns
    (d, re, im) such that its coefficient of degree n - k, highest degree
    first, is (re[k] + i im[k]) / d^k.  d is the common denominator of the
    roots, and re[k] + i im[k] is the elementary symmetric polynomial e_k
    of the negated Gaussian integers d * root."""
    keyed = list(keyed)
    d = lcm(*(den for (_, q, _, s), _ in keyed for den in (q, s)))
    re, im = [1], [0]
    for (p, q, r, s), mult in keyed:
        a, b = p * (d // q), r * (d // s)
        for _ in range(mult):
            # multiply by x - (a + i b): c_k <- c_k - (a + i b) c_(k-1)
            prev_re, prev_im = [0] + re, [0] + im
            re = [x - a * y + b * z for x, y, z in zip(re + [0], prev_re, prev_im)]
            im = [x - a * z - b * y for x, y, z in zip(im + [0], prev_re, prev_im)]
    return d, re, im


def poly_from_roots(pairs):
    """Monic polynomial with prescribed (root, multiplicity) pairs, exact.

    Coefficients highest degree first, matching charpoly: Fractions, or
    GaussianRationals after the leading 1 when any root is one.
    """
    pairs = list(pairs)
    d, re, im = root_poly_integers((exact_key(r), mult) for r, mult in pairs)
    if not any(isinstance(r, GaussianRational) for r, _ in pairs):
        return tuple(Fraction(x, d ** k) for k, x in enumerate(re))
    return (Fraction(1),) + tuple(
        GaussianRational(Fraction(x, d ** k), Fraction(y, d ** k))
        for k, (x, y) in enumerate(zip(re, im)) if k)


def smith_diagonal(a):
    """Diagonal of the Smith normal form of an integer matrix."""
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # find a nonzero pivot below/right of (top, top)
        piv = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        while True:
            # euclidean steps shrink the pivot until it divides its row/column
            dirty = False
            for i in range(top + 1, rows):
                while m[i][top] != 0:
                    q = m[i][top] // m[top][top]
                    m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
            for j in range(top + 1, cols):
                while m[top][j] != 0:
                    q = m[top][j] // m[top][top]
                    for row in m:
                        row[j] -= q * row[top]
                    if m[top][j] != 0:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain d1 | d2 | ... (gcd/lcm swaps preserve
    # the equivalence class of a diagonal matrix over Z)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return tuple(diag)
