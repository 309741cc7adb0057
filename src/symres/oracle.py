"""Independent ground truth: Macaulay-matrix resultants over exact rationals,
and common-root witnesses for symmetric cubic gradient systems.

The Macaulay construction used here, pinned for reproducibility among the
classical variants: at critical degree nu = sum(d_i - 1) + 1, columns are the
degree-nu monomials in canonical (descending grevlex) order; each column
monomial x^beta is assigned to the least index i with x_i^(d_i) dividing
x^beta, and contributes the row (x^beta / x_i^(d_i)) * F_i. The resultant is
det(M)/det(M'), where M' restricts rows and columns to the monomials
divisible by x_i^(d_i) for at least two indices i. Rows are kept in column
order, which fixes the sign so that R{x_1^(d_1),...,x_n^(d_n)} = 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add
from typing import Iterable, Optional, Sequence, Union

from .polycore import MatrixSizeError, MultiPoly, QuadExt, Scalar, _exact, monomials_of_degree
from .symcubic import SymmetricCubic

#: Size budget for a Macaulay matrix, in entries.
MAX_MATRIX_ENTRIES = 10 ** 5


def check_macaulay_size(degrees: Iterable[int]) -> None:
    """Refuse (MatrixSizeError) a Macaulay matrix over MAX_MATRIX_ENTRIES from
    the degrees alone, before any form is built. Its size is C(nu+n-1, n-1),
    nu = sum(d_i - 1) + 1. No prefix of a system has a larger matrix (each
    added form adds a variable and does not lower nu), so the degrees are
    read lazily and the check stops at the first prefix over the limit: a
    few steps at any n."""
    n, nu = 0, 1
    for d in degrees:
        n, nu = n + 1, nu + d - 1
        count = math.comb(nu + n - 1, n - 1)
        if count * count > MAX_MATRIX_ENTRIES:
            raise MatrixSizeError(f"Macaulay matrix would have at least {count}^2 "
                                  f"entries (limit {MAX_MATRIX_ENTRIES})")


# ---------------------------------------------------------------------------
# determinants

def det_bareiss(rows: list[list[int]]) -> int:
    """Determinant of a dense integer matrix by fraction-free Bareiss
    elimination with lazy row scaling, over each row's nonzero span. Given
    m >= N rows of N columns, it is 0 iff their rank is below N.

    Rows never move: step k pivots on the last row to reach column k and
    divides by prevs[k] (1 at step 0, then the previous pivot). Bareiss
    entries are minors of the rows in pivot order, the last pivot their
    determinant; sorting the order by swaps after the loop gives its sign
    (for m > N, a nonzero result is the maximal minor on the pivot rows).
    A row whose pivot-column entry is zero would only be rescaled, by
    prevs[k+1] / prevs[k], so it is left as it is. Row i holds the entries
    of step level[i]: at step k they are stored * prevs[k] / prevs[level[i]],
    exact because the value is a minor. A stale row is caught up only when
    used: as the pivot row by that formula, and with a nonzero factor by the
    ordinary update divided by prevs[level[i]] in place of prevs[k] (the
    prevs[k] cancels). Scaling keeps zeros zero.

    Rows not yet pivots are zero left of column k: led[k] holds those whose
    first nonzero is in column k, the pivot and the rows to update, and an
    update stops at the larger end (end[i] is one past row i's last
    nonzero). A zero row is dropped; the result is 0 once column k has no
    candidate pivot row or fewer nonzero rows are left than columns (for a
    square matrix: any zero row).
    """
    m = [row[:] for row in rows]
    n = len(m[0]) if m else 0
    columns = range(n)
    led: list[list[int]] = [[] for _ in columns]
    end = []
    for i, row in enumerate(m):
        nonzero = list(compress(columns, row))
        if nonzero:
            led[nonzero[0]].append(i)
        end.append(nonzero[-1] + 1 if nonzero else 0)
    live = sum(map(len, led))
    prevs, level, order = [1], [0] * len(m), []
    for k in columns:
        below = led[k]
        if not below or live < n - k:
            return 0
        p = below.pop()
        order.append(p)
        live -= 1
        row_k, end_k = m[p], end[p]
        if level[p] != k:
            now, then = prevs[k], prevs[level[p]]
            for j in range(k, end_k):
                row_k[j] = row_k[j] * now // then
        pivot = row_k[k]
        for i in below:
            row_i = m[i]
            factor, divisor = row_i[k], prevs[level[i]]
            stop = end[i] = max(end[i], end_k)
            for j in range(k + 1, stop):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // divisor
            row_i[k] = 0  # frees the factor: entries left of the pivot are never read
            level[i] = k + 1
            first = next((j for j in range(k + 1, stop) if row_i[j]), None)
            if first is None:
                live -= 1
            else:
                led[first].append(i)
        prevs.append(pivot)
    sign, perm = 1, sorted(columns, key=order.__getitem__)
    for j in columns:
        while perm[j] != j:
            i = perm[j]
            perm[j], perm[i] = perm[i], i
            sign = -sign
    return sign * prevs[-1]


def det_rational(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix: clear denominators per row, then Bareiss."""
    scale = 1
    int_rows = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        int_rows.append([int(x * lcm) for x in row])
    return Fraction(det_bareiss(int_rows), scale)


# ---------------------------------------------------------------------------
# Macaulay resultant

@dataclass(frozen=True)
class MacaulaySystem:
    """n homogeneous forms in n variables with their degrees."""

    forms: tuple[MultiPoly, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.forms) != len(self.degrees):
            raise ValueError("forms and degrees length mismatch")
        n = len(self.forms)
        for i, (f, d) in enumerate(zip(self.forms, self.degrees)):
            if f.num_vars != n:
                raise ValueError(f"form {i} has {f.num_vars} variables, expected {n}")
            if d < 1:
                raise ValueError(f"degree {d} of form {i} must be positive")
            if not f.is_zero() and (not f.is_homogeneous() or f.total_degree() != d):
                raise ValueError(f"form {i} is not homogeneous of degree {d}")

    @classmethod
    def from_forms(cls, forms: Sequence[MultiPoly]) -> "MacaulaySystem":
        degrees = []
        for i, f in enumerate(forms):
            if f.is_zero():
                raise ValueError(f"form {i} is zero; specify degrees explicitly")
            degrees.append(f.total_degree())
        return cls(tuple(forms), tuple(degrees))


def _integer_forms(forms, degrees):
    """The terms {exponents: int} of each form times the lcm c_i of its
    coefficient denominators, and the scale prod c_i^(e_i),
    e_i = prod_{j != i} d_j, by which the integer forms' resultant exceeds
    the given one: the resultant is homogeneous of degree e_i in the
    coefficients of form i (Macaulay), and e_i is the number of rows of
    form i that M' leaves out."""
    total = math.prod(degrees)
    cleared, scale = [], 1
    for f, d in zip(forms, degrees):
        lcm = math.lcm(*(c.denominator for c in f.terms.values()))
        cleared.append({e: c.numerator * (lcm // c.denominator) for e, c in f.terms.items()})
        scale *= lcm ** (total // d)
    return cleared, scale


@functools.lru_cache(maxsize=8)
def _template(degrees: tuple[int, ...]):
    """What the Macaulay matrices take from the degrees alone: per column
    x^beta (canonical order), least i first, a row x^alpha * F_i for each i
    with x_i^(d_i) | x^beta (alpha = beta - d_i*e_i), as i and a map from
    each degree-d_i monomial to its column; the column count; the
    non-reduced columns. Each column's first row makes M; all rows, the full
    matrix."""
    n, nu = len(degrees), sum(d - 1 for d in degrees) + 1
    col_index = {mono: i for i, mono in enumerate(monomials_of_degree(n, nu))}
    monomials = {d: monomials_of_degree(n, d) for d in set(degrees)}
    columns, non_reduced = [], []
    for ci, beta in enumerate(col_index):
        rows = []
        for i, d in enumerate(degrees):
            if beta[i] >= d:
                alpha = beta[:i] + (beta[i] - d,) + beta[i + 1:]
                rows.append((i, {e: col_index[tuple(map(add, e, alpha))] for e in monomials[d]}))
        if len(rows) >= 2:
            non_reduced.append(ci)
        columns.append(tuple(rows))
    return tuple(columns), len(col_index), tuple(non_reduced)


def _fill(forms, rows, size) -> list[list[int]]:
    """Fresh matrix rows of forms given as integer terms {exponents: int},
    one per template row (i, columns)."""
    matrix = []
    for i, columns in rows:
        row = [0] * size
        for exps, c in forms[i].items():
            row[columns[exps]] = c
        matrix.append(row)
    return matrix


def _build_matrix(forms, degrees):
    """Macaulay rows (column order) of forms given as integer terms
    {exponents: int}, and the non-reduced column indices: fresh lists."""
    columns, size, non_reduced = _template(tuple(degrees))
    return _fill(forms, [rows[0] for rows in columns], size), list(non_reduced)


def _rank_deficient(forms, degrees) -> bool:
    """Whether the full Macaulay matrix, every row x^alpha * F_i with
    |alpha| = nu - d_i, has rank below its N columns: by Macaulay's theorem
    (Cox-Little-O'Shea, Using Algebraic Geometry, Ch. 3) exactly when the
    forms have a common projective zero, i.e. when the resultant is 0."""
    columns, size, _ = _template(tuple(degrees))
    return det_bareiss(_fill(forms, [row for rows in columns for row in rows], size)) == 0


def _det_ratio(rows, non_reduced) -> Optional[Fraction]:
    """det(M)/det(M'), or None when the denominator minor vanishes."""
    det_sub = det_bareiss([[rows[r][c] for c in non_reduced] for r in non_reduced])
    if det_sub == 0:
        return None
    return Fraction(det_bareiss(rows), det_sub)


def _substitution_matrix(seed: int, n: int) -> list[list[int]]:
    """Retry matrix, entries in -2..2, from a self-contained 64-bit LCG, so
    it is identical across platforms and library versions."""
    state = (seed * 0x9E3779B97F4A7C15 + 1) & (2 ** 64 - 1)
    entries = []
    for _ in range(n * n):
        state = (state * 6364136223846793005 + 1442695040888963407) & (2 ** 64 - 1)
        entries.append((state >> 33) % 5 - 2)
    return [entries[i:i + n] for i in range(0, n * n, n)]


def _pencil_value(rows, non_reduced) -> Fraction:
    """Resultant via the diagonal pencil, for denominators that never unstick.

    Adding t to every diagonal entry realizes the deformed system
    {F_i + t*x_i^(d_i)}, whose resultant R(t) = det(M+tI)/det(M'+tI) is a
    polynomial in t of degree D = N - N', the number of reduced columns. R is
    sampled at t = 1, 2, ..., skipping the at most N' roots of the monic
    det(M'+tI), and its D+1 samples are evaluated at t = 0 by Neville's
    scheme.
    """
    degree = len(rows) - len(non_reduced)
    shifted = [row[:] for row in rows]
    ts, values, t = [], [], 0
    while len(ts) <= degree:
        t += 1
        for r, row in enumerate(shifted):
            row[r] += 1
        value = _det_ratio(shifted, non_reduced)
        if value is not None:
            ts.append(t)
            values.append(value)
    for k in range(1, len(ts)):
        for i in range(len(ts) - k):
            values[i] = (ts[i + k] * values[i] - ts[i] * values[i + 1]) / (ts[i + k] - ts[i])
    return values[0]


def macaulay_resultant(system: MacaulaySystem) -> Scalar:
    """Macaulay-normalized resultant of the system, exact.

    Strategy, on the integer forms: direct determinant ratio; if the
    denominator minor vanishes, retry under deterministic invertible
    substitutions x -> T*x (seeds 1..8, entries in -2..2), dividing out
    det(T)^(d_1*...*d_n). Positive-dimensional degenerations defeat every
    retry: then 0 when the full Macaulay matrix is rank deficient
    (_rank_deficient), else the diagonal pencil, which always resolves. The
    certificate follows the retries because on a full-rank matrix it costs
    far more than they do (seconds at n = 5). The homogeneity scale is
    divided out last.
    """
    degrees = list(system.degrees)
    n = len(degrees)
    check_macaulay_size(degrees)
    forms, scale = _integer_forms(system.forms, degrees)
    matrix = _build_matrix(forms, degrees)
    value = _det_ratio(*matrix)
    if value is not None:
        return value / scale
    for s in range(1, 9):
        transform = _substitution_matrix(s, n)
        det_t = det_bareiss(transform)
        if det_t == 0:
            continue
        substituted = [MultiPoly(n, f).substitute_linear(transform) for f in forms]
        value = _det_ratio(*_build_matrix(_integer_forms(substituted, degrees)[0], degrees))
        if value is not None:
            return value / (scale * det_t ** math.prod(degrees))
    if _rank_deficient(forms, degrees):
        return Fraction(0)
    return _pencil_value(*matrix) / scale


# ---------------------------------------------------------------------------
# common-root witnesses

Coordinate = Union[Fraction, QuadExt]


@dataclass(frozen=True)
class RootWitness:
    """A nonzero point where all gradient forms vanish.

    ``pattern`` is (k, t, u) when k coordinates equal t and the rest equal u;
    None for the fallback family whose coordinates take three values.
    """

    point: tuple[Coordinate, ...]
    pattern: Optional[tuple[int, Coordinate, Coordinate]]


def root_witness(sc: SymmetricCubic) -> Optional[RootWitness]:
    """Find a nontrivial common root of the gradient system, if any.

    Two-value patterns come first: k coordinates t, the rest u. Every
    gradient form is a3*z^2 - c*s1*z + K at z = t or z = u (c = a2 + a3),
    so the two slots differ by (t - u)*(alpha*t + beta*u), alpha = a3 - c*k,
    beta = a3 - c*(n-k). So pattern k has one candidate: at k = 0 the
    all-equal point (0, 1); else the root of alpha*t + beta*u, which is
    (-beta/alpha, 1), or (1, 0) when alpha = 0. With alpha = beta = 0 both
    slots are one square, of s1 (a3 = c = 0) or of t + u (n = 2k), and the
    candidate is the s1 = 0 point ((k-n)/k, 1); were the square 0, k = 0
    would already solve. k = n adds no root.
    No k is searched. The t-slot P(k) at (-beta, alpha) is linear in
    m = (n-2k)^2; read at k = 0 and k = 1, it vanishes at k >= 1 first at
    k = (n - r)/2 for the integer r with r^2 = m, or everywhere (then
    k = 1). The candidate at k = 0, then at that k, is returned when it
    solves every slot.
    When that finds nothing and a3 = 0, the family s1 = s2 = 0 always
    contains a root: (1, w, conj(w), 0, ..., 0) with w a primitive cube root
    of unity.
    Returns None exactly when the canonical resultant is nonzero.
    """
    n, a3, c = sc.n, sc.a3, sc.a2 + sc.a3
    one = Fraction(1)

    def slots(k, t, u):
        """The gradient at a t-slot and a u-slot of (t,)*k + (u,)*(n-k)."""
        s2 = math.comb(k, 2) * t * t + k * (n - k) * t * u + math.comb(n - k, 2) * u * u
        form = sc.gradient_given(k * t + (n - k) * u, s2)
        return form(t), form(u)

    p0 = slots(0, c * n - a3, a3)[0]
    drop = p0 - slots(1, c * (n - 1) - a3, a3 - c)[0]  # 4*(n-1) times P's slope in m
    ks = [0]
    if drop:
        m = n * n - 4 * (n - 1) * p0 / drop
        r = math.isqrt(max(m.numerator, 0))
        if m == r * r and r <= n - 2 and (n - r) % 2 == 0:
            ks.append((n - r) // 2)
    elif not p0:
        ks.append(1)
    for k in ks:
        alpha, beta = a3 - c * k, a3 - c * (n - k)
        if k == 0:
            t, u = Fraction(0), one
        elif alpha:
            t, u = -beta / alpha, one
        else:
            t, u = (one, Fraction(0)) if beta else (Fraction(k - n, k), one)
        at_t, at_u = slots(k, t, u)
        if at_u == 0 and (k == 0 or at_t == 0):
            return RootWitness(point=(t,) * k + (u,) * (n - k), pattern=(k, t, u))
    if sc.a3 == 0:
        omega = QuadExt(Fraction(-1, 2), Fraction(1, 2), Fraction(-3))
        zero = QuadExt.lift(0, Fraction(-3))
        point = (QuadExt.lift(1, Fraction(-3)), omega, omega.conjugate()) + (zero,) * (n - 3)
        return RootWitness(point=point, pattern=None)
    return None


def verify_witness(sc: SymmetricCubic, witness: RootWitness) -> bool:
    """True iff the point is nonzero and every gradient form vanishes there."""
    point = [x if isinstance(x, QuadExt) else _exact(x) for x in witness.point]
    if len(point) != sc.n or all(x == 0 for x in point):
        return False
    s1 = sum(point)
    form = sc.gradient_given(s1, (s1 * s1 - sum(x * x for x in point)) * Fraction(1, 2))
    return all(form(x) == 0 for x in point)
