"""Sparse exact linear algebra over Q.

Vectors are dicts index -> Fraction (no stored zeros).  Two eliminators share
one pivot rule, the leftmost nonzero coordinate, and insert vectors in a
caller-chosen (hence deterministic) order, with no randomization anywhere:

  * FractionFreeReducer, forward-only integer elimination with content
    stripping (fraction-free, after Bareiss 1968).  It carries every exact
    solve of the builders (solve_columns, called by simplex._solve_stage for
    solve_boundary and symmetric_top_diff) and the rank, kernel and
    membership passes of homology and complexes.
  * SpanReducer, incremental Gauss-Jordan on Fractions whose rows remember
    the combination of inserted vectors that produced them.  It is left to
    the callers that read those combinations: MalcevQuotient and
    minimal_model.
"""

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd

from .lie import clear_denominators

ZERO = Fraction(0)


def vec_add(a, b, scale=Fraction(1)):
    """a + scale*b as a fresh dict."""
    out = dict(a)
    for i, c in b.items():
        acc = out.get(i, ZERO) + scale * c
        if acc == 0:
            out.pop(i, None)
        else:
            out[i] = acc
    return out


def vec_scale(a, scale):
    if scale == 0:
        return {}
    return {i: c * scale for i, c in a.items()}


class SpanReducer:
    """Incremental row-reduced span with combination tracking.

    rows: pivot index -> fully reduced row (row[pivot] == 1)
    combs: pivot index -> dict tag -> Fraction expressing the row as a
           combination of the inserted vectors
    """

    __slots__ = ("rows", "combs")

    def __init__(self):
        self.rows = {}
        self.combs = {}

    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Express v = sum(comb[tag] * inserted[tag]) + residual, with the
        residual having no support on existing pivots.  Returns (residual,
        comb); v is not consumed."""
        v = dict(v)
        comb = {}
        while True:
            hit = None
            for i in v:
                if i in self.rows and (hit is None or i < hit):
                    hit = i
            if hit is None:
                return v, comb
            c = v[hit]
            v = vec_add(v, self.rows[hit], -c)
            comb = vec_add(comb, self.combs[hit], c)

    def insert(self, v, tag):
        """Add v to the span under the given tag.

        Returns (None, comb) when v was already in the span (v equals the
        returned combination), else (pivot, None) after installing the new
        normalized row.
        """
        residual, comb = self.reduce(v)
        if not residual:
            return None, comb
        pivot = min(residual)
        lead = residual[pivot]
        row = vec_scale(residual, 1 / lead)
        rcomb = vec_scale(comb, -1 / lead)
        rcomb = vec_add(rcomb, {tag: Fraction(1)}, Fraction(1) / lead)
        for p, other in self.rows.items():
            c = other.get(pivot)
            if c:
                self.rows[p] = vec_add(other, row, -c)
                self.combs[p] = vec_add(self.combs[p], rcomb, -c)
        self.rows[pivot] = row
        self.combs[pivot] = rcomb
        return pivot, None

    def contains(self, v):
        residual, _ = self.reduce(v)
        return not residual


def kernel_columns(columns):
    """Deterministic kernel basis of the map sending e_j to columns[j].

    One kernel vector per dependent column j: e_j minus the combination of
    earlier independent columns that matches it.
    """
    red = SpanReducer()
    out = []
    for j, col in enumerate(columns):
        pivot, comb = red.insert(col, j)
        if pivot is None:
            k = vec_scale(comb, Fraction(-1))
            k[j] = Fraction(1)
            out.append(k)
    return out


def rank_columns(columns):
    red = SpanReducer()
    for j, col in enumerate(columns):
        red.insert(col, j)
    return red.rank()


def transpose(columns):
    """Row dicts of the matrix whose j-th column is columns[j]."""
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return [rows[i] for i in sorted(rows)]


# ---------------------------------------------------------------------------
# Fraction-free elimination for large systems


def _int_vec(v):
    """Clear denominators and strip content; int dict, deterministic sign."""
    if not v:
        return {}
    out, _ = clear_denominators(v)
    g = gcd(*out.values())
    if g > 1:
        out = {i: c // g for i, c in out.items()}
    if out[min(out)] < 0:
        out = {i: -c for i, c in out.items()}
    return out


class FractionFreeReducer:
    """Forward-only integer elimination with leftmost pivots.

    Rows are integer dicts with content 1 and positive leading entry.
    Elimination uses cross-multiplication (a*row_new - b*row_pivot) followed
    by a content strip, so no fractions ever appear.  Indices at or beyond
    aux_base are bookkeeping coordinates: they ride along in row operations
    but are never chosen as pivots, which turns a vanishing main part into an
    explicit kernel combination.
    """

    __slots__ = ("rows", "aux_base", "_order")

    def __init__(self, aux_base=None):
        self.rows = {}
        self.aux_base = aux_base
        self._order = []   # the pivots in ascending order

    def rank(self):
        return len(self.rows)

    def _main_pivot(self, v):
        best = None
        for i in v:
            if self.aux_base is not None and i >= self.aux_base:
                continue
            if best is None or i < best:
                best = i
        return best

    def reduce(self, v):
        """Eliminate v's main support against stored rows; returns the
        (integer, content-stripped) residual."""
        if v and isinstance(next(iter(v.values())), Fraction):
            v = _int_vec(v)
        else:
            v = dict(v)
        if not v:
            return v
        rows = self.rows
        order = self._order
        # a row's main support starts at its pivot, so eliminating at p
        # touches no pivot below p: one ascending pass clears them all
        for k in range(bisect_left(order, min(v)), len(order)):
            p = order[k]
            b = v.get(p)
            if not b:
                continue
            row = rows[p]
            a = row[p]
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                v = {i: c * a for i, c in v.items()}
            get = v.get
            for i, c in row.items():
                acc = get(i, 0) - b * c
                if acc:
                    v[i] = acc
                else:
                    del v[i]
            g = gcd(*v.values())
            if g > 1:
                v = {i: c // g for i, c in v.items()}
        return v

    def insert(self, v):
        """Insert v; returns None if a new pivot row was installed, else the
        residual supported on aux coordinates only (the kernel certificate;
        {} when v lies in the span and no aux tail was given)."""
        res = self.reduce(v)
        piv = self._main_pivot(res)
        if piv is None:
            return res if res else {}
        if res[piv] < 0:
            res = {i: -c for i, c in res.items()}
        self.rows[piv] = res
        insort(self._order, piv)
        return None


def solve_columns(columns, b):
    """One exact solution x of sum_j x_j * columns[j] = b, or (None, residual).

    Free variables are 0: x is supported on the greedily chosen independent
    columns, so the output is canonical for a fixed column order.  The
    residual is b minus its part in the column span, with no support on the
    span's leftmost pivots; both are the Gauss-Jordan (SpanReducer) answers.

    Runs fraction-free: column j, cleared to integers, carries a marker at
    aux+1+j and b carries one at aux, so eliminating b against the columns
    leaves x_j = res[aux+1+j] / res[aux].  Indices are ints; the builders'
    length stages (simplex._solve_stage) are the callers.
    """
    aux = max((i for v in (b, *columns) for i in v), default=-1) + 1
    red = FractionFreeReducer(aux_base=aux)
    for j, col in enumerate(columns):
        num, D = clear_denominators(col)
        num[aux + 1 + j] = D
        red.insert(num)
    num, D = clear_denominators(b)
    num[aux] = -D
    res = red.reduce(num)
    den = res.pop(aux)
    if min(res, default=aux) < aux:
        return None, {i: Fraction(c, -den) for i, c in res.items() if i < aux}
    return {i - aux - 1: Fraction(c, den) for i, c in res.items()}, None
