"""Sparse exact linear algebra over Q.

Vectors are dicts index -> Fraction (no stored zeros).  The workhorse is an
incremental Gauss-Jordan reducer over a growing span: vectors are inserted in
a caller-chosen (hence deterministic) order, pivots are always the leftmost
nonzero coordinate, pivot rows are normalized to leading coefficient 1 and
kept fully reduced against each other.  Each basis row remembers the
combination of inserted vectors that produced it, so solving, membership,
rank and kernel extraction all fall out of one structure with no
randomization anywhere.
"""

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


def solve_columns(columns, b):
    """One exact solution x of sum_j x_j * columns[j] = b, or (None, residual).

    Free variables are 0: x is supported on the greedily chosen independent
    columns, so the output is canonical for a fixed column order.
    """
    red = SpanReducer()
    for j, col in enumerate(columns):
        red.insert(col, j)
    residual, comb = red.reduce(b)
    if residual:
        return None, residual
    return comb, None


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

    __slots__ = ("rows", "aux_base")

    def __init__(self, aux_base=None):
        self.rows = {}
        self.aux_base = aux_base

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
        while True:
            hit = None
            for i in v:
                if i in self.rows and (self.aux_base is None
                                       or i < self.aux_base):
                    if hit is None or i < hit:
                        hit = i
            if hit is None:
                return v
            row = self.rows[hit]
            a = row[hit]
            b = v[hit]
            g = gcd(a, b)
            a //= g
            b //= g
            out = {}
            for i, c in v.items():
                out[i] = c * a
            for i, c in row.items():
                acc = out.get(i, 0) - b * c
                if acc:
                    out[i] = acc
                else:
                    out.pop(i, None)
            g = 0
            for c in out.values():
                g = gcd(g, c)
            if g > 1:
                out = {i: c // g for i, c in out.items()}
            v = out

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
        return None
