"""Sparse exact linear algebra over Q.

Vectors are dicts from non-negative int indices to Fractions or ints (no
stored zeros).  There is one eliminator, FractionFreeReducer: forward-only
integer elimination with leftmost pivots and content stripping
(fraction-free, after Bareiss 1968), inserting vectors in a caller-chosen
(hence deterministic) order, with no randomization anywhere.  Negative
indices are its bookkeeping coordinates.

SpanReducer is the front end for the callers that read combinations:
solve_columns, homology's one pass per differential (_kernel_pass) and
minimal_model's pairing of sources with partners.  It tags every vector that
adds a pivot with its own negative marker coordinate, so a reduced vector's
markers spell out, as integers over one denominator, the combination of
inserted vectors that it was reduced by.
"""

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd

from .lie import clear_denominators


def integer_primitive(v):
    """Clear denominators and strip content; int dict, deterministic sign
    (the entry at the lowest index is positive)."""
    if not v:
        return {}
    out, _ = clear_denominators(v)
    g = gcd(*out.values())
    if g > 1:
        out = {i: c // g for i, c in out.items()}
    if out[min(out)] < 0:
        out = {i: -c for i, c in out.items()}
    return out


def _lowest_main(v):
    """The lowest non-negative index of v, or None."""
    return min(filter((0).__le__, v), default=None)


class FractionFreeReducer:
    """Forward-only integer elimination with leftmost pivots.

    Rows are integer dicts with content 1 and positive leading entry.
    Elimination uses cross-multiplication (a*row_new - b*row_pivot) followed
    by a content strip, so no fractions ever appear.  Negative indices are
    bookkeeping coordinates: they ride along in row operations but are never
    chosen as pivots, which turns a vanishing main part into an explicit
    combination.
    """

    __slots__ = ("rows", "_order")

    def __init__(self):
        self.rows = {}
        self._order = []   # the pivots in ascending order

    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Eliminate v's main support against stored rows; returns the
        (integer, content-stripped) residual."""
        if v and isinstance(next(iter(v.values())), Fraction):
            v = integer_primitive(v)
        else:
            v = dict(v)
        low = _lowest_main(v)
        if low is None:
            return v
        rows = self.rows
        order = self._order
        # a row's main support starts at its pivot, so eliminating at p
        # touches no pivot below p: one ascending pass clears them all
        for k in range(bisect_left(order, low), len(order)):
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
        residual supported on bookkeeping coordinates only ({} when v lies
        in the span and carries none)."""
        res = self.reduce(v)
        piv = _lowest_main(res)
        if piv is None:
            return res
        if res[piv] < 0:
            res = {i: -c for i, c in res.items()}
        self.rows[piv] = res
        insort(self._order, piv)
        return None


class SpanReducer:
    """Span of tagged vectors that reports combinations of them.

    A thin front end over one FractionFreeReducer.  The k-th vector that adds
    a pivot is stored with the marker coordinate -2-k, and a vector being
    reduced carries the marker -1; the markers of the reduced vector then
    give its combination of inserted vectors, as integer numerators over the
    entry at -1, which is the one positive denominator of the answer.
    Dependent inserts are not stored, so combinations run over the
    pivot-adding tags only; those tags must be distinct.  Its callers are
    solve_columns, homology's _kernel_pass and minimal_model's pairing.
    """

    __slots__ = ("_ff", "_tags")

    def __init__(self):
        self._ff = FractionFreeReducer()
        self._tags = []

    def rank(self):
        return self._ff.rank()

    def _comb(self, res):
        """Tag -> integer numerator of the combination on res's markers."""
        return {self._tags[-2 - i]: -c for i, c in res.items() if i < 0}

    def reduce(self, v):
        """(residual, comb, den): integer dicts and a positive int with
        den * v = sum(comb[tag] * inserted[tag]) + residual, the residual
        having no support on existing pivots; gcd(den, every numerator) is
        1.  v is not consumed."""
        num, D = clear_denominators(v)
        num[-1] = -D
        res = self._ff.reduce(num)
        den = -res.pop(-1)
        return {i: c for i, c in res.items() if i >= 0}, self._comb(res), den

    def insert(self, v, tag):
        """Add v to the span under the given tag.

        Returns (None, comb, den) when v was already in the span, with
        den * v = sum(comb[tag] * inserted[tag]) as in reduce, else
        (pivot, None, None) after storing v.
        """
        num, D = clear_denominators(v)
        marker = -2 - len(self._tags)
        num[marker] = D
        res = self._ff.insert(num)
        if res is None:
            self._tags.append(tag)
            # rows only grow, so the row just installed is the last one
            return next(reversed(self._ff.rows)), None, None
        den = res.pop(marker)
        return None, self._comb(res), den


def solve_columns(columns, b):
    """One exact solution x of sum_j x_j * columns[j] = b, or (None, residual).

    Free variables are 0: x is supported on the greedily chosen independent
    columns, so the output is canonical for a fixed column order.  The
    residual is b minus its part in the column span, with no support on the
    span's leftmost pivots; both are unique, whatever the eliminator.  Index
    j tags column j in one SpanReducer, and x is the combination that
    reduces b.  The builders' length stages (simplex._solve_stage) are the
    callers.
    """
    red = SpanReducer()
    for j, col in enumerate(columns):
        red.insert(col, j)
    residual, x, den = red.reduce(b)
    if residual:
        return None, {i: Fraction(c, den) for i, c in residual.items()}
    return {j: Fraction(c, den) for j, c in x.items()}, None
