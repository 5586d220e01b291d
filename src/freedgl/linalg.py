"""Sparse exact linear algebra over Q.

Vectors are dicts from non-negative int indices to ints (no stored zeros);
a rational vector is such a dict of numerators over one positive
denominator, as lie._slice_coords gives it.  There is one eliminator,
FractionFreeReducer: forward-only integer elimination with leftmost pivots
and content stripping (fraction-free, after Bareiss 1968), inserting
vectors in a caller-chosen (hence deterministic) order, with no
randomization anywhere.  Negative indices are its bookkeeping coordinates.
echelon fills one with no markers, for homology's classes
(homology._classes) and the transposed system of solve_columns.

SpanReducer is the front end for the callers that read combinations.  It
tags every vector that adds a pivot with its own negative marker
coordinate, so a reduced vector's markers spell out, as integers over one
denominator, the combination of inserted vectors that it was reduced by.
"""

from bisect import bisect_left, insort
from math import gcd


def _lowest_main(v):
    """The lowest non-negative index of v, or None."""
    return min(filter((0).__le__, v), default=None)


class FractionFreeReducer:
    """Forward-only integer elimination with leftmost pivots.

    Rows are integer dicts with a positive leading entry.  Elimination uses
    cross-multiplication (a*row_new - b*row_pivot) followed by a content
    strip, so no fractions ever appear.  Negative indices are bookkeeping
    coordinates: they ride along in row operations but are never chosen as
    pivots, which turns a vanishing main part into an explicit combination.
    """

    __slots__ = ("rows", "_order")

    def __init__(self):
        self.rows = {}
        self._order = []   # the pivots in ascending order

    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Eliminate v's main support against stored rows; returns the
        (integer, content-stripped) residual.  v is not consumed."""
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


def echelon(rows, key):
    """One FractionFreeReducer of the integer rows, inserted in ascending
    key order (which sets the fill, not the pivots), or None at the first
    row that leaves an entry at a negative index only: with the right-hand
    side at -1, an inconsistent equation."""
    ech = FractionFreeReducer()
    for row in sorted(rows, key=key):
        if ech.insert(row):
            return None
    return ech


class SpanReducer:
    """Span of tagged vectors that reports combinations of them.

    A thin front end over one FractionFreeReducer.  The k-th vector that adds
    a pivot is stored with the marker coordinate -2-k, and a vector being
    reduced carries the marker -1; the markers of the reduced vector then
    give its combination of inserted vectors, as integer numerators over the
    entry at -1, which is the one positive denominator of the answer.
    Dependent inserts are not stored, so combinations run over the
    pivot-adding tags only; those tags must be distinct.  Its callers are
    homology's _kernel_pass and minimal_model's pairing.
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

    def reduce(self, v, den=1):
        """(residual, comb, d): integer dicts and a positive int with
        d * v/den = sum(comb[tag] * inserted[tag]) + residual, the residual
        having no support on existing pivots; gcd(d, every numerator) is 1
        when v/den is in lowest terms."""
        res = self._ff.reduce({**v, -1: -den})
        d = -res.pop(-1)
        return {i: c for i, c in res.items() if i >= 0}, self._comb(res), d

    def insert(self, v, tag, den=1):
        """Add v/den to the span under the given tag.

        Returns (None, comb, d) when it was already in the span, with
        d * v/den = sum(comb[tag] * inserted[tag]) as in reduce, else
        (pivot, None, None) after storing it.
        """
        marker = -2 - len(self._tags)
        res = self._ff.insert({**v, marker: den})
        if res is None:
            self._tags.append(tag)
            # rows only grow, so the row just installed is the last one
            return next(reversed(self._ff.rows)), None, None
        d = res.pop(marker)
        return None, self._comb(res), d


def solve_columns(columns, b):
    """One exact solution x of sum_j x_j * columns[j] = b, or (None,
    residual), every vector a pair (integer numerators, positive
    denominator).  Free variables are 0: x lies on the greedily chosen
    independent columns, the pivots of any echelon of the transposed
    system, so it is canonical for a fixed column order.  Equation i goes
    into one echelon as an integer row over the column indices with -b_i at
    -1, by descending largest column index, and x is back-substituted over
    one denominator.  An inconsistent system gives the residual: b minus
    its part in the column span, unique for having no support on the span's
    pivots, from one markerless reduction.  The builders' length stages
    (simplex._solve_stage) are the callers.
    """
    bnum, bden = b
    rows = {i: {-1: -c} for i, c in bnum.items()}
    for j, (num, _) in enumerate(columns):
        for i, c in num.items():
            rows.setdefault(i, {})[j] = c
    ech = echelon(rows.values(), lambda row: -max(row))
    if ech is None:
        red = FractionFreeReducer()
        for num, _ in columns:
            red.insert(num)
        residual = red.reduce({**bnum, -1: -bden})
        d = -residual.pop(-1)
        return None, (residual, d)
    # z_j = Z[j] / D solves sum_j z_j * num_j = bnum, so x_j = z_j * den_j /
    # bden; right of its pivot p, a row holds solved pivots and free zeros
    Z, D = {}, 1
    for p in reversed(ech._order):
        row = ech.rows[p]
        s = -row.get(-1, 0) * D - sum(c * Z[j] for j, c in row.items()
                                      if j in Z)
        if s:
            g = gcd(s, row[p])
            a = row[p] // g
            if a != 1:
                D *= a
                Z = {j: c * a for j, c in Z.items()}
            Z[p] = s // g
    return ({j: c * columns[j][1] for j, c in Z.items()}, D * bden), None
