"""Sparse exact linear algebra over Q.

Vectors are dicts from non-negative int indices to ints (no stored zeros);
a rational vector is such a dict of numerators over one positive
denominator, as lie._slice_coords gives it.  There is one eliminator,
FractionFreeReducer: forward-only integer elimination with leftmost pivots
and content stripping (fraction-free, after Bareiss 1968) in a caller-chosen
order.  Negative indices are its bookkeeping coordinates.  Other modules
reach it only through its three markerless readers: echelon (homology's
classes, the tower's surjectivity check, LocalizedDGL.check), and
solve_columns and null_space, which back-substitute on one echelon of the
transposed system.  Inside this module only echelon and SpanReducer, which
reads minimal_model's pairing combinations off markers, construct it.
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
    entry at -1, the one positive denominator.  Dependent inserts are not
    stored, so combinations run over the pivot-adding tags (distinct ones);
    minimal_model's pairing is its one package caller.
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


def _transposed_echelon(columns, bnum):
    """The echelon of the equations sum_j num_j[i] * x_j = bnum[i], with
    -bnum[i] at -1, inserted by descending largest index, or None if
    inconsistent.  Its pivots are the greedily independent columns."""
    rows = {i: {-1: -c} for i, c in bnum.items()}
    for j, (num, _) in enumerate(columns):
        for i, c in num.items():
            rows.setdefault(i, {})[j] = c
    return echelon(rows.values(), lambda row: -max(row))


def _back_substitute(ech, rhs, pivots):
    """(Z, D) with x_p = Z[p] / D at the pivots, x_rhs = 1 and every other
    x_j = 0 solving ech's rows at the pivots: right of its pivot, a row
    holds later pivots, rhs and free zeros, so one descending pass runs."""
    Z, D = {}, 1
    for p in reversed(pivots):
        row = ech.rows[p]
        s = -row.get(rhs, 0) * D - sum(c * Z[j] for j, c in row.items()
                                       if j in Z)
        if s:
            g = gcd(s, row[p])
            a = row[p] // g
            if a != 1:
                D *= a
                Z = {j: c * a for j, c in Z.items()}
            Z[p] = s // g
    return Z, D


def solve_columns(columns, b):
    """One exact solution x of sum_j x_j * columns[j] = b, or (None,
    residual), every vector a pair (integer numerators, positive
    denominator).  Free variables are 0: x lies on the greedily chosen
    independent columns, so it is canonical for a fixed column order.  An
    inconsistent system gives the residual, _solve_stage's homology
    witness: b minus its part in the column span, unique for having no
    support on the span's pivots, so one reduction of b against
    echelon(columns, len) gives it.  simplex._solve_stage is the caller.
    """
    bnum, bden = b
    ech = _transposed_echelon(columns, bnum)
    if ech is None:
        residual = echelon((num for num, _ in columns), len).reduce(
            {**bnum, -1: -bden})
        d = -residual.pop(-1)
        return None, (residual, d)
    # Z / D solves it on the numerators, so x_j = Z[j] * den_j / (D * bden)
    Z, D = _back_substitute(ech, -1, ech._order)
    return ({j: c * columns[j][1] for j, c in Z.items()}, D * bden), None


def null_space(columns):
    """(kernels, pivots) of the map e_j -> columns[j], each column a pair
    (integer numerators, positive denominator).  pivots are the greedily
    chosen independent columns, ascending; kernels maps every other j,
    ascending, to the one relation between column j and the pivots below
    it, a primitive integer dict with its lowest entry positive."""
    ech = _transposed_echelon(columns, {})
    pivots, kernels = ech._order, {}
    for j in range(len(columns)):
        if j not in ech.rows:
            Z, D = _back_substitute(ech, j, pivots[:bisect_left(pivots, j)])
            x = {k: c * columns[k][1] for k, c in (*Z.items(), (j, D))}
            g = gcd(*x.values()) if x[min(x)] > 0 else -gcd(*x.values())
            kernels[j] = {k: c // g for k, c in x.items()}
    return kernels, pivots
