"""Polynomial differential forms on the n-simplex and the Whitney transfer.

Forms live in the free graded-commutative algebra on t_0..t_n, dt_0..dt_n
modulo sum(t_i) = 1 and sum(dt_i) = 0; the canonical representation
eliminates t_0 and dt_0, so a monomial is an exponent vector over t_1..t_n
together with an ascending tuple of dt indices.  Everything is exact over
Fraction: the elementary form of a face, exterior derivative, wedge, the
inclusion of simplicial cochains, and the fiberwise integration back.  On a
face F = (f_0 < ... < f_k), t^a dt_{F minus f_j} integrates to
(-1)^j prod a_i! / (sum a_i + k)!, the Dirichlet integral.
"""

from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial
from operator import add

from .lie import DomainError, _q

ONE = Fraction(1)


def _collect(items):
    """Sum (key, coefficient) items into one dict without zero entries."""
    out = {}
    for key, c in items:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


class _Sparse:
    """A key -> nonzero Fraction dict on the n-simplex, with the vector
    arithmetic that forms and cochains share.  The public constructor and
    scalar * check their input; operations build results through the
    trusted _from_items, which only sums and drops zeros.  Unhashable, since
    it defines __eq__ and no __hash__."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = _check_n(n)
        self.terms = _collect((self._check_key(key), _q(c))
                              for key, c in (terms or {}).items())

    @classmethod
    def _from_items(cls, n, items):
        x = object.__new__(cls)
        x.n = n
        x.terms = _collect(items)
        return x

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.terms == other.terms)

    def _plus(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        _same_simplex(self, other)
        return self._from_items(self.n, chain(
            self.terms.items(),
            ((key, sign * c) for key, c in other.terms.items())))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        s = _q(scalar)
        return self._from_items(self.n, ((key, c * s)
                                         for key, c in self.terms.items()))

    __rmul__ = __mul__


def _check_n(n):
    if type(n) is not int or n < 0:
        raise DomainError("simplex dimension must be an int >= 0: %r" % (n,))
    return n


def _same_simplex(u, v):
    if u.n != v.n:
        raise DomainError("operands on different simplices: n=%d and n=%d"
                          % (u.n, v.n))


class PolyForm(_Sparse):
    """A polynomial differential form on the n-simplex, canonicalized.

    terms maps (exponents over t_1..t_n, ascending dt index tuple) to a
    nonzero scalar.  Mixed form degrees are allowed in one PolyForm.  The
    constructor refuses any other key (dt_0, a repeated or unsorted dt, a
    negative exponent, an exponent vector not of length n) and float scalars.
    """

    __slots__ = ()

    def _check_key(self, key):
        try:
            exps, dts = (tuple(part) for part in key)
        except (TypeError, ValueError):
            exps = dts = None
        if (exps is None or len(exps) != self.n
                or not all(type(e) is int and e >= 0 for e in exps)
                or not all(type(s) is int and 1 <= s <= self.n for s in dts)
                or list(dts) != sorted(set(dts))):
            raise DomainError("not a canonical monomial for n=%d: %r"
                              % (self.n, key))
        return exps, dts

    def degrees(self):
        return sorted({len(dts) for _, dts in self.terms})

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (exps, dts), c in sorted(self.terms.items()):
            parts = [] if c == 1 and (any(exps) or dts) else [str(c)]
            for i, e in enumerate(exps, start=1):
                if e == 1:
                    parts.append("t%d" % i)
                elif e > 1:
                    parts.append("t%d^%d" % (i, e))
            parts.extend("dt%d" % i for i in dts)
            bits.append(" ".join(parts) if parts else str(c))
        return " + ".join(bits)


def zero_form(n):
    return PolyForm._from_items(_check_n(n), ())


def one_form(n):
    return PolyForm._from_items(_check_n(n), [(((0,) * n, ()), ONE)])


def _unit(i, n):
    return tuple(int(j == i) for j in range(1, n + 1))


def t_var(i, n):
    """The barycentric coordinate t_i as a canonical form."""
    if not 0 <= i <= n:
        raise DomainError("coordinate index %d out of range" % i)
    if i == 0:
        return PolyForm._from_items(n, chain(
            [(((0,) * n, ()), ONE)],
            (((_unit(j, n), ()), -ONE) for j in range(1, n + 1))))
    return PolyForm._from_items(n, [((_unit(i, n), ()), ONE)])


def dt_var(i, n):
    """The coordinate differential dt_i as a canonical form."""
    if not 0 <= i <= n:
        raise DomainError("coordinate index %d out of range" % i)
    if i == 0:
        return PolyForm._from_items(n, ((((0,) * n, (j,)), -ONE)
                                        for j in range(1, n + 1)))
    return PolyForm._from_items(n, [(((0,) * n, (i,)), ONE)])


def _merge_dts(a, b):
    """Sorted union of two disjoint ascending tuples with the Koszul sign,
    or (None, 0) when they overlap."""
    if set(a) & set(b):
        return None, 0
    sign = 1
    for x in a:
        for y in b:
            if x > y:
                sign = -sign
    return tuple(sorted(a + b)), sign


def wedge(u, v):
    _same_simplex(u, v)

    def items():
        for (e1, s1), c1 in u.terms.items():
            for (e2, s2), c2 in v.terms.items():
                dts, sign = _merge_dts(s1, s2)
                if sign:
                    yield (tuple(map(add, e1, e2)), dts), sign * c1 * c2
    return PolyForm._from_items(u.n, items())


def exterior_d(u):
    def items():
        for (exps, dts), c in u.terms.items():
            for i, e in enumerate(exps, start=1):
                if e and i not in dts:
                    smaller = sum(1 for s in dts if s < i)
                    yield ((exps[:i - 1] + (e - 1,) + exps[i:],
                            tuple(sorted(dts + (i,)))),
                           c * e * (-1) ** smaller)
    return PolyForm._from_items(u.n, items())


def _check_face(face, n):
    try:
        face = tuple(face)
    except TypeError:
        raise DomainError("a face is a sequence of vertex indices: %r"
                          % (face,)) from None
    if not face:
        raise DomainError("empty face")
    if not all(type(i) is int for i in face):
        raise DomainError("face indices must be integers: %r" % (face,))
    if list(face) != sorted(set(face)):
        raise DomainError("face indices must be strictly increasing")
    if face[0] < 0 or face[-1] > n:
        raise DomainError("face %r out of range for n=%d" % (face, n))
    return face


def elementary_form(face, n):
    """The Whitney form of a face F = (f_0 < ... < f_k),
    k! sum_j (-1)^j t_{f_j} dt_{F minus f_j}."""
    face = _check_face(face, n)
    return PolyForm._from_items(n, _elementary_terms(face, n).items())


@cache
def _elementary_terms(face, n):
    """The terms of elementary_form(face, n) for a checked face, built once
    per (face, n) and shared, so callers copy them and never mutate them.
    They are written down monomial by monomial: only t_0 = 1 - sum t_i and
    dt_0 = -sum dt_i (i = 1..n) expand, and dt_i wedge dt_D sorts to
    (-1)^{#(d in D, d < i)} dt_{D + i}."""
    scale = factorial(len(face) - 1) * ONE
    const = (0,) * n

    def items():
        for j, fj in enumerate(face):
            ts = ([(_unit(fj, n), 1)] if fj else
                  [(const, 1)] + [(_unit(i, n), -1) for i in range(1, n + 1)])
            rest = face[:j] + face[j + 1:]
            if rest[:1] == (0,):
                tail = rest[1:]
                dts = [(tuple(sorted(tail + (i,))),
                        -(-1) ** sum(d < i for d in tail))
                       for i in range(1, n + 1) if i not in tail]
            else:
                dts = [(rest, 1)]
            for exps, a in ts:
                for key, b in dts:
                    yield (exps, key), (-1) ** j * scale * a * b
    return _collect(items())


def restrict(u, face):
    """Restriction of a form to a face: coordinates off the face are set to
    zero and the face's own barycentric relation re-eliminates its lowest
    coordinate.  The result uses the ambient variable indexing."""
    face = _check_face(face, u.n)
    n = u.n
    kept = [((exps, dts), c) for (exps, dts), c in u.terms.items()
            if all(i in face or not e for i, e in enumerate(exps, start=1))
            and all(s in face for s in dts)]
    if face[0] == 0:
        return PolyForm._from_items(n, kept)
    f0 = face[0]
    tsub = one_form(n)
    dsub = zero_form(n)
    for i in face[1:]:
        tsub = tsub - t_var(i, n)
        dsub = dsub - dt_var(i, n)

    def items():
        for (exps, dts), c in kept:
            piece = PolyForm._from_items(
                n, [((exps[:f0 - 1] + (0,) + exps[f0:], ()), c)])
            for _ in range(exps[f0 - 1]):
                piece = wedge(piece, tsub)
            for s in dts:
                piece = wedge(piece, dsub if s == f0 else dt_var(s, n))
            yield from piece.terms.items()
    return PolyForm._from_items(n, items())


def _integral(exps, dts, face):
    """The integral of the monomial t^exps dt_dts over face = (f_0 < ... <
    f_k).  When dts is the face minus f_j and t^exps lives on the face it is
    (-1)^j prod a_i! / (sum a_i + k)!, because dt_{f_0} = -(sum of the
    face's other dt's) leaves one term; otherwise it is 0."""
    k = len(face) - 1
    missing = [j for j, f in enumerate(face) if f not in dts]
    if (len(dts) != k or len(missing) != 1
            or any(e and i not in face for i, e in enumerate(exps, start=1))):
        return 0
    num = 1
    for i in face:
        if i:
            num *= factorial(exps[i - 1])
    return Fraction((-1) ** missing[0] * num, factorial(sum(exps) + k))


def face_integral(u, face):
    """Exact integral of (the top-degree part of) a form over a face."""
    face = _check_face(face, u.n)
    return sum((c * _integral(exps, dts, face)
                for (exps, dts), c in u.terms.items()), Fraction(0))


# ---------------------------------------------------------------------------
# Cochains and the transfer maps


class Cochain(_Sparse):
    """A simplicial cochain on the n-simplex: faces to scalars."""

    __slots__ = ()

    def _check_key(self, face):
        return _check_face(face, self.n)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*a%s" % (c, "".join(map(str, f)))
                          for f, c in sorted(self.terms.items(),
                                             key=lambda x: (len(x[0]), x[0])))


def cochain_d(c):
    """Simplicial coboundary, dual to the face maps: the image of a face
    basis element collects every one-higher face with the sign of sorting
    the new vertex into place."""
    return Cochain._from_items(c.n, (
        (tuple(sorted(face + (q,))), coeff * (-1) ** sum(f < q for f in face))
        for face, coeff in c.terms.items()
        for q in range(c.n + 1) if q not in face))


def whitney_i(c):
    """The inclusion of cochains into forms: faces to elementary forms,
    each built once per process."""
    return PolyForm._from_items(c.n, (
        (key, coeff * v) for face, coeff in c.terms.items()
        for key, v in _elementary_terms(face, c.n).items()))


def integrate_p(u):
    """The projection of forms onto cochains: each face records the exact
    integral of the form over it.  A monomial with k dt's is top-degree
    only on the faces made of its dt indices and one more vertex."""
    return Cochain._from_items(u.n, (
        (face, c * _integral(exps, dts, face))
        for (exps, dts), c in u.terms.items()
        for face in (tuple(sorted(dts + (q,)))
                     for q in range(u.n + 1) if q not in dts)))
