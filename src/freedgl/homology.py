"""Exact homology of truncated free DGLs and the group-level invariants.

All computations happen on the finite-dimensional quotients L/L^{>N}: per
degree, the chain space is the direct sum of the Lyndon slices of lengths
1..N (one lie._SliceLayout), and the matrix of the differential between
two of them is read off the target's lead words (_SliceLayout.columns),
so no d(x) is built for a matrix; its kernels and boundaries come off one
markerless echelon (linalg.null_space), and classes, of homology and π₁
alike, come from one rule (_classes).  On top of that sit the
homotopy-group extractors: H_{n-1} for n >= 2, and for n = 1 the degree-0
homology with its Baker-Campbell-Hausdorff product table (a nilpotent
group presented by exact rational structure constants), plus the tower of
these groups over increasing truncation.

freedgl/__init__ binds the name homology to the function of that name, so
`import freedgl.homology` reaches the function, not this module; tools that
need the module read sys.modules["freedgl.homology"].
"""

from fractions import Fraction

from .lie import (
    DomainError, StructError, _check_frame, _SliceLayout,
    Elt, DGLMap, bracket, linear_combination,
)
from .series import bch
from .linalg import echelon, null_space

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Degree-graded chain spaces


def _DegreeLayout(L, q):
    """The degree-q chain space of L/L^{>N}: the lie._SliceLayout of the
    Lyndon slices of lengths 1..N."""
    return _SliceLayout(L.gens, q, range(1, L.N + 1))


def _columns(L, layout_src, layout_tgt):
    """The columns d(x_j) over the target layout, as (numerators, den), read
    off its lead words by lie._SliceLayout.columns."""
    cols = layout_tgt.columns(layout_src, L.diff)
    if cols is None:
        raise StructError("differential left its degree slice")
    return cols


def _kernel_pass(L, layout_src, layout_tgt):
    """(kernels, image) of the differential from a degree slice to the next
    one down, by linalg.null_space of its columns: kernels[j] is the relation
    of column j to the pivot columns below it, primitive with its lowest
    entry positive (so j is its highest index), and image, the numerators of
    the pivot columns, is a basis of the boundaries."""
    cols = _columns(L, layout_src, layout_tgt)
    kernels, pivots = null_space(cols)
    return kernels, [cols[p][0] for p in pivots]


def _classes(rows, free, dim):
    """(echelon, classes): the boundary rows' coordinates in free go into
    one echelon that pivots on the highest index (i stored at dim - 1 - i;
    rows in ascending length, which limits fill), and the classes are the j
    in free, ascending, at which no boundary has its highest free entry."""
    top = dim - 1
    ech = echelon(({top - i: c for i, c in row.items() if i in free}
                   for row in rows), len)
    return ech, [j for j in sorted(free) if top - j not in ech.rows]


class HomologyReport:
    """Per-degree exact dims of ker, im and H on L/L^{>N}, with cycle
    representatives for the homology classes."""

    __slots__ = ("N", "degrees", "entries")

    def __init__(self, N, degrees, entries):
        self.N = N
        self.degrees = degrees
        self.entries = entries

    @property
    def dims(self):
        return {q: e["h"] for q, e in self.entries.items()}

    def pretty(self):
        lines = []
        for q in sorted(self.entries):
            e = self.entries[q]
            lines.append("degree %d: ker %d, im %d, H %d"
                         % (q, e["kernel"], e["image"], e["h"]))
        return "\n".join(lines)


def _homology(L, degrees):
    """Entries of the ascending degrees.

    The pass of d_{q+1} gives the boundaries of degree q and the kernels
    of degree q + 1, so each d is eliminated once.  kv_j is the one kernel
    vector nonzero at its highest index j, so it is a new class exactly
    when _classes, free on those j, keeps j; where d^2 != 0, the h check
    can fail."""
    layouts = {}

    def layout(q):
        if q not in layouts:
            layouts[q] = _DegreeLayout(L, q)
        return layouts[q]

    entries = {}
    kept = {}
    for q in degrees:
        lay = layout(q)
        if lay.dim == 0:
            entries[q] = {"kernel": 0, "image": 0, "h": 0, "reps": []}
            continue
        kernels = (kept.pop(q) if q in kept
                   else _kernel_pass(L, lay, layout(q - 1))[0])
        kernels_up, image = _kernel_pass(L, layout(q + 1), lay)
        kept = {q + 1: kernels_up}
        reps = [lay.element(L.N, kernels[j])
                for j in _classes(image, kernels, lay.dim)[1]]
        ker_dim, im_rank, h = len(kernels), len(image), len(reps)
        if h != ker_dim - im_rank:
            raise StructError(
                "homology bookkeeping mismatch at degree %d: ker %d, im %d, "
                "independent reps %d" % (q, ker_dim, im_rank, h))
        entries[q] = {"kernel": ker_dim, "image": im_rank, "h": h,
                      "reps": reps}
    return entries


def homology(L, N=None, degrees=None):
    """Exact homology of L/L^{>N} in the requested degrees.

    Every entry carries kernel, image and homology dimensions together with
    cycle representatives of an H basis; dim H = dim ker - dim im by
    construction, and a bookkeeping mismatch raises instead of passing.
    Each differential d_q is read and eliminated once: its pass gives the
    kernel of degree q and the boundaries of degree q - 1.
    """
    if N is not None and N != L.N:
        L = L.truncated(N)
    dmin = min(L.gens.degrees, default=0)
    dmax = max(L.gens.degrees, default=0)
    if degrees is None:
        lo = min(dmin, L.N * dmin)
        hi = max(dmax, L.N * dmax)
        degrees = range(lo, hi + 1)
    degrees = sorted(degrees)
    return HomologyReport(L.N, degrees, _homology(L, degrees))


def linear_homology(L):
    """Homology of the generator span under the length-preserving part d1
    of the differential.

    On generators d1 is the differential of L/L^{>1}, so this is
    homology(L.truncated(1)) with its zero degrees dropped.  Returns (dims,
    reps) keyed by degree; representatives are generator combinations,
    lifted back to truncation L.N, with homology()'s sign convention: the
    coefficient of the lowest-index generator is positive.
    """
    entries = homology(L.truncated(1)).entries
    dims = {q: e["h"] for q, e in entries.items() if e["h"]}
    reps = {q: [x.at_truncation(L.N) for x in entries[q]["reps"]]
            for q in dims}
    return dims, reps


# ---------------------------------------------------------------------------
# The degree-0 group


class MalcevQuotient:
    """H_0(L/L^{>N}, d) with the BCH product: a nilpotent group presented by
    exact rational structure constants.

    Elements are coordinate tuples over the class basis; products go through
    representatives and reduce back to class coordinates.  The table is
    filled lazily and cached.  The echelon holds the degree-0 boundaries
    with coordinate i stored at dim - 1 - i, and free maps the stored index
    of each basis element, a unit vector off its pivots, to its position.
    """

    __slots__ = ("L", "N", "basis", "_layout", "_echelon", "_free", "_table")

    def __init__(self, L, basis, layout, echelon, free):
        self.L = L
        self.N = L.N
        self.basis = basis
        self._layout = layout
        self._echelon = echelon
        self._free = free
        self._table = {}

    @property
    def dim(self):
        return len(self.basis)

    def zero(self):
        return tuple(Fraction(0) for _ in range(self.dim))

    def basis_coords(self, i):
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def _residual(self, x):
        """(numerators, den) of the class of a degree-0 element by class
        position: the residual of one reduction against the boundaries, on
        the free coordinates, with the entry at -1 carrying its scale."""
        _check_frame(x, self.L.gens, self.L.N)
        vec = self._layout.coords(x)
        if vec is None:
            # a word off degree 0 is never cancelled, so coords gave up
            if not x.has_degree(0):
                raise DomainError("class_coords needs a degree-0 element")
            raise DomainError("element does not lie in the degree-0 slice")
        num, D = vec
        top = self._layout.dim - 1
        row = {top - i: c for i, c in num.items()}
        row[-1] = D
        res = self._echelon.reduce(row)
        den = res.pop(-1)
        free = self._free
        return {free[i]: c for i, c in res.items()}, den

    def class_coords(self, x):
        """Class of a degree-0 element as coordinates over the basis."""
        res, den = self._residual(x)
        return tuple(Fraction(res[k], den) if k in res else ZERO
                     for k in range(self.dim))

    def element(self, coords):
        return linear_combination(self.L.gens, self.N, zip(coords, self.basis))

    def product(self, xc, yc):
        """Group product of two classes given by coordinate tuples."""
        return self.class_coords(bch(self.element(xc), self.element(yc)))

    def inverse(self, xc):
        return tuple(-c for c in xc)

    def table(self, i, j):
        """Cached product of the i-th and j-th basis classes."""
        key = (i, j)
        if key not in self._table:
            self._table[key] = self.class_coords(
                bch(self.basis[i], self.basis[j]))
        return self._table[key]

    def is_abelian(self):
        """Whether every pair of basis classes commutes.  bch(x, y) -
        bch(y, x) is [x, y] plus brackets one step deeper in the lower
        central series, and H_0 is nilpotent, so the group is abelian
        exactly when the class of every [b_i, b_j], i < j, is 0."""
        b = self.basis
        return not any(any(self.class_coords(bracket(b[i], b[j])))
                       for i in range(self.dim) for j in range(i + 1, self.dim))


def _check_non_negative(L):
    if min(L.gens.degrees, default=0) < 0:
        raise DomainError(
            "homotopy groups need a non-negatively graded Lie algebra")


def _h0_quotient(L):
    """MalcevQuotient of H_0(L/L^{>N}, d) for a non-negatively graded L.

    Every unit vector e_j of degree 0 is a cycle, and a new class exactly
    when no boundary has its highest coordinate at j: the representatives
    are the e_j given by _classes with every coordinate free.
    """
    _check_non_negative(L)
    lay0 = _DegreeLayout(L, 0)
    top = lay0.dim - 1
    rows = (num for num, _ in _columns(L, _DegreeLayout(L, 1), lay0))
    ech, free = _classes(rows, range(lay0.dim), lay0.dim)
    basis = [Elt._from_num(L.gens, L.N, lay0.basis[j][1], 1) for j in free]
    return MalcevQuotient(L, basis, lay0, ech,
                          {top - j: k for k, j in enumerate(free)})


def pi_n(L, n, N=None):
    """Realization homotopy group of a non-negatively graded L on L/L^{>N}:
    the H_{n-1} report entry for n >= 2, the BCH group on H_0 for n = 1."""
    _check_non_negative(L)
    if n < 1:
        raise DomainError("homotopy groups start at n = 1")
    if N is not None and N != L.N:
        L = L.truncated(N)
    if n >= 2:
        return homology(L, degrees=[n - 1]).entries[n - 1]
    return _h0_quotient(L)


def verify_simplex(model, L, assignment):
    """Whether a generator assignment of a simplex model into L is a chain
    map mod L^{>N}: the membership test for an n-simplex of the realization.

    Keys of the assignment may be generator names or indices; every
    generator of the model needs an image.
    """
    images = {}
    for key, val in assignment.items():
        idx = model.gens.index(key) if isinstance(key, str) else key
        images[idx] = val
    return DGLMap(model.dgl, L, images).is_chain_map()


# ---------------------------------------------------------------------------
# The truncation tower


def malcev_tower(K, basepoint, N_max):
    """BCH groups of the minimal model of K at the basepoint for
    N = 1..N_max, with surjectivity of every connecting projection checked.

    One minimal model is built at N_max and stage N is pi_1 of its
    truncation to N.  Its differential has no linear part, so truncating by
    word length commutes with H_0; the stage representatives are elements
    of the minimal model.  The N = 1 quotient is the abelianization; each
    later stage refines the previous one by the classes new at word length
    N.
    """
    from .complexes import minimal_model

    M = minimal_model(K, basepoint, N_max)
    quotients = [pi_n(M, 1, N) for N in range(1, N_max + 1)]
    for N in range(2, N_max + 1):
        big = quotients[N - 1]
        small = quotients[N - 2]
        red = echelon([small._residual(rep.truncated(small.N))[0]
                       for rep in big.basis], len)
        if red.rank() != small.dim:
            raise StructError(
                "tower projection at N=%d is not surjective" % N)
    return quotients


def tower_layers(quotients):
    """New-class counts per word length along a tower."""
    out = []
    prev = 0
    for q in quotients:
        out.append(q.dim - prev)
        prev = q.dim
    return out
