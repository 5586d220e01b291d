"""Models of finite simplicial complexes.

A complex is ingested as a list of maximal faces and closed downward.  Its
model is the sub-DGL of the ambient simplex family spanned by the complex's
own faces: it is the simplex models' face-relabel table (_face_images) taken
over K's faces, so each face's differential is the relabeled top
differential of its dimension.  That is supported on the face's subfaces,
so the restriction closes whenever the face set is closed under subsets.
The seed top differentials are built once per truncation and dimension
and shared by every complex (simplex._seed_top_diffs).  The 1-skeleton is
walked in one place, _forest, whose breadth-first spanning forest gives
the components and the spanning tree.  On top
of the raw model: component splitting, localization at a Maurer-Cartan
element, and the minimal model as one quotient (build the model modulo the
vertices and a spanning tree, so that no word with one of their letters is
formed, pair the other generators in one echelon of the linear
differential, and solve every partner's image in one pass over word
length).  The pass and the chain-map check share one table of (prefix,
length) products, which lives for one minimal_model call: stage k builds
the length-k products only, and every product is built once.
"""

from fractions import Fraction
from itertools import combinations

from .lie import (
    DomainError, StructError, SolveError,
    GenSet, Elt, FreeDGL, Derivation, Substitution, generator_elt, zero_elt,
    _combine,
)
from .linalg import SpanReducer, echelon
from .series import twist
from .serialize import ParseError
from .simplex import face_name, face_degree, _face_images, _seed_top_diffs
from .homology import _DegreeLayout, _kernel_pass

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Complexes


class SimplicialComplex:
    """A finite simplicial complex on densely numbered vertices.

    Faces are sorted vertex tuples, closed under nonempty subsets; the order
    (dimension, then lexicographic) fixes generator order everywhere
    downstream.  labels keeps the pre-renumbering vertex ids for display.
    """

    __slots__ = ("faces", "maximal", "n_vertices", "dim", "labels")

    def __init__(self, maximal_faces, labels=None):
        if not maximal_faces:
            raise DomainError("a complex needs at least one face")
        closure = set()
        maximal = []
        for f in maximal_faces:
            face = tuple(sorted(f))
            if len(set(face)) != len(face):
                raise DomainError("face %r repeats a vertex" % (f,))
            maximal.append(face)
            for k in range(1, len(face) + 1):
                closure.update(combinations(face, k))
        verts = sorted({v for f in closure for v in f})
        if verts != list(range(len(verts))):
            raise DomainError(
                "vertices must be 0..n-1 without gaps; renumber first "
                "(parse_complex does this)")
        self.faces = tuple(sorted(closure, key=lambda f: (len(f), f)))
        self.maximal = tuple(sorted(set(maximal), key=lambda f: (len(f), f)))
        self.n_vertices = len(verts)
        self.dim = max(len(f) for f in self.faces) - 1
        self.labels = tuple(labels) if labels is not None else tuple(verts)

    def faces_of_dim(self, p):
        return tuple(f for f in self.faces if len(f) == p + 1)

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d faces, dim %d)" % (
            self.n_vertices, len(self.faces), self.dim)


def parse_complex(text):
    """Complex from text: one maximal face per line as whitespace-separated
    vertex ids, # comments.  Vertices are renumbered densely, preserving
    their numeric order; original ids are kept in .labels."""
    maximal = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            verts = tuple(int(t) for t in line.split())
        except ValueError:
            raise ParseError("vertex ids must be integers: %r" % line,
                             lineno) from None
        if any(v < 0 for v in verts):
            raise ParseError("negative vertex id in %r" % line, lineno)
        if len(set(verts)) != len(verts):
            raise ParseError("face %r repeats a vertex" % line, lineno)
        face = tuple(sorted(verts))
        if face in seen:
            raise ParseError("duplicate face %r" % line, lineno)
        seen.add(face)
        maximal.append(face)
    if not maximal:
        raise ParseError("no faces given")
    used = sorted({v for f in maximal for v in f})
    remap = {v: i for i, v in enumerate(used)}
    return SimplicialComplex(
        [tuple(remap[v] for v in f) for f in maximal], labels=used)


# ---------------------------------------------------------------------------
# The model of a complex


class ComplexModel:
    """Free DGL on one generator per face of K, with the differential
    restricted from the ambient simplex family."""

    __slots__ = ("K", "N", "dgl", "wide")

    def __init__(self, K, N, dgl, wide):
        self.K = K
        self.N = N
        self.dgl = dgl
        self.wide = wide

    @property
    def gens(self):
        return self.dgl.gens

    def gen(self, face):
        face = tuple(sorted(face))
        return generator_elt(self.gens, self.N, face_name(face, self.wide))


def model_of_complex(K, N):
    """The model of K at truncation N, restricted from the ambient family:
    the face-relabel table of the simplex models (_face_images) over K's
    faces, with wide names above ten vertices."""
    return ComplexModel(K, N, _complex_dgl(K, N), K.n_vertices > 10)


def _complex_dgl(K, N, killed=()):
    """The free DGL of K's model at truncation N, or, for the indices of
    letters generating a d-stable ideal I in killed, of its quotient by I
    on the same generators: every word with a killed letter is dropped as
    the face table relabels it, so it is never built."""
    wide = K.n_vertices > 10
    gens = GenSet([(face_name(f, wide), face_degree(f)) for f in K.faces])
    return FreeDGL._trusted(gens, N, _face_images(
        gens, K.faces, N, _seed_top_diffs(N, K.dim), killed))


# ---------------------------------------------------------------------------
# Components


def _forest(K, root):
    """The breadth-first spanning forest of K's 1-skeleton, the one walk of
    it: the search starts at root, then at each unreached vertex in
    increasing order, and visits neighbors in increasing order.  Returns
    the sorted tree edges and each tree's vertices in the order found."""
    adj = [[] for _ in range(K.n_vertices)]
    # edges come sorted, so each neighbor list is built in increasing order
    for u, v in K.faces_of_dim(1):
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * K.n_vertices
    edges, trees = [], []
    for r in (root, *range(K.n_vertices)):
        if seen[r]:
            continue
        seen[r] = True
        tree = [r]
        for u in tree:   # tree grows behind u: it is the search's queue
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    edges.append((u, v) if u < v else (v, u))
                    tree.append(v)
        trees.append(tuple(tree))
    return tuple(sorted(edges)), trees


def components(K):
    """Vertex sets of the connected components, each sorted, ordered by
    smallest vertex: the trees of the spanning forest rooted at 0, whose
    roots are each component's lowest vertex."""
    return [tuple(sorted(t)) for t in _forest(K, 0)[1]]


def subcomplex(K, vertices):
    """The full subcomplex on the given vertices, densely renumbered; also
    returns the old-to-new vertex map."""
    vs = sorted(set(vertices))
    remap = {v: i for i, v in enumerate(vs)}
    maximal = [tuple(remap[v] for v in f) for f in K.maximal
               if all(v in remap for v in f)]
    if not maximal:
        raise DomainError("no faces inside the requested vertex set")
    return SimplicialComplex(maximal, labels=vs), remap


# ---------------------------------------------------------------------------
# Localization


class LocalizedDGL:
    """The localization of a twisted quotient at a Maurer-Cartan element:
    strictly positive degrees together with the degree-0 kernel of the
    twisted differential.  This is a sub-DGL presentation; the recorded
    complement M is the quotiented direct summand of degree 0."""

    __slots__ = ("L", "N", "kernel_basis", "complement")

    def __init__(self, L, kernel_basis, complement):
        self.L = L
        self.N = L.N
        self.kernel_basis = kernel_basis
        self.complement = complement

    def dim(self, q):
        if q < 0:
            return 0
        if q == 0:
            return len(self.kernel_basis)
        return _DegreeLayout(self.L, q).dim

    def d(self, x):
        return self.L.d(x)

    def check(self):
        """Differential closes on the presentation: kernel classes are
        cycles and degree-1 boundaries land in the kernel span."""
        for b in self.kernel_basis:
            if not self.L.d(b).is_zero():
                return False
        lay0 = _DegreeLayout(self.L, 0)
        red = echelon([lay0.coords(b)[0] for b in self.kernel_basis], len)
        for x in _DegreeLayout(self.L, 1).elements(self.N):
            if red.reduce(lay0.coords(self.L.d(x))[0]):
                return False
        return True


def localize(L, z):
    """Localize L at the Maurer-Cartan element z: twist, keep strictly
    positive degrees plus ker of the twisted differential on degree 0, and
    record the row-reduction complement M in canonical basis order."""
    tw = twist(L, z)
    lay0 = _DegreeLayout(tw, 0)
    laym1 = _DegreeLayout(tw, -1)
    kernels, _ = _kernel_pass(tw, lay0, laym1)
    kernel_basis = [lay0.element(tw.N, kv) for kv in kernels.values()]
    elts = lay0.elements(tw.N)
    complement = [elts[j] for j in range(lay0.dim) if j not in kernels]
    return LocalizedDGL(tw, kernel_basis, complement)


# ---------------------------------------------------------------------------
# Trees and minimal models


def maximal_tree(K, basepoint=None):
    """Spanning tree edges, sorted: the breadth-first spanning forest
    (_forest) from the basepoint (default: lowest vertex), neighbors
    visited in increasing vertex order.  On a disconnected complex it is a
    spanning forest whose other trees are rooted at their lowest vertex."""
    if basepoint is None:
        basepoint = 0
    if not 0 <= basepoint < K.n_vertices:
        raise DomainError("basepoint %r is not a vertex" % (basepoint,))
    return _forest(K, basepoint)[0]


def _restricted_dgl(source, keep, p, table):
    """Quotient of a free DGL along the projection p, a Substitution of
    source.gens into itself sending generator i to p.images[i], an
    expression in the kept letters (keep: their indices, in order), which p
    fixes.  p(d x), one application of p per source generator x with its
    products read from and added to the (prefix, length) table, is the
    differential on kept letters and must equal d(p x) on every generator;
    a residue is a loud failure."""
    src, N, images = source.gens, p.N, p.images
    zero = zero_elt(src, N)
    lengths = range(1, N + 1)
    pd = [p.graded(source.diff.images.get(i, zero), lengths, table)
          for i in range(len(src))]
    d = Derivation._trusted(src, N, {i: pd[i] for i in keep if pd[i].num}, -1)
    bad = [name for i, name in enumerate(src.names)
           if pd[i] != d(images[i])]
    if bad:
        raise SolveError(
            "reduction projection is not a chain map on %s" % ", ".join(bad))
    gens = GenSet([(src.names[i], src.degrees[i]) for i in keep])
    pos = {i: j for j, i in enumerate(keep)}
    return FreeDGL._trusted(gens, N, {
        pos[i]: Elt._from_num(gens, N, {tuple(pos[g] for g in w): c
                                        for w, c in pd[i].num.items()},
                              pd[i].den)
        for i in keep if pd[i].num})


def minimal_model(K, basepoint, N):
    """Minimal model of a connected complex at truncation N, as one quotient
    of its model.

    The vertices and a spanning tree generate an acyclic ideal I, which is
    d-stable: every word of d(a_v) and of d(a_e) has one of their letters.
    The model is built on L/I from the start, since the face table sends
    those letters to 0, so no word with one of them is formed.  The other
    generators, lowest degree first, put their linear differentials,
    killed letters dropped, into one echelon: a row with a pivot kills its
    generator (a source) and pairs it with the pivot letter (its partner).
    The surviving generator count per degree equals the reduced homology of
    K shifted down by one.  Each partner's image is solved length by length
    in one graded pass, and _restricted_dgl checks that the projection is a
    chain map, reading the pass's (prefix, length) products; p kills I, so
    p(d x) on L/I is p(d x) on L.
    """
    tree = set(maximal_tree(K, basepoint))
    # a spanning forest has one edge fewer than vertices only when connected
    if len(tree) != K.n_vertices - 1:
        raise DomainError(
            "minimal models need a connected complex; "
            "split it with components() first")
    killed = {i for i, f in enumerate(K.faces) if len(f) == 1 or f in tree}
    L = _complex_dgl(K, N, killed)
    gens = L.gens
    zero = zero_elt(gens, N)
    dgen = L.diff.images
    red = SpanReducer()
    sources, partners = [], []
    for i in sorted(set(range(len(gens))) - killed,
                    key=lambda i: (gens.degrees[i], i)):
        row = {w[0]: c for w, c in dgen.get(i, zero).num.items()
               if len(w) == 1 and w[0] not in killed}
        t = red.insert(row, i)[0]
        if t is not None:
            killed.add(i)
            sources.append(i)
            partners.append(t)
    # the rows are the length-1 numerators of the d(s).  Reducing den * t
    # leaves a residual off every partner, so its integer combination comb_t
    # of rows gives e_t with d1(e_t) = t + (kept letters), and p must send t
    # to u_t = -p(d(e_t) - t): minus comb_t of the p(q_s) over den, q_s being
    # the numerators of d(s) without its one-letter partner words, which sum
    # to t.  The length-k part of p(q_s) needs image parts below length k
    # only: one pass over k = 1..N solves every u_t, and each (prefix,
    # length) product in the one table is final when built, so the
    # chain-map check reads it too.
    paired = set(partners)
    keep = [i for i in range(len(gens)) if i not in killed and i not in paired]
    images = {i: zero for i in killed | paired}
    images.update((i, Elt(gens, N, {(i,): ONE})) for i in keep)
    combs = {t: red.reduce({t: 1})[1:] for t in partners}
    q = {s: Elt._from_num(gens, N, {
        w: c for w, c in dgen[s].num.items()
        if killed.isdisjoint(w) and not (len(w) == 1 and w[0] in paired)}, 1)
        for s in sources}
    p = Substitution(gens, gens, N, images)
    table = {}   # (prefix, length) -> product, for this call only
    for k in range(1, N + 1):
        pq = {s: p.graded(x, (k,), table) for s, x in q.items()}
        for t in partners:
            comb, den = combs[t]
            u = images[t]
            images[t] = _combine(gens, N, [(1, u.den, u.num)] + [
                (-c, den * pq[s].den, pq[s].num) for s, c in comb.items()])
    M = _restricted_dgl(L, keep, p, table)
    live = [n for n in M.gens.names if not M.d1(M.gen(n)).is_zero()]
    if live:
        raise StructError(
            "linear differential survives on %s" % ", ".join(live))
    return M
