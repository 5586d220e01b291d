"""Free complete DGL models of simplices and the cosimplicial family.

A model of the n-simplex is a free DGL on one generator a_F per nonempty
face F, with deg a_F = dim F - 1.  Vertices are Maurer-Cartan, the linear
part of the differential is the simplicial chain differential, and face
inclusions are chain maps.  A whole compatible family is determined by one
"top differential" per dimension (the image of the top cell in the model of
that dimension); every other generator's differential is the relabeling of
the top differential of its own dimension.

Three ways to produce top differentials:

  * explicit seeds for dimensions 0..3: the interval with the Bernoulli
    series differential, the triangle with the BCH-of-edges differential,
    and the tetrahedron built from a transgression element;
  * the inductive builder: d(top) = (-1)^n (a_{0..n-1} - Gamma) - [a_0, top]
    with Gamma solved length by length so that the a_0-twisted differential
    of the top cell has no top-cell letters;
  * the symmetric builder: the length-k parts of d(top) are solved from
    d^2 = 0 and averaged to the sign-isotypic component, giving a model on
    which the vertex-permutation action commutes with d.

Every vertex map acts on generators through one relabel table (_face_table:
a_F goes to the signed letter of F's sorted image, or to 0 when the image
repeats a vertex), applied to words on integer numerators (_relabel).  The
cofaces, codegeneracies and permutation maps apply it as DGLMaps
(_vertex_map), and the Reynolds averages sum it over one representative
word per orbit.  _face_images relabels each face's top differential onto
the face to assemble the models of simplices and complexes; a sorted face
is its own vertex map, with every sign +1, so its table is looked up by
face.  A ModelFamily builds that table once per dimension, for the faces
below the top: the solving builders read it, and a model is it plus the
top image.  The two solving builders share one length-stage solver
(_solve_stage: the canonical preimage under d1 on one Lyndon slice, read
through two lie._SliceLayouts and solved on linalg's markerless echelon).
"""

from fractions import Fraction
from functools import cache
from math import factorial
from itertools import combinations, permutations

from .lie import (
    ConfigError, DomainError, SolveError,
    GenSet, Elt, FreeDGL, DGLMap, Derivation,
    bracket, generator_elt, zero_elt, substitute, linear_combination,
    _check_frame, _check_image, _SliceLayout,
)
from .series import bch, exp_ad, bernoulli_op, is_mc, twist, gauge
from .linalg import null_space, solve_columns
from .homology import linear_homology

ONE = Fraction(1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Faces and naming


def faces_of_simplex(n):
    """All nonempty faces of Delta^n, sorted by (dimension, lexicographic)."""
    out = []
    for p in range(1, n + 2):
        out.extend(combinations(range(n + 1), p))
    out.sort(key=lambda f: (len(f), f))
    return out


def face_name(face, wide=False):
    if wide or (face and face[-1] > 9):
        return "a_" + "_".join(str(v) for v in face)
    return "a" + "".join(str(v) for v in face)


def face_degree(face):
    return len(face) - 2


@cache
def simplex_genset(n):
    return GenSet([(face_name(f), face_degree(f)) for f in faces_of_simplex(n)])


def chain_boundary(face):
    """(sign, subface) pairs of the simplicial chain differential."""
    out = []
    for j in range(len(face)):
        out.append(((-1) ** j, face[:j] + face[j + 1:]))
    return out


def perm_sign(sigma):
    """Sign of the permutation that sorts the distinct entries of sigma."""
    inv = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])
    return -1 if inv & 1 else 1


def _face_table(n, vertex_map, index):
    """Where a vertex map sends the faces of Delta^n, in faces_of_simplex(n)
    order (entry i belongs to letter i of simplex_genset(n)): None when the
    image repeats a vertex, else (index of the sorted image's name, sort
    sign of the image)."""
    table = []
    for face in faces_of_simplex(n):
        img = [vertex_map[v] for v in face]
        table.append(None if len(set(img)) < len(img) else
                     (index(face_name(tuple(sorted(img)))),
                      perm_sign(img)))
    return tuple(table)


def _relabel(num, table, out, scale=1):
    """Add scale times the word->int dict num, mapped letter by letter
    through a face table, into out: the letters' signs multiply, words with
    a None letter drop, and words that collide add up."""
    get = out.get
    for w, c in num.items():
        img = []
        for i in w:
            t = table[i]
            if t is None:
                break
            img.append(t[0])
            c *= t[1]
        else:
            img = tuple(img)
            out[img] = get(img, 0) + scale * c
    return out


def _relabeled(x, table, target_gens, target_N):
    """x mapped through a face table onto target_gens at target_N."""
    out = _relabel(x.num, table, {})
    return Elt._from_num(target_gens, target_N, {
        w: c for w, c in out.items() if len(w) <= target_N}, x.den)


def _vertex_map(source, target, vertex_map):
    """The DGLMap of a vertex map from one simplex model to another: letter
    i goes to the signed letter of its _face_table entry, or to 0, applied
    as one _relabel pass over the words of its argument."""
    gens, N = target.gens, target.N
    table = _face_table(source.n, vertex_map, gens.index)

    def apply(x):
        _check_frame(x, source.gens)
        return _relabeled(x, table, gens, N)
    return DGLMap(source.dgl, target.dgl, {
        i: Elt._from_num(gens, N, {} if t is None else {(t[0],): t[1]}, 1)
        for i, t in enumerate(table)}, apply)


# ---------------------------------------------------------------------------
# The model container


class SimplexModel:
    """A free DGL model of Delta^n plus its construction context."""

    __slots__ = ("n", "N", "dgl", "flavor", "family")

    def __init__(self, n, N, dgl, flavor, family=None):
        self.n = n
        self.N = N
        self.dgl = dgl
        self.flavor = flavor
        self.family = family

    @property
    def gens(self):
        return self.dgl.gens

    def gen(self, face):
        return generator_elt(self.dgl.gens, self.N, face_name(tuple(face)))

    def __repr__(self):
        return "SimplexModel(n=%d, N=%d, flavor=%s)" % (self.n, self.N, self.flavor)


def _face_images(gens, faces, N, diffs, killed=()):
    """Differential table on the given faces of dimension p < len(diffs):
    a_F goes to diffs[dim F] relabeled onto F; zero images are left out.
    Letter i of gens is faces[i], and faces holds every subface of each of
    its faces.  A face is sorted and is its own vertex map, so the faces of
    Delta^p go to its subfaces with sign +1, each letter looked up by face.

    The letters in killed (indices into gens) go to 0, and so does every
    word with one of them, so no such word is built.  When they generate a
    d-stable ideal I this is the table of L/I, and their own images vanish.
    """
    index = {f: i for i, f in enumerate(faces)}
    subfaces = [faces_of_simplex(p) for p in range(len(diffs))]
    images = {}
    for face, i in index.items():
        p = len(face) - 1
        if p < len(diffs):
            table = []
            for sub in subfaces[p]:
                j = index[tuple(face[v] for v in sub)]
                table.append(None if j in killed else (j, 1))
            img = _relabeled(diffs[p], table, gens, N)
            if not img.is_zero():
                images[i] = img
    return images


# ---------------------------------------------------------------------------
# Explicit seeds: dimensions 0..3


def vertex_top_diff(N):
    g = GenSet([("a0", -1)])
    a = generator_elt(g, N, "a0")
    return -HALF * bracket(a, a)


def interval_top_diff(N):
    """d(a01) = ad_{a01} a1 + sum (B_k/k!) ad_{a01}^k (a1 - a0)."""
    g = simplex_genset(1)
    a = generator_elt(g, N, "a0")
    b = generator_elt(g, N, "a1")
    x = generator_elt(g, N, "a01")
    return bracket(x, b) + bernoulli_op(x, b - a)


def interval_model(N):
    return seed_family(N).model(1)


def triangle_top_diff(N):
    """d(a012) = bch(a01, a12, -a02) - [a0, a012]."""
    g = simplex_genset(2)
    e01 = generator_elt(g, N, "a01")
    e12 = generator_elt(g, N, "a12")
    e02 = generator_elt(g, N, "a02")
    a0 = generator_elt(g, N, "a0")
    top = generator_elt(g, N, "a012")
    return bch(e01, e12, -e02) - bracket(a0, top)


def triangle_model(N):
    return seed_family(N).model(2)


def bch_transgression(e_list, L):
    """The degree-1 element B with d(B) = bch(d e_1, ..., d e_n) and linear
    part sum(e_i), computed through an auxiliary free DGL.

    In the auxiliary algebra on u_i (degree 0, d u_i = 0) and w_i (degree 1,
    d w_i = u_i), the element h(sum_k P_k / k) with P = bch(u_1..u_n) and h
    the degree +1 derivation u_i -> w_i, w_i -> 0 satisfies d(h(Q)) = P:
    h d + d h is the word-length grading, d P = 0, and d preserves length.
    Substituting u_i -> d e_i, w_i -> e_i lands the identity in L.
    """
    if not e_list:
        raise DomainError("transgression needs at least one element")
    for e in e_list:
        if not e.has_degree(1):
            raise DomainError("transgression inputs must have degree 1")
    n = len(e_list)
    N = L.N
    pairs = [("u%d" % i, 0) for i in range(1, n + 1)]
    pairs += [("w%d" % i, 1) for i in range(1, n + 1)]
    aux = GenSet(pairs)
    us = [generator_elt(aux, N, "u%d" % i) for i in range(1, n + 1)]
    P = bch(*us)
    Q = Elt(aux, N, {w: c / len(w) for w, c in P.terms.items()})
    h = Derivation(aux, N,
                   {aux.index("u%d" % i): generator_elt(aux, N, "w%d" % i)
                    for i in range(1, n + 1)},
                   shift=1)
    A = h(Q)
    images = {}
    for i in range(1, n + 1):
        images[aux.index("u%d" % i)] = L.d(e_list[i - 1])
        images[aux.index("w%d" % i)] = e_list[i - 1]
    return substitute(A, L.gens, N, images)


def tetra_top_diff(N):
    """d(a0123) = e^{ad_{a01}} a123 - B_{a012, a023, -a013} - [a0, a0123],
    where B is the transgression element taken for the a0-twisted
    differential.  The lower top differentials are the seed family's,
    built once per N (_seed_top_diffs)."""
    lower = _seed_top_diffs(N, 2)
    gens = simplex_genset(3)
    partial = FreeDGL._trusted(gens, N,
                               _face_images(gens, faces_of_simplex(3), N, lower))
    a0 = generator_elt(gens, N, "a0")
    twisted = twist(partial, a0)
    e_list = [generator_elt(gens, N, "a012"),
              generator_elt(gens, N, "a023"),
              -generator_elt(gens, N, "a013")]
    B = bch_transgression(e_list, twisted)
    a01 = generator_elt(gens, N, "a01")
    a123 = generator_elt(gens, N, "a123")
    top = generator_elt(gens, N, "a0123")
    return exp_ad(a01, a123) - B - bracket(a0, top)


def tetra_model(N):
    return seed_family(N).model(3)


# ---------------------------------------------------------------------------
# Length-by-length boundary solving


def _solve_stage(L, r, allowed=None):
    """The canonical x with d1(x) = r, for r of one degree and one word
    length: x lies on the Lyndon slice of the sub-alphabet `allowed`
    (default: every letter) one degree above r, with the free variables
    pinned to 0 under the basis order: r's slice and the one above are two
    one-length lie._SliceLayouts, and the d1 images of the upper basis are
    the columns.  Raises SolveError when r or a d1 column leaves the
    sub-alphabet's slice, or, with a homology witness, when r is not a
    d1-boundary."""
    k = len(next(iter(r.num)))
    tdeg = r.degree()
    target = _SliceLayout(L.gens, tdeg, (k,), allowed)
    b = target.coords(r)
    if b is None:
        raise SolveError(
            "stage length %d: residue is not a Lie element of the "
            "sub-alphabet: %s" % (k, r.pretty()))
    source = _SliceLayout(L.gens, tdeg + 1, (k,), allowed)
    cols = []
    for y in source.elements(L.N):
        col = target.coords(L.d1(y))
        if col is None:
            raise SolveError("stage length %d: d1 leaves the sub-alphabet" % k)
        cols.append(col)
    x, residual = solve_columns(cols, b)
    if x is None:
        witness = target.element(L.N, *residual)
        raise SolveError(
            "no boundary at degree %d, length %d; homology witness: %s"
            % (tdeg, k, witness.pretty()))
    return source.element(L.N, *x)


def solve_boundary(L, target, allowed):
    """A solution beta of d(beta) = target with all letters in `allowed`.

    Works length stage by length stage: each stage inverts the
    length-preserving part of d on the Lyndon slice basis of the
    sub-alphabet (_solve_stage, so the output is canonical), then the full
    differential of the stage solution is subtracted from the target.
    Requires d to preserve the sub-alphabet's span; raises SolveError with
    the first infeasible stage's witness.
    """
    allowed = tuple(sorted(allowed))
    if target.is_zero():
        return zero_elt(L.gens, L.N)
    target.degree()   # DomainError unless target is homogeneous
    if not target.support_in(allowed):
        raise SolveError("target leaves the solving sub-alphabet")
    beta = zero_elt(L.gens, L.N)
    rest = target
    for k in range(1, L.N + 1):
        rk = rest.length_part(k)
        if rk.is_zero():
            continue
        stage = _solve_stage(L, rk, allowed)
        beta = beta + stage
        rest = rest - L.d(stage)
    if not rest.is_zero():
        raise SolveError("unreachable residue above truncation: %s" % rest.pretty())
    return beta


# ---------------------------------------------------------------------------
# The inductive builder


def _horn_letters(gens, n):
    """Generator indices of the faces missing at least one of 0..n-1."""
    out = []
    for face in faces_of_simplex(n):
        if not set(range(n)) <= set(face):
            out.append(gens.index(face_name(face)))
    return out


def _boundary_letters(gens, n):
    top = face_name(tuple(range(n + 1)))
    return [i for i, name in enumerate(gens.names) if name != top]


def inductive_top_diff(n, N, boundary):
    """Top differential of Delta^n from models of lower dimensions, given
    by the differential table of Delta^n's boundary (ModelFamily._boundary):

        d(top) = (-1)^n (a_{0..n-1} - Gamma) - [a_0, top]

    Gamma's linear part is pinned to the value forced by the chain
    differential; the rest is solved in the sub-alphabet of the last horn
    (n >= 3) or of the full boundary (n = 2, where the horn does not contain
    the needed letters).
    """
    if n < 2:
        raise DomainError("the inductive builder starts at dimension 2")
    gens = simplex_genset(n)
    partial = FreeDGL._trusted(gens, N, boundary)
    a0 = generator_elt(gens, N, "a0")
    twisted = twist(partial, a0)

    front = tuple(range(n))            # the face 0..n-1
    target = twisted.d(generator_elt(gens, N, face_name(front)))
    allowed = _boundary_letters(gens, n) if n == 2 else _horn_letters(gens, n)
    if not target.support_in(allowed):
        raise SolveError(
            "twisted differential of a_{0..n-1} leaves the solving "
            "sub-alphabet; the supplied seeds lack the support property")

    # linear stage, forced by the chain-differential axiom
    gamma1 = linear_combination(gens, N, [
        ((-1) ** (n + 1) * sign, generator_elt(gens, N, face_name(sub)))
        for sign, sub in chain_boundary(tuple(range(n + 1)))[:n]])
    if twisted.d1(gamma1) != target.length_part(1):
        raise SolveError("chain-differential linear stage fails; seeds broken")

    rest = target - twisted.d(gamma1)
    gamma = gamma1 + solve_boundary(twisted, rest, allowed)

    top = generator_elt(gens, N, face_name(tuple(range(n + 1))))
    sign = Fraction((-1) ** n)
    return sign * (generator_elt(gens, N, face_name(front)) - gamma) \
        - bracket(a0, top)


# ---------------------------------------------------------------------------
# Permutation action


def permutation_map(model, sigma):
    """The degree-0 automorphism a_F -> sign * a_{sorted sigma(F)}."""
    return _vertex_map(model, model, sigma)


def equivariance_residues(model, sigma):
    """(generator, sigma(dg) - d(sigma g)) for every generator."""
    return permutation_map(model, sigma).chain_residues()


@cache
def _permutation_tables(n):
    """The faces of Delta^n, and (eps_sigma, face table of sigma) per vertex
    permutation in the lexicographic order of permutations(range(n + 1))."""
    index = simplex_genset(n).index
    return tuple(faces_of_simplex(n)), tuple(
        (perm_sign(sigma), _face_table(n, sigma, index))
        for sigma in permutations(range(n + 1)))


def _reynolds_average(n, x, signed):
    """Average of sigma(x), times eps_sigma when signed, over the vertex
    permutations of Delta^n, for x over simplex_genset(n).

    The sum runs over orbits.  Each word w of x gives vertex v the bitmask
    of the positions whose face contains v, and pi relabels the vertices in
    the order of (-mask, v); vertices with equal masks lie in the same
    faces, so pi(w) is one representative per orbit of words.  pi acts by
    its own face table, found by its Lehmer code, so sum_sigma eps_sigma
    sigma(w) = eps_pi s sum_rho eps_rho rho(pi(w)), s the product of the
    face signs of pi on w.  The representatives are summed with those
    signs, and one integer accumulation over the (n+1)! cached tables
    relabels only them."""
    faces, tables = _permutation_tables(n)
    vertices = range(n + 1)
    weights = [factorial(n - v) for v in vertices]
    orbits = {}
    for w, c in x.num.items():
        mask = [0] * (n + 1)
        bit = 1
        for i in w:
            for v in faces[i]:
                mask[v] |= bit
            bit <<= 1
        # pi(v) is v's place in this order; its lexicographic rank counts,
        # for each v, the larger vertices placed before v
        rank = placed = 0
        for v in sorted(vertices, key=mask.__getitem__, reverse=True):
            rank += (placed >> v + 1).bit_count() * weights[v]
            placed |= 1 << v
        orbits.setdefault(rank, {})[w] = c
    reps = {}
    for rank, num in orbits.items():
        sign, table = tables[rank]
        _relabel(num, table, reps, sign if signed else 1)
    reps = {w: c for w, c in reps.items() if c}
    out = {}
    for sign, table in tables:
        _relabel(reps, table, out, sign if signed else 1)
    return Elt._from_num(x.gens, x.N, out, x.den * len(tables))


def reynolds_invariant_project(model, x):
    """Plain average of sigma(x) over the vertex permutation group."""
    return _reynolds_average(model.n, x, False)


# ---------------------------------------------------------------------------
# The symmetric builder


def symmetric_top_diff(n, N, boundary):
    """Equivariant top differential of Delta^n over the differential table
    of its boundary (ModelFamily._boundary): solve the length-k parts from
    d^2 = 0 and project each onto the sign-isotypic component (the top cell
    transforms by the sign character, and the defect term is isotypic, so
    the projected stage still solves its equation)."""
    if n < 2:
        raise DomainError("the symmetric builder starts at dimension 2")
    gens = simplex_genset(n)
    top_face = tuple(range(n + 1))
    top_idx = gens.index(face_name(top_face))
    top = linear_combination(gens, N, [
        (sign, generator_elt(gens, N, face_name(sub)))
        for sign, sub in chain_boundary(top_face)])

    for k in range(2, N + 1):
        Lp = FreeDGL._trusted(gens, N, {**boundary, top_idx: top})
        rk = Lp.d(top).length_part(k)
        if rk.is_zero():
            continue
        stage = _reynolds_average(n, _solve_stage(Lp, -rk), True)
        if Lp.d1(stage) != -rk:
            raise SolveError(
                "symmetric stage %d: sign projection broke the solution "
                "(defect not isotypic)" % k)
        top = top + stage
    return top


# ---------------------------------------------------------------------------
# Families


class ModelFamily:
    """A compatible family of simplex models, one flavor, one truncation.

    The family keeps one top differential and one boundary table per
    dimension p: _boundary(p) is _face_images over Delta^p with the top
    differentials below p, built once.  The solving builders read it, and
    model(p) is that table plus the top image.  The tables are built from
    checked top differentials by relabeling, so the models' FreeDGLs are
    trusted; a top differential is degree-checked once, when it is
    installed (the package's builders give the right degree).
    """

    def __init__(self, N, flavor="seed"):
        if flavor not in ("seed", "inductive", "symmetric"):
            raise ConfigError("unknown flavor %r" % flavor)
        self.N = N
        self.flavor = flavor
        self._diffs = {}
        self._tables = {}
        self._models = {}

    def install_top_diff(self, p, diff):
        """Override the dimension-p top differential (used for custom seeds).
        It must be over Delta^p's generator set (an equal GenSet will do;
        another one raises ConfigError) and have the degree of the top cell
        less one; it is read at the family's truncation.  The tables above
        p and the models from p up, which read it, are dropped."""
        gens = simplex_genset(p)
        _check_frame(diff, gens)
        if diff.gens is not gens or diff.N != self.N:
            diff = Elt._from_num(gens, self.N, {
                w: c for w, c in diff.num.items() if len(w) <= self.N},
                diff.den)
        _check_image(gens, len(gens) - 1, diff, -1)
        self._diffs[p] = diff
        self._tables = {q: t for q, t in self._tables.items() if q <= p}
        self._models = {q: m for q, m in self._models.items() if q < p}

    def top_diff(self, p):
        if p in self._diffs:
            return self._diffs[p]
        if p == 0:
            d = vertex_top_diff(self.N)
        elif p == 1:
            d = interval_top_diff(self.N)
        elif self.flavor == "seed" and p == 2:
            d = triangle_top_diff(self.N)
        elif self.flavor == "seed" and p == 3:
            d = tetra_top_diff(self.N)
        elif self.flavor == "symmetric":
            d = symmetric_top_diff(p, self.N, self._boundary(p))
        else:
            d = inductive_top_diff(p, self.N, self._boundary(p))
        self._diffs[p] = d
        return d

    def _boundary(self, p):
        """The differential table of every face of Delta^p below the top:
        the top differentials below p relabeled onto the faces."""
        if p not in self._tables:
            self._tables[p] = _face_images(
                simplex_genset(p), faces_of_simplex(p), self.N,
                [self.top_diff(q) for q in range(p)])
        return self._tables[p]

    def model(self, n):
        """The model of Delta^n: the boundary table plus the top image."""
        if n not in self._models:
            gens = simplex_genset(n)
            images = dict(self._boundary(n))
            top = self.top_diff(n)
            if top.num:
                images[len(gens) - 1] = top
            self._models[n] = SimplexModel(
                n, self.N, FreeDGL._trusted(gens, self.N, images),
                self.flavor, self)
        return self._models[n]

    def coface(self, i, n):
        """delta_i: model(n) -> model(n+1), skipping vertex i."""
        if not 0 <= i <= n + 1:
            raise DomainError("coface index %d out of range for n=%d" % (i, n))
        return _vertex_map(self.model(n), self.model(n + 1),
                           [v if v < i else v + 1 for v in range(n + 1)])

    def codegeneracy(self, i, n):
        """sigma_i: model(n) -> model(n-1), collapsing i and i+1; faces whose
        image repeats a vertex go to 0.  Symmetric families only."""
        if self.flavor != "symmetric":
            raise DomainError(
                "codegeneracies are only defined on the symmetric family")
        if not 0 <= i <= n - 1 or n < 1:
            raise DomainError("codegeneracy index %d out of range for n=%d" % (i, n))
        return _vertex_map(self.model(n), self.model(n - 1),
                           [v if v <= i else v - 1 for v in range(n + 1)])


def seed_family(N):
    return ModelFamily(N, "seed")


@cache
def _seed_top_diffs(N, dim):
    """The seed family's top differentials of dimensions 0..dim at
    truncation N, built once and shared by every complex model and by
    tetra_top_diff.  A tuple of
    Elts, which no operation mutates, so install_top_diff on any
    ModelFamily cannot reach it."""
    fam = ModelFamily(N, "seed")
    return tuple(fam.top_diff(p) for p in range(dim + 1))


def build_model(n, N, seeds=None):
    """Inductive construction of the Delta^n model.

    seeds: optional list of top differentials for dimensions 0..n-1 (each an
    Elt over that dimension's generator set); by default the explicit
    low-dimensional models are used, then recursion.
    """
    fam = ModelFamily(N, "seed")
    if seeds is not None:
        if len(seeds) < n:
            raise ConfigError("need %d seed differentials, got %d" % (n, len(seeds)))
        for p, d in enumerate(seeds[:n]):
            fam.install_top_diff(p, d)
    fam.install_top_diff(n, inductive_top_diff(n, N, fam._boundary(n)))
    m = fam.model(n)
    m.flavor = "inductive"
    return m


def build_symmetric_model(n, N):
    fam = ModelFamily(N, "symmetric")
    return fam.model(n)


# ---------------------------------------------------------------------------
# Subdivision


def subdivision_morphism(N):
    """The map from the interval model into two glued interval models:
    endpoints to the outer endpoints, edge to the BCH product of the two
    edges.  Returns the DGLMap; chain_residues() checks it."""
    fam = seed_family(N)
    src = fam.model(1)
    faces = [(0,), (1,), (2,), (0, 1), (1, 2)]
    gens = GenSet([(face_name(f), face_degree(f)) for f in faces])
    glued = FreeDGL(gens, N, _face_images(gens, faces, N,
                                          [fam.top_diff(0), fam.top_diff(1)]))
    x1 = generator_elt(gens, N, "a01")
    x2 = generator_elt(gens, N, "a12")
    gamma_images = {
        src.gens.index("a0"): generator_elt(gens, N, "a0"),
        src.gens.index("a1"): generator_elt(gens, N, "a2"),
        src.gens.index("a01"): bch(x1, x2),
    }
    return DGLMap(src.dgl, glued, gamma_images)


# ---------------------------------------------------------------------------
# Barycentric Maurer-Cartan element


def barycentric_mc(model):
    """Gauge the last vertex by each edge ending at it, scaled by 1/(n+1);
    the linear parts telescope to the barycenter sum(a_i)/(n+1)."""
    n = model.n
    L = model.dgl
    x = model.gen((n,))
    for r in range(n):
        edge = model.gen((r, n)) * Fraction(1, n + 1)
        x = gauge(edge, x, L)
    return x


# ---------------------------------------------------------------------------
# Checkers


def check_model_axioms(model):
    """Itemized axiom report: d^2 residues, vertices MC, linear part equals
    the chain differential, cofaces are chain maps (when a family is
    attached).  Returns a dict with an overall 'ok' flag."""
    L = model.dgl
    report = {"d_squared": L.check_d_squared(), "vertices_mc": [],
              "linear_part": [], "cofaces": []}

    for i in range(model.n + 1):
        if not is_mc(L, model.gen((i,))):
            report["vertices_mc"].append(face_name((i,)))

    for face in faces_of_simplex(model.n):
        want = linear_combination(model.gens, model.N, [
            (sign, model.gen(sub)) for sign, sub in chain_boundary(face)
            if sub])
        got = L.d1(model.gen(face))
        if got != want:
            report["linear_part"].append((face_name(face), got - want))

    if model.family is not None and model.n >= 1:
        for i in range(model.n + 1):
            digl = model.family.coface(i, model.n - 1)
            for name, r in digl.chain_residues():
                if not r.is_zero():
                    report["cofaces"].append(("delta_%d" % i, name, r))
    report["ok"] = not any(report.values())
    return report


def _compose(f, g):
    """The generator images of f after g."""
    return {i: f(x) for i, x in g.images.items()}


def _is_identity(images):
    return all(x.num == {(i,): 1} and x.den == 1 for i, x in images.items())


def check_cosimplicial_identities(family, n_max):
    """Check the coface/codegeneracy identities on all levels through n_max.

    Returns a list of (identity label, ok) pairs; codegeneracy identities are
    skipped for non-symmetric families.
    """
    out = []
    # delta_j delta_i = delta_i delta_{j-1} for i < j, into model(n+2)
    for n in range(0, n_max - 1):
        for i in range(n + 2):
            for j in range(i + 1, n + 3):
                lhs = _compose(family.coface(j, n + 1), family.coface(i, n))
                rhs = _compose(family.coface(i, n + 1), family.coface(j - 1, n))
                out.append(("delta_%d delta_%d = delta_%d delta_%d (n=%d)"
                            % (j, i, i, j - 1, n), lhs == rhs))
    if family.flavor != "symmetric":
        return out
    # sigma_j sigma_i = sigma_i sigma_{j+1} for i <= j, from model(n)
    for n in range(2, n_max + 1):
        for i in range(n - 1):
            for j in range(i, n - 1):
                lhs = _compose(family.codegeneracy(j, n - 1),
                               family.codegeneracy(i, n))
                rhs = _compose(family.codegeneracy(i, n - 1),
                               family.codegeneracy(j + 1, n))
                out.append(("sigma_%d sigma_%d = sigma_%d sigma_%d (n=%d)"
                            % (j, i, i, j + 1, n), lhs == rhs))
    # sigma_j delta_i from model(n-1) to model(n-1)
    for n in range(1, n_max + 1):
        for j in range(n):
            for i in range(n + 1):
                lhs = _compose(family.codegeneracy(j, n),
                               family.coface(i, n - 1))
                if i == j or i == j + 1:
                    out.append(("sigma_%d delta_%d = id (n=%d)" % (j, i, n - 1),
                                _is_identity(lhs)))
                elif i < j:
                    rhs = _compose(family.coface(i, n - 2),
                                   family.codegeneracy(j - 1, n - 1))
                    out.append(("sigma_%d delta_%d = delta_%d sigma_%d (n=%d)"
                                % (j, i, i, j - 1, n - 1), lhs == rhs))
                else:
                    rhs = _compose(family.coface(i - 1, n - 2),
                                   family.codegeneracy(j, n - 1))
                    out.append(("sigma_%d delta_%d = delta_%d sigma_%d (n=%d)"
                                % (j, i, i - 1, j, n - 1), lhs == rhs))
    return out


def generator_homology(model, invariant=False):
    """Homology of the generator span under the length-preserving
    differential (the simplicial chain complex of Delta^n shifted down by
    one), or of its permutation-invariant subcomplex.

    Returns (dims, reps): degree -> dimension and degree -> representative
    cycles (Elt).  The plain classes are linear_homology(model.dgl), with
    its representatives and their sign convention.  The invariant ones are
    their images under the average over the vertex permutations: averaging
    is a chain map onto the invariant subcomplex and, over Q, maps homology
    onto its homology, so the projected representatives that stay
    independent modulo d1-boundaries are a basis.  For a simplex model the
    answer is one class in degree -1, represented invariantly by the
    barycenter sum.
    """
    dims, reps = linear_homology(model.dgl)
    if not invariant:
        return dims, reps
    L = model.dgl
    gens = model.gens
    inv_dims = {}
    inv_reps = {}
    for q, classes in reps.items():
        # the greedily independent columns of the d1-boundaries followed by
        # the projected classes are the pivots of one transposed echelon
        columns = [L.d1(Elt(gens, model.N, {(i,): ONE}))
                   for i, d in enumerate(gens.degrees) if d == q + 1]
        start = len(columns)
        columns += [reynolds_invariant_project(model, x) for x in classes]
        _, pivots = null_space([({w[0]: c for w, c in y.num.items()}, y.den)
                                for y in columns])
        found = [columns[j] for j in pivots if j >= start]
        if found:
            inv_dims[q] = len(found)
            inv_reps[q] = found
    return inv_dims, inv_reps
