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

All three share one relabel table (_face_images: every face's image is the
top differential of its dimension, relabeled), which also assembles the
finished models, and the two solving builders share one length-stage solver
(_solve_stage: the canonical preimage under d1 on one Lyndon slice).
"""

from fractions import Fraction
from itertools import combinations, permutations

from .lie import (
    ConfigError, DomainError, StructError, SolveError,
    GenSet, Elt, FreeDGL, DGLMap, Derivation,
    bracket, generator_elt, zero_elt, substitute,
    lyndon_slice_basis, slice_coordinates, elt_from_slice_coords,
    _slice_coords,
)
from .series import bch, exp_ad, bernoulli_op, is_mc, twist, gauge
from .linalg import FractionFreeReducer, solve_columns
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


def simplex_genset(n):
    return GenSet([(face_name(f), face_degree(f)) for f in faces_of_simplex(n)])


def chain_boundary(face):
    """(sign, subface) pairs of the simplicial chain differential."""
    out = []
    for j in range(len(face)):
        out.append(((-1) ** j, face[:j] + face[j + 1:]))
    return out


def relabel_element(x, vertex_map, target_gens, target_N, wide=False):
    """Push an element of a simplex model along a vertex relabeling.

    vertex_map is a strictly monotone tuple: source vertex v -> vertex_map[v].
    """
    images = {}
    for i in x.letters():
        name = x.gens.names[i]
        src_face = _face_of_name(name, x.gens)
        tgt_face = tuple(vertex_map[v] for v in src_face)
        images[i] = generator_elt(target_gens, target_N, face_name(tgt_face, wide))
    return substitute(x, target_gens, target_N, images)


def _face_of_name(name, gens):
    # names are generated by face_name, so invert by parsing digits
    if name.startswith("a_"):
        return tuple(int(v) for v in name[2:].split("_"))
    return tuple(int(ch) for ch in name[1:])


# ---------------------------------------------------------------------------
# The model container


class SimplexModel:
    """A free DGL model of Delta^n plus its construction context."""

    __slots__ = ("n", "N", "dgl", "flavor", "family", "perms")

    def __init__(self, n, N, dgl, flavor, family=None):
        self.n = n
        self.N = N
        self.dgl = dgl
        self.flavor = flavor
        self.family = family
        self.perms = None   # (sign, map) per vertex permutation, on demand

    @property
    def gens(self):
        return self.dgl.gens

    def gen(self, face):
        return generator_elt(self.dgl.gens, self.N, face_name(tuple(face)))

    def top_face(self):
        return tuple(range(self.n + 1))

    def vertices(self):
        return [self.gen((i,)) for i in range(self.n + 1)]

    def __repr__(self):
        return "SimplexModel(n=%d, N=%d, flavor=%s)" % (self.n, self.N, self.flavor)


def _face_images(gens, n, N, diffs):
    """Differential table of Delta^n on its faces of dimension p < len(diffs):
    a_F goes to diffs[dim F] relabeled onto F; zero images are left out."""
    images = {}
    for face in faces_of_simplex(n):
        p = len(face) - 1
        if p < len(diffs):
            img = relabel_element(diffs[p], face, gens, N)
            if not img.is_zero():
                images[gens.index(face_name(face))] = img
    return images


def assemble_model(n, N, top_diffs, flavor, family=None):
    """Build the model of Delta^n from top differentials for dims 0..n."""
    gens = simplex_genset(n)
    images = _face_images(gens, n, N, top_diffs)
    return SimplexModel(n, N, FreeDGL(gens, N, images), flavor, family)


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
    differential."""
    lower = [vertex_top_diff(N), interval_top_diff(N), triangle_top_diff(N)]
    gens = simplex_genset(3)
    partial = FreeDGL(gens, N, _face_images(gens, 3, N, lower))
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
    pinned to 0 under the basis order.  Raises SolveError when r or a d1
    column leaves the sub-alphabet's slice, or, with a homology witness,
    when r is not a d1-boundary."""
    gens = L.gens
    k = len(next(iter(r.terms)))
    tdeg = r.degree()
    tbasis = lyndon_slice_basis(gens, tdeg, k, allowed)
    lead_index = {lead: i for i, (lead, _, _) in enumerate(tbasis)}
    b = _slice_coords(r.terms, tbasis, lead_index)
    if b is None:
        raise SolveError(
            "stage length %d: residue is not a Lie element of the "
            "sub-alphabet: %s" % (k, r.pretty()))
    sbasis = lyndon_slice_basis(gens, tdeg + 1, k, allowed)
    cols = []
    for _, terms, _ in sbasis:
        col = _slice_coords(L.d1(Elt(gens, L.N, terms)).terms, tbasis,
                            lead_index)
        if col is None:
            raise SolveError("stage length %d: d1 leaves the sub-alphabet" % k)
        cols.append(col)
    x, residual = solve_columns(cols, b)
    if x is None:
        witness = elt_from_slice_coords(
            gens, L.N, tbasis, [residual.get(i, 0) for i in range(len(tbasis))])
        raise SolveError(
            "no boundary at degree %d, length %d; homology witness: %s"
            % (tdeg, k, witness.pretty()))
    return elt_from_slice_coords(
        gens, L.N, sbasis, [x.get(j, 0) for j in range(len(sbasis))])


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


def inductive_top_diff(n, N, lower_diffs):
    """Top differential of Delta^n from models of lower dimensions:

        d(top) = (-1)^n (a_{0..n-1} - Gamma) - [a_0, top]

    Gamma's linear part is pinned to the value forced by the chain
    differential; the rest is solved in the sub-alphabet of the last horn
    (n >= 3) or of the full boundary (n = 2, where the horn does not contain
    the needed letters).
    """
    if n < 2:
        raise DomainError("the inductive builder starts at dimension 2")
    gens = simplex_genset(n)
    partial = FreeDGL(gens, N, _face_images(gens, n, N, lower_diffs[:n]))
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
    gamma1 = zero_elt(gens, N)
    for j in range(n):
        sign = Fraction((-1) ** (n + j + 1))
        sub = tuple(v for v in range(n + 1) if v != j)
        gamma1 = gamma1 + sign * generator_elt(gens, N, face_name(sub))
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


def _sort_sign(seq):
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


def permutation_map(model, sigma):
    """The degree-0 automorphism a_F -> sign * a_{sorted sigma(F)}."""
    gens = model.gens
    images = {}
    for face in faces_of_simplex(model.n):
        img_verts = [sigma[v] for v in face]
        sign = _sort_sign(img_verts)
        tgt = tuple(sorted(img_verts))
        images[gens.index(face_name(face))] = Elt(
            gens, model.N, {(gens.index(face_name(tgt)),): Fraction(sign)})
    return DGLMap(model.dgl, model.dgl, images)


def perm_sign(sigma):
    return _sort_sign(list(sigma))


def equivariance_residues(model, sigma):
    """(generator, sigma(dg) - d(sigma g)) for every generator."""
    m = permutation_map(model, sigma)
    out = []
    for i, name in enumerate(model.gens.names):
        g = Elt(model.gens, model.N, {(i,): ONE})
        r = m(model.dgl.d(g)) - model.dgl.d(m(g))
        out.append((name, r))
    return out


def _reynolds_average(model, x, signed):
    """Average of sigma(x), times eps_sigma when signed, over the vertex
    permutation group.  The maps are built once per model and, as they send
    letters to signed letters, hold one shared Elt per signed letter."""
    if model.perms is None:
        model.perms, letters = [], {}
        for sigma in permutations(range(model.n + 1)):
            m = permutation_map(model, sigma)
            for i, img in m.images.items():
                m.images[i] = letters.setdefault(tuple(img.terms.items()), img)
            model.perms.append((perm_sign(sigma), m))
    total = zero_elt(model.gens, model.N)
    for sign, m in model.perms:
        total = total + (Fraction(sign) * m(x) if signed else m(x))
    return Fraction(1, len(model.perms)) * total


def reynolds_sign_project(model, x):
    """Average of eps_sigma * sigma(x) over the vertex permutation group."""
    return _reynolds_average(model, x, True)


def reynolds_invariant_project(model, x):
    """Plain average of sigma(x) over the vertex permutation group."""
    return _reynolds_average(model, x, False)


# ---------------------------------------------------------------------------
# The symmetric builder


def symmetric_top_diff(n, N, lower_diffs):
    """Equivariant top differential: solve the length-k parts from d^2 = 0
    and project each onto the sign-isotypic component (the top cell
    transforms by the sign character, and the defect term is isotypic, so
    the projected stage still solves its equation)."""
    if n < 2:
        raise DomainError("the symmetric builder starts at dimension 2")
    gens = simplex_genset(n)
    images = _face_images(gens, n, N, lower_diffs[:n])

    top_face = tuple(range(n + 1))
    top_idx = gens.index(face_name(top_face))
    top = zero_elt(gens, N)
    for sign, sub in chain_boundary(top_face):
        top = top + Fraction(sign) * generator_elt(gens, N, face_name(sub))

    # a throwaway carrier for the Reynolds projector
    shell = SimplexModel(n, N, FreeDGL(gens, N, {}), "symmetric")

    for k in range(2, N + 1):
        Lp = FreeDGL(gens, N, {**images, top_idx: top})
        rk = Lp.d(top).length_part(k)
        if rk.is_zero():
            continue
        stage = reynolds_sign_project(shell, _solve_stage(Lp, -rk))
        if Lp.d1(stage) != -rk:
            raise SolveError(
                "symmetric stage %d: sign projection broke the solution "
                "(defect not isotypic)" % k)
        top = top + stage
    return top


# ---------------------------------------------------------------------------
# Families


class ModelFamily:
    """A compatible family of simplex models, one flavor, one truncation."""

    def __init__(self, N, flavor="seed"):
        if flavor not in ("seed", "inductive", "symmetric"):
            raise ConfigError("unknown flavor %r" % flavor)
        self.N = N
        self.flavor = flavor
        self._diffs = {}
        self._models = {}

    def install_top_diff(self, p, diff):
        """Override the dimension-p top differential (used for custom seeds)."""
        self._diffs[p] = diff
        self._models.clear()

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
            lower = [self.top_diff(q) for q in range(p)]
            d = symmetric_top_diff(p, self.N, lower)
        else:
            lower = [self.top_diff(q) for q in range(p)]
            d = inductive_top_diff(p, self.N, lower)
        self._diffs[p] = d
        return d

    def model(self, n):
        if n not in self._models:
            diffs = [self.top_diff(p) for p in range(n + 1)]
            self._models[n] = assemble_model(n, self.N, diffs, self.flavor, self)
        return self._models[n]

    def coface(self, i, n):
        """delta_i: model(n) -> model(n+1), skipping vertex i."""
        if not 0 <= i <= n + 1:
            raise DomainError("coface index %d out of range for n=%d" % (i, n))
        src = self.model(n)
        tgt = self.model(n + 1)
        vmap = [v if v < i else v + 1 for v in range(n + 1)]
        images = {}
        for face in faces_of_simplex(n):
            tgt_face = tuple(vmap[v] for v in face)
            images[src.gens.index(face_name(face))] = generator_elt(
                tgt.gens, self.N, face_name(tgt_face))
        return DGLMap(src.dgl, tgt.dgl, images)

    def codegeneracy(self, i, n):
        """sigma_i: model(n) -> model(n-1), collapsing i and i+1; faces whose
        image repeats a vertex go to 0.  Symmetric families only."""
        if self.flavor != "symmetric":
            raise DomainError(
                "codegeneracies are only defined on the symmetric family")
        if not 0 <= i <= n - 1 or n < 1:
            raise DomainError("codegeneracy index %d out of range for n=%d" % (i, n))
        src = self.model(n)
        tgt = self.model(n - 1)
        images = {}
        for face in faces_of_simplex(n):
            img_verts = [v if v <= i else v - 1 for v in face]
            if len(set(img_verts)) != len(img_verts):
                images[src.gens.index(face_name(face))] = zero_elt(tgt.gens, self.N)
            else:
                images[src.gens.index(face_name(face))] = generator_elt(
                    tgt.gens, self.N, face_name(tuple(img_verts)))
        return DGLMap(src.dgl, tgt.dgl, images)


def seed_family(N):
    return ModelFamily(N, "seed")


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
    lower = [fam.top_diff(p) for p in range(n)]
    fam.install_top_diff(n, inductive_top_diff(n, N, lower))
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
    pairs = [("a0", -1), ("a1", -1), ("a2", -1), ("a01", 0), ("a12", 0)]
    gens = GenSet(pairs)
    d1 = interval_top_diff(N)
    images = {
        gens.index("a0"): relabel_element(vertex_top_diff(N), (0,), gens, N),
        gens.index("a1"): relabel_element(vertex_top_diff(N), (1,), gens, N),
        gens.index("a2"): relabel_element(vertex_top_diff(N), (2,), gens, N),
        gens.index("a01"): relabel_element(d1, (0, 1), gens, N),
        gens.index("a12"): relabel_element(d1, (1, 2), gens, N),
    }
    glued = FreeDGL(gens, N, images)
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
    report = {"ok": True, "d_squared": [], "vertices_mc": [],
              "linear_part": [], "cofaces": []}

    for name, r in L.check_d_squared():
        report["ok"] = False
        report["d_squared"].append((name, r))

    for i in range(model.n + 1):
        v = model.gen((i,))
        if not is_mc(L, v):
            report["ok"] = False
            report["vertices_mc"].append(face_name((i,)))

    for face in faces_of_simplex(model.n):
        want = zero_elt(model.gens, model.N)
        if len(face) > 1:
            for sign, sub in chain_boundary(face):
                want = want + Fraction(sign) * model.gen(sub)
        got = L.d1(model.gen(face))
        if got != want:
            report["ok"] = False
            report["linear_part"].append((face_name(face), got - want))

    if model.family is not None and model.n >= 1:
        for i in range(model.n + 1):
            digl = model.family.coface(i, model.n - 1)
            for name, r in digl.chain_residues():
                if not r.is_zero():
                    report["ok"] = False
                    report["cofaces"].append(("delta_%d" % i, name, r))
    return report


def _maps_equal(f, g):
    src = f.source.gens
    for i in range(len(src)):
        x = Elt(src, f.source.N, {(i,): ONE})
        if f(x) != g(x):
            return False
    return True


def _compose(f, g):
    """f after g."""
    images = {}
    for i in range(len(g.source.gens)):
        x = Elt(g.source.gens, g.source.N, {(i,): ONE})
        images[i] = f(g(x))
    return DGLMap(g.source, f.target, images)


def _is_identity(f):
    src = f.source.gens
    for i in range(len(src)):
        x = Elt(src, f.source.N, {(i,): ONE})
        if f(x) != x:
            return False
    return True


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
                            % (j, i, i, j - 1, n), _maps_equal(lhs, rhs)))
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
                            % (j, i, i, j + 1, n), _maps_equal(lhs, rhs)))
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
                                % (j, i, i, j - 1, n - 1),
                                _maps_equal(lhs, rhs)))
                else:
                    rhs = _compose(family.coface(i - 1, n - 2),
                                   family.codegeneracy(j, n - 1))
                    out.append(("sigma_%d delta_%d = delta_%d sigma_%d (n=%d)"
                                % (j, i, i - 1, j, n - 1),
                                _maps_equal(lhs, rhs)))
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
        red = FractionFreeReducer()
        for i, d in enumerate(gens.degrees):
            if d == q + 1:
                dx = L.d1(Elt(gens, model.N, {(i,): ONE}))
                red.insert({w[0]: c for w, c in dx.terms.items()})
        found = []
        for x in classes:
            y = reynolds_invariant_project(model, x)
            if red.insert({w[0]: c for w, c in y.terms.items()}) is None:
                found.append(y)
        if found:
            inv_dims[q] = len(found)
            inv_reps[q] = found
    return inv_dims, inv_reps


def invariant_linear_homology(model):
    """Homology of the permutation-invariant part of the slices (generators
    and their Lie words of every length), with the length-preserving
    differential.

    Returns a dict (degree, length) -> dimension of the invariant homology,
    zero entries omitted.
    """
    L = model.dgl
    gens = model.gens
    N = model.N
    mindeg = min(gens.degrees)
    maxdeg = max(gens.degrees)

    inv_basis = {}   # (q, k) -> list of invariant Elt spanning the subspace
    for k in range(1, N + 1):
        for q in range(mindeg * k, maxdeg * k + 1):
            basis = lyndon_slice_basis(gens, q, k)
            if not basis:
                continue
            red = FractionFreeReducer()
            vecs = []
            for _, terms, _ in basis:
                proj = reynolds_invariant_project(model, Elt(gens, N, terms))
                if proj.is_zero():
                    continue
                coords = slice_coordinates(proj, basis)
                if red.insert({i: c for i, c in enumerate(coords) if c}) is None:
                    vecs.append(proj)
            if vecs:
                inv_basis[(q, k)] = vecs

    ranks = {}
    for (q, k), vecs in sorted(inv_basis.items()):
        red = FractionFreeReducer()
        for x in vecs:
            dx = L.d1(x)
            if dx.is_zero():
                continue
            below = lyndon_slice_basis(gens, q - 1, k)
            coords = slice_coordinates(dx, below)
            if coords is None:
                raise StructError("linear differential left its slice")
            red.insert({i: c for i, c in enumerate(coords) if c})
        ranks[(q, k)] = red.rank()

    dims = {}
    for (q, k), vecs in inv_basis.items():
        h = len(vecs) - ranks.get((q, k), 0) - ranks.get((q + 1, k), 0)
        if h:
            dims[(q, k)] = h
    return dims
