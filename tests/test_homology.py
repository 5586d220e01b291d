"""Homology, homotopy groups and the BCH group structure."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from freedgl.lie import (
    ConfigError, DomainError, StructError, GenSet, FreeDGL, Elt, zero_elt,
    generator_elt, slice_coordinates, lyndon_slice_basis,
)
from freedgl.serialize import emit_element
from freedgl.series import bch, gauge, is_mc, twist
from freedgl.simplex import (
    seed_family, interval_model, vertex_top_diff, interval_top_diff,
    tetra_model,
)
from freedgl.homology import (
    MalcevQuotient, homology, linear_homology, pi_n, verify_simplex,
    tower_layers, _DegreeLayout, _h0_quotient, _kernel_pass,
)
from freedgl.complexes import (
    parse_complex, model_of_complex, minimal_model, localize,
)
from freedgl.linalg import SpanReducer

from oracles import (
    dense_rank, free_lie_slice_dim, kernel_columns, marker_h0, over,
    primitive, transpose,
)
from test_simplex import relabel_element

ONE = Fraction(1)
F = Fraction


def graph_dgl(nv, edges, N):
    """Free DGL of a graph: one degree -1 generator per vertex, one degree 0
    generator per edge, differentials relabeled from the simplex models."""
    pairs = [("a%d" % v, -1) for v in range(nv)]
    pairs += [("a%d%d" % (u, v), 0) for (u, v) in edges]
    gens = GenSet(pairs)
    vt = vertex_top_diff(N)
    it = interval_top_diff(N)
    images = {}
    for v in range(nv):
        images[v] = relabel_element(vt, {0: v}, gens, N)
    for j, (u, v) in enumerate(edges):
        images[nv + j] = relabel_element(it, {0: u, 1: v}, gens, N)
    return FreeDGL(gens, N, images)


def gen_elt(L, i):
    return Elt(L.gens, L.N, {(i,): ONE})


class MarkerQuotient(MalcevQuotient):
    """H_0 of any L, twisted ones with degree -1 letters included, by the
    marker route of oracles.marker_h0: the degree-0 kernel vectors that add
    a pivot to the boundaries are the representatives, and a class is read
    off the combination that reduces it.  The product and table are
    MalcevQuotient's."""

    def __init__(self, L):
        lay0 = _DegreeLayout(L, 0)
        kernels, _ = _kernel_pass(L, lay0, _DegreeLayout(L, -1))
        boundaries = [over(*lay0.coords(L.d(x)))
                      for x in _DegreeLayout(L, 1).elements(L.N)]
        reps, self.classes = marker_h0(kernels.values(), boundaries)
        super().__init__(L, [lay0.element(L.N, kv) for kv in reps], lay0,
                         None, None)

    def class_coords(self, x):
        vec = self._layout.coords(x)
        if vec is None:
            raise DomainError("class_coords needs a degree-0 element")
        out = self.classes(over(*vec))
        if out is None:
            raise DomainError("element is not a cycle mod boundaries")
        return out


def test_point_model_twisted_is_acyclic():
    vm = seed_family(4).model(0)
    tw = twist(vm.dgl, vm.gen((0,)))
    rep = homology(tw)
    assert rep.dims == {-4: 0, -3: 0, -2: 0, -1: 0}
    for e in rep.entries.values():
        assert e["h"] == e["kernel"] - e["image"]
        assert e["reps"] == []


def test_circle_linear_homology():
    circ = graph_dgl(3, [(0, 1), (1, 2), (0, 2)], 4)
    assert not [n for n, r in circ.check_d_squared() if not r.is_zero()]
    dims, reps = linear_homology(circ)
    assert dims == {-1: 1, 0: 1}
    cyc = reps[0][0]
    assert circ.d1(cyc).is_zero()
    assert set(cyc.terms) == {(3,), (4,), (5,)}


def test_free_homology_matches_witt_counts():
    L = FreeDGL(GenSet([("x", 1)]), 4, {})
    rep = homology(L)
    for q in range(1, 5):
        expected = sum(free_lie_slice_dim((1,), q, k) for k in range(1, 5))
        assert rep.dims[q] == expected
    L2 = FreeDGL(GenSet([("x", 0), ("y", 0)]), 3, {})
    rep2 = homology(L2, degrees=[0])
    assert rep2.dims[0] == sum(
        free_lie_slice_dim((0, 0), 0, k) for k in range(1, 4))


def test_homology_representatives_are_cycles():
    tri = seed_family(3).model(2)
    tw = twist(tri.dgl, tri.gen((0,)))
    rep = homology(tw)
    for e in rep.entries.values():
        for x in e["reps"]:
            assert tw.d(x).is_zero()


def test_row_and_column_elimination_agree():
    tri = seed_family(3).model(2)
    tw = twist(tri.dgl, tri.gen((0,)))
    rep = homology(tw)
    layouts = {q: _DegreeLayout(tw, q) for q in range(-4, 2)}
    for q in range(-3, 1):
        cols = []
        for x in layouts[q].elements(tw.N):
            cols.append(over(*layouts[q - 1].coords(tw.d(x))))
        up = []
        for x in layouts[q + 1].elements(tw.N):
            up.append(over(*layouts[q].coords(tw.d(x))))
        rk = dense_rank(cols, layouts[q - 1].dim)
        assert rk == dense_rank(transpose(cols), layouts[q].dim)
        h = layouts[q].dim - rk - dense_rank(up, layouts[q].dim)
        assert h == rep.dims[q]


def test_layout_coords_concatenate_slice_coordinates():
    tri = seed_family(3).model(2)
    tw = twist(tri.dgl, tri.gen((0,)))
    for q in range(-3, 1):
        lay = _DegreeLayout(tw, q)
        slices = []
        off = 0
        for k in range(1, tw.N + 1):
            basis = lyndon_slice_basis(tw.gens, q, k)
            slices.append((k, off, basis))
            off += len(basis)
        assert off == lay.dim
        for x in _DegreeLayout(tw, q + 1).elements(tw.N):
            dx = tw.d(x)
            want = {}
            for k, off, basis in slices:
                if not basis:
                    continue
                c = slice_coordinates(dx.length_part(k), basis)
                want.update({off + i: ci for i, ci in enumerate(c) if ci})
            assert over(*lay.coords(dx)) == want


_TRI = seed_family(3).model(2)
# degree -2 of the twisted triangle at N=3: length-2 brackets of vertices,
# three of them doubled [a_i, a_i], then 27 length-3 elements
_TW = twist(_TRI.dgl, _TRI.gen((0,)))
_LAY = _DegreeLayout(_TW, -2)


@given(st.dictionaries(st.integers(min_value=0, max_value=_LAY.dim - 1),
                       st.builds(Fraction,
                                 st.integers(min_value=-9, max_value=9)
                                 .filter(bool),
                                 st.integers(min_value=1, max_value=6)),
                       max_size=8))
@settings(max_examples=60, deadline=None)
def test_layout_element_and_coords_are_inverse(v):
    assert over(*_LAY.coords(_LAY.element(_TW.N, v))) == v


def test_pi_2_of_single_degree_one_generator():
    L = FreeDGL(GenSet([("x", 1)]), 2, {})
    entry = pi_n(L, 2)
    assert entry["h"] == 1
    assert entry["reps"][0] == gen_elt(L, 0)


def test_pi_1_free_rank_two_nonabelian():
    L = FreeDGL(GenSet([("x", 0), ("y", 0)]), 2, {})
    q = pi_n(L, 1)
    assert q.dim == 3
    xc, yc = q.basis_coords(0), q.basis_coords(1)
    assert q.product(xc, yc) != q.product(yc, xc)
    assert not q.is_abelian()
    comm = q.product(q.product(xc, yc), q.inverse(q.product(yc, xc)))
    assert comm != q.zero()


def test_pi_1_abelianization():
    L = FreeDGL(GenSet([("x", 0), ("y", 0)]), 2, {})
    q = pi_n(L, 1, N=1)
    assert q.dim == 2
    assert q.is_abelian()
    assert q.product(q.basis_coords(0), q.basis_coords(1)) == (ONE, ONE)


def test_group_axioms_on_bch_table():
    L = FreeDGL(GenSet([("x", 0), ("y", 0)]), 3, {})
    q = pi_n(L, 1)
    units = [q.basis_coords(i) for i in range(q.dim)]
    z = q.zero()
    for u in units:
        assert q.product(z, u) == u
        assert q.product(u, z) == u
        assert q.product(u, q.inverse(u)) == z
    for a in units[:3]:
        for b in units[:3]:
            for c in units[:3]:
                left = q.product(q.product(a, b), c)
                right = q.product(a, q.product(b, c))
                assert left == right


def test_pi_rejects_bad_input():
    vm = seed_family(2).model(0)
    with pytest.raises(DomainError):
        pi_n(vm.dgl, 1)
    L = FreeDGL(GenSet([("x", 0)]), 2, {})
    with pytest.raises(DomainError):
        pi_n(L, 0)


def test_homology_and_pi_refuse_truncation_below_one():
    L = FreeDGL(GenSet([("x", 0), ("y", 0)]), 2, {})
    for call, M in ((lambda: homology(L, N=0), 0), (lambda: pi_n(L, 1, N=0), 0),
                    (lambda: pi_n(L, 1, N=-2), -2)):
        with pytest.raises(ConfigError) as e:
            call()
        assert str(e.value) == "truncation must be >= 1, got %d" % M


def test_verify_simplex_vertex_is_mc_check():
    vertex = seed_family(3).model(0)
    L = interval_model(3).dgl
    assert verify_simplex(vertex, L, {"a0": gen_elt(L, 0)})
    assert verify_simplex(vertex, L, {"a0": zero_elt(L.gens, 3)})
    Lc = FreeDGL(GenSet([("c", -1)]), 3, {})
    assert not verify_simplex(vertex, Lc, {"a0": gen_elt(Lc, 0)})


def test_verify_simplex_refuses_images_over_another_frame():
    # an assignment's image is not read by letter index over another
    # generator set, nor at another truncation than the target's
    m = seed_family(3).model(0)
    b = generator_elt(GenSet([("b", -1)]), 3, "b")
    z = generator_elt(GenSet([("x", 0), ("y", 0), ("z", -1)]), 3, "z")
    for img, text in (
            (b, "elements over different generator sets"),
            (generator_elt(m.gens, 2, "a0"), "mixed truncations: 2 vs 3"),
            (z, "elements over different generator sets"),
            # a zero image is checked before it is skipped
            (zero_elt(GenSet([("b", -1), ("c", 0)]), 2),
             "elements over different generator sets"),
            (zero_elt(m.gens, 2), "mixed truncations: 2 vs 3")):
        with pytest.raises(ConfigError) as e:
            verify_simplex(m, m.dgl, {"a0": img})
        assert str(e.value) == text
    equal = generator_elt(GenSet([("a0", -1)]), 3, "a0")
    assert verify_simplex(m, m.dgl, {"a0": equal})


def test_verify_simplex_interval_with_zero_endpoints():
    iv = seed_family(3).model(1)
    L = FreeDGL(GenSet([("u", 0)]), 3, {})
    z = zero_elt(L.gens, 3)
    assert verify_simplex(iv, L, {"a0": z, "a1": z, "a01": gen_elt(L, 0)})


def test_verify_simplex_triangle_composite():
    tri = seed_family(1).model(2)
    A = FreeDGL(GenSet([("f", 0), ("g", 0)]), 1, {})
    f, g = gen_elt(A, 0), gen_elt(A, 1)
    z = zero_elt(A.gens, 1)
    asg = {"a0": z, "a1": z, "a2": z,
           "a01": g, "a12": f, "a02": bch(f, g), "a012": z}
    assert verify_simplex(tri, A, asg)
    bad = dict(asg)
    bad["a02"] = f
    assert not verify_simplex(tri, A, bad)


def gauge_equivalent_certificate(L, a, b, x):
    """Whether the gauge action of x carries a to b, mod L^{>N}."""
    if not is_mc(L, b):
        raise DomainError("gauge certificate target is not Maurer-Cartan")
    return gauge(x, a, L) == b


def test_gauge_certificate_on_interval():
    iv = interval_model(5)
    L = iv.dgl
    a0, a1, x = iv.gen((0,)), iv.gen((1,)), iv.gen((0, 1))
    assert gauge_equivalent_certificate(L, a1, a0, x)
    assert not gauge_equivalent_certificate(L, a0, a1, x)
    z = zero_elt(L.gens, 5)
    assert gauge_equivalent_certificate(L, a0, a0, z)
    assert not gauge_equivalent_certificate(L, a0, a1, z)
    with pytest.raises(DomainError):
        gauge_equivalent_certificate(L, a0, x, z)


def test_tower_layers_of_free_rank_two():
    L = FreeDGL(GenSet([("x", 0), ("y", 0)]), 4, {})
    quotients = [pi_n(L, 1, N=k) for k in range(1, 5)]
    assert tower_layers(quotients) == [2, 1, 2, 3]
    for k, q in enumerate(quotients, start=1):
        assert q.dim == sum(
            free_lie_slice_dim((0, 0), 0, j) for j in range(1, k + 1))


def test_twisted_circle_group_is_rank_one():
    # the twisted model has degree -1 letters: pi_1 refuses it, and its H_0
    # is read by the marker oracle
    circ = graph_dgl(3, [(0, 1), (1, 2), (0, 2)], 3)
    tw = twist(circ, gen_elt(circ, 0))
    with pytest.raises(DomainError, match="non-negatively graded"):
        _h0_quotient(tw)
    grp = MarkerQuotient(tw)
    assert grp.dim == 1
    assert grp.is_abelian()
    with pytest.raises(DomainError):
        grp.class_coords(gen_elt(tw, 0))
    # the circle's minimal model has no negative degree
    grp = pi_n(minimal_model(parse_complex(CIRCLE), 0, 3), 1)
    assert grp.dim == 1
    assert grp.is_abelian()


def test_class_coords_reject_noncycles():
    # a degree-0 element of a non-negatively graded L is a cycle; a twisted
    # model, where it may not be, is refused, and the marker oracle rejects
    # its non-cycles
    circ = graph_dgl(2, [(0, 1)], 3)
    tw = twist(circ, gen_elt(circ, 0))
    with pytest.raises(DomainError, match="non-negatively graded"):
        _h0_quotient(tw)
    grp = MarkerQuotient(tw)
    assert grp.dim == 0
    with pytest.raises(DomainError):
        grp.class_coords(gen_elt(tw, 2))
    # off degree 0, the new route refuses too
    L = FreeDGL(GenSet([("x", 0), ("y", 0), ("z", 1)]), 3, {})
    with pytest.raises(DomainError, match="needs a degree-0 element"):
        pi_n(L, 1).class_coords(gen_elt(L, 2))


def test_class_coords_refuse_another_frame():
    # an element over other generators, or at another truncation, is not
    # read as if it were one of the quotient's
    grp = pi_n(minimal_model(parse_complex(FIG8), 0, 3), 1)
    other = GenSet([("p", 0), ("q", 0)])
    with pytest.raises(ConfigError, match="different generator sets"):
        grp.class_coords(generator_elt(other, 3, "q"))
    for N in (2, 5):
        x = grp.basis[0].at_truncation(N)
        with pytest.raises(ConfigError, match="mixed truncations"):
            grp.class_coords(x)
    assert grp.class_coords(grp.basis[0]) == grp.basis_coords(0)


def test_class_coords_reject_a_word_with_an_empty_slice():
    # degree 0, length 2 over one degree-0 letter has no Lyndon element, so
    # the bare word x.x is not a Lie element and has no class
    L = FreeDGL(GenSet([("x", 0)]), 2, {})
    q = pi_n(L, 1)
    xx = Elt(L.gens, L.N, {(0, 0): ONE})
    assert _DegreeLayout(L, 0).coords(xx) is None
    with pytest.raises(DomainError, match="does not lie in the degree-0 slice"):
        q.class_coords(xx)


FIG8 = "0 1\n1 2\n0 2\n0 3\n3 4\n0 4"
S2 = "0 1 2\n0 1 3\n0 2 3\n1 2 3"
CIRCLE = "0 1\n1 2\n0 2"
# the 7-vertex torus
TORUS = "\n".join("%d %d %d\n%d %d %d" % (i, (i + 1) % 7, (i + 3) % 7,
                                        i, (i + 2) % 7, (i + 3) % 7)
                   for i in range(7))

# cycle representatives of the complex models twisted at vertex 0 at N=2,
# term by term: each is the primitive integer kernel vector of its dependent
# column, lowest coordinate positive, so a rescaled or re-signed kernel
# vector shows here
PINNED_REPS = {
    (FIG8, 0): [
        {(5,): F(2), (5, 6): F(-1), (5, 9): F(1), (6,): F(-2), (6, 5): F(1),
         (6, 9): F(1), (9,): F(2), (9, 5): F(-1), (9, 6): F(-1)},
        {(7,): F(2), (7, 8): F(-1), (7, 10): F(1), (8,): F(-2), (8, 7): F(1),
         (8, 10): F(1), (10,): F(2), (10, 7): F(-1), (10, 8): F(-1)},
        {(5, 7): F(1), (5, 8): F(-1), (5, 10): F(1), (6, 7): F(-1),
         (6, 8): F(1), (6, 10): F(-1), (7, 5): F(-1), (7, 6): F(1),
         (7, 9): F(-1), (8, 5): F(1), (8, 6): F(-1), (8, 9): F(1),
         (9, 7): F(1), (9, 8): F(-1), (9, 10): F(1), (10, 5): F(-1),
         (10, 6): F(1), (10, 9): F(-1)},
    ],
    (FIG8, -1): [
        {(0, 5): F(1), (0, 6): F(-1), (0, 9): F(1), (5, 0): F(-1),
         (6, 0): F(1), (9, 0): F(-1)},
        {(0, 7): F(1), (0, 8): F(-1), (0, 10): F(1), (7, 0): F(-1),
         (8, 0): F(1), (10, 0): F(-1)},
    ],
    (S2, 1): [
        {(4, 11): F(-1), (4, 12): F(2), (4, 13): F(-2), (5, 11): F(1),
         (5, 12): F(-1), (6, 12): F(-1), (7, 11): F(-1), (7, 12): F(1),
         (8, 12): F(1), (10,): F(2), (11,): F(-2), (11, 4): F(1),
         (11, 5): F(-1), (11, 7): F(1), (12,): F(2), (12, 4): F(-2),
         (12, 5): F(1), (12, 6): F(1), (12, 7): F(-1), (12, 8): F(-1),
         (13,): F(-2), (13, 4): F(2)},
    ],
}


def test_homology_representatives_are_pinned():
    for (text, q), pinned in PINNED_REPS.items():
        cm = model_of_complex(parse_complex(text), 2)
        tw = twist(cm.dgl, cm.gen((0,)))
        reps = homology(tw, degrees=[q]).entries[q]["reps"]
        assert [x.terms for x in reps] == pinned, (text, q)
    # the tetrahedron model is acyclic: its degree -1 kernel is all image
    e = homology(tetra_model(3).dgl, degrees=[-1]).entries[-1]
    assert (e["kernel"], e["image"], e["reps"]) == (150, 150, [])


def _homology_digest(report):
    """sha256 of every degree's kernel, image and H dims and the serialized
    representatives, in ascending degree."""
    h = hashlib.sha256()
    for q in sorted(report.entries):
        e = report.entries[q]
        h.update(("%d %d %d %d\n" % (q, e["kernel"], e["image"], e["h"]))
                 .encode())
        for x in e["reps"]:
            h.update((emit_element(x) + "\n").encode())
    return h.hexdigest()


# full-range homology(L), every degree sharing its passes with its
# neighbours; captured when each degree's image had a separate elimination
PINNED_FULL_RANGE = [
    (FIG8, False, {-3: 0, -2: 2, -1: 3, 0: 2},
     "ee2f415e1f797e1fe1cc8b1dd2ed85a14728c0c164ada7c649c1cbc9009377ff"),
    (CIRCLE, True, {-3: 0, -2: 0, -1: 1, 0: 1},
     "b3b16af3ed781b5e13b3a5e557aae7a7e95edb04e59f553314fb4ed500d10046"),
    ("0 1 2", True, {q: 0 for q in range(-3, 4)},
     "8aa3d5ecb94614f0b6029c25da5cba782294c9b00c0e422d142276b3df79bf1c"),
]


def test_full_range_homology_is_pinned():
    for text, twisted, dims, digest in PINNED_FULL_RANGE:
        cm = model_of_complex(parse_complex(text), 3)
        L = twist(cm.dgl, cm.gen((0,))) if twisted else cm.dgl
        report = homology(L)
        assert report.dims == dims, text
        assert _homology_digest(report) == digest, text


def test_kernels_come_off_no_span_reducer(monkeypatch):
    # homology's and localize's kernels are read off the markerless
    # echelon: with SpanReducer refusing to work they give the same answers
    class Reached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(SpanReducer, "insert", refuse)
    monkeypatch.setattr(SpanReducer, "reduce", refuse)
    report = homology(tetra_model(3).dgl)
    assert report.dims == {q: 0 for q in range(-3, 7)}
    assert _homology_digest(report) == (
        "50be042826ce3eaaabadf4c4d5dd16a77ef2604066b3d1e6469528eb0d321029")
    cm = model_of_complex(parse_complex(CIRCLE), 3)
    loc = localize(cm.dgl, cm.gen((0,)))
    h = hashlib.sha256()
    for x in loc.kernel_basis + [None] + loc.complement:
        h.update(("-" if x is None else emit_element(x) + "\n").encode())
    assert (len(loc.kernel_basis), len(loc.complement)) == (1, 13)
    assert h.hexdigest() == (
        "bc2c80d1047536ebad55ce89b7f5bb6f63de8f152fd6a6cd822ee25d9bb42bcc")
    # the patch has reach: minimal_model's pairing still runs on it
    with pytest.raises(Reached):
        minimal_model(parse_complex(CIRCLE), 0, 2)


def test_homology_applies_d_once_per_basis_element(monkeypatch):
    L = model_of_complex(parse_complex(FIG8), 3).dgl
    read = sum(_DegreeLayout(L, q).dim for q in range(-3, 1))
    calls = [0]
    d = FreeDGL.d

    def counted(self, x):
        calls[0] += 1
        return d(self, x)

    monkeypatch.setattr(FreeDGL, "d", counted)
    assert homology(L).degrees == [-3, -2, -1, 0]
    # d once on each basis element read; a separate image pass per degree
    # would make 982 calls
    assert calls[0] == read == 511


def test_homology_refuses_a_differential_with_nonzero_square():
    # d x = y, d y = z: d^2 x = z, so the boundaries of degrees -1..1 are
    # not cycles and their count does not match ker - im
    gens = GenSet([("x", 1), ("y", 0), ("z", -1)])
    L = FreeDGL(gens, 2, {0: generator_elt(gens, 2, "y"),
                          1: generator_elt(gens, 2, "z")})
    for q in (-1, 0, 1):
        with pytest.raises(StructError,
                           match="homology bookkeeping mismatch at degree %d"
                           % q):
            homology(L, degrees=[q])


@st.composite
def twisted_complex_models(draw):
    """A complex model twisted at a vertex: 1-6 edges and 0-2 triangles on
    at most 5 vertices (a face inside another dropped), at N=2..3 for a
    graph and N=1..2 once a triangle is drawn."""
    faces = draw(st.lists(st.sampled_from(list(combinations(range(5), 2))),
                          min_size=1, max_size=6, unique=True))
    faces += draw(st.lists(st.sampled_from(list(combinations(range(5), 3))),
                           max_size=2, unique=True))
    faces = [f for f in faces if not any(set(f) < set(g) for g in faces)]
    graph = all(len(f) == 2 for f in faces)
    N = draw(st.integers(min_value=1 + graph, max_value=2 + graph))
    text = "\n".join(" ".join(map(str, f)) for f in faces)
    cm = model_of_complex(parse_complex(text), N)
    vertex = draw(st.integers(min_value=0, max_value=cm.K.n_vertices - 1))
    return twist(cm.dgl, cm.gen((vertex,)))


@given(twisted_complex_models())
@settings(max_examples=60, deadline=None)
def test_homology_classes_match_the_marker_oracle_in_every_degree(L):
    # the representatives, term by term, against the marker route: the
    # kernel vectors inserted into the boundary span in order, each kept
    # when it adds a pivot
    for q in homology(L).degrees:
        lay = _DegreeLayout(L, q)
        if not lay.dim:
            continue
        below = _DegreeLayout(L, q - 1)
        kernels, _ = _kernel_pass(L, lay, below)
        # the kernels themselves against the oracle's, on the same columns
        cols = [over(*below.coords(L.d(x))) for x in lay.elements(L.N)]
        assert kernels == {max(k): primitive(k)
                           for k in kernel_columns(cols)}, q
        boundaries = [over(*lay.coords(L.d(x)))
                      for x in _DegreeLayout(L, q + 1).elements(L.N)]
        want, _ = marker_h0(kernels.values(), boundaries)
        reps = homology(L, degrees=[q]).entries[q]["reps"]
        assert [over(*lay.coords(x)) for x in reps] == want, q


def _xyz():
    """x:0 y:0 z:1 with d z = [x, y] at N=3: H_0 is abelian of rank 2, the
    brackets of lengths 2 and 3 being boundaries."""
    gens = GenSet([("x", 0), ("y", 0), ("z", 1)])
    return FreeDGL(gens, 3, {2: Elt(gens, 3, {(0, 1): ONE, (1, 0): -ONE})})


def test_class_coords_of_a_rep_plus_a_boundary_is_a_unit_vector():
    # non-negatively graded inputs with degree-0 boundaries: x, y, z with
    # d z = [x, y], and the torus minimal model, whose degree-1 generator
    # bounds the commutator of the two loops
    for L in (_xyz(), minimal_model(parse_complex(TORUS), 0, 3)):
        grp = pi_n(L, 1)
        assert grp.dim == 2
        boundary = zero_elt(L.gens, L.N)
        for j, x in enumerate(_DegreeLayout(L, 1).elements(L.N)):
            boundary = boundary + (j + 1) * L.d(x)
        assert not boundary.is_zero()
        for i, rep in enumerate(grp.basis):
            assert grp.class_coords(rep + boundary) == grp.basis_coords(i)
