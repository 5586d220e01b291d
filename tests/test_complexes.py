"""Complex ingestion, models, components, localization, minimal models."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freedgl.lie import (
    DomainError, StructError, SolveError, Elt, GenSet, FreeDGL, DGLMap,
    generator_elt, zero_elt, substitute, Substitution, clear_denominators,
)
from freedgl.linalg import SpanReducer
from freedgl.serialize import ParseError, emit_dgl
from freedgl.series import is_mc, twist
from freedgl.simplex import seed_family, interval_model, _seed_top_diffs
from freedgl.homology import (
    linear_homology, homology, malcev_tower, tower_layers, pi_n,
    _DegreeLayout,
)
from freedgl import complexes
from freedgl.complexes import (
    SimplicialComplex, parse_complex, model_of_complex, components,
    subcomplex, localize, maximal_tree, minimal_model,
)

from oracles import (
    dense_rank, simplicial_betti, free_lie_slice_dim, surface_lcs_ranks,
    close_faces, union_find_components, bfs_spanning_tree,
)
from test_homology import MarkerQuotient, _count_column_reads

CIRCLE = "0 1\n1 2\n0 2"
FIG8 = "0 1\n1 2\n0 2\n0 3\n3 4\n0 4"
WEDGE = "0 1\n1 2\n0 2\n0 3 4\n0 3 5\n0 4 5\n3 4 5"
S2 = "0 1 2\n0 1 3\n0 2 3\n1 2 3"
BOUQUET3 = FIG8 + "\n0 5\n5 6\n0 6"
RP2 = "0 1 2\n0 2 3\n0 3 4\n0 4 5\n0 1 5\n1 2 4\n2 3 5\n1 3 4\n2 4 5\n1 3 5"
OCTAHEDRON = "0 2 4\n0 2 5\n0 3 4\n0 3 5\n1 2 4\n1 2 5\n1 3 4\n1 3 5"
TORUS = "\n".join("%d %d %d" % (i, (i + 1) % 7, (i + 3) % 7)
                  for i in range(7)) + "\n" + \
        "\n".join("%d %d %d" % (i, (i + 2) % 7, (i + 3) % 7)
                  for i in range(7))


def test_parse_triangle_and_circle():
    full = parse_complex("0 1 2")
    assert len(full.faces) == 7
    assert full.dim == 2
    circ = parse_complex(CIRCLE)
    assert len(circ.faces) == 6
    assert circ.dim == 1
    f8 = parse_complex(FIG8)
    assert f8.n_vertices == 5
    assert len(f8.faces_of_dim(1)) == 6


def test_parse_comments_and_renumbering():
    K = parse_complex("# a square\n2 7\n7 9\n# gap in ids\n2 9\n")
    assert K.n_vertices == 3
    assert K.labels == (2, 7, 9)
    assert K.faces_of_dim(1) == ((0, 1), (0, 2), (1, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_complex("0 1\nx 2")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_complex("0 1\n# fine\n1 0")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_complex("0 0 1")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_complex("# nothing\n")


@pytest.mark.parametrize("text, line, message", [
    ("0 1\n1 x\n", 2, "vertex ids must be integers: '1 x'"),
    ("0 1\n-1 2\n", 2, "negative vertex id in '-1 2'"),
    ("0 1\n2 2\n", 2, "face '2 2' repeats a vertex"),
    ("0 1\n# again\n1 0\n", 3, "duplicate face '1 0'"),
    ("# nothing\n\n", None, "no faces given"),
])
def test_parse_complex_refusals(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_complex(text)
    assert e.value.line == line
    assert str(e.value) == (
        message if line is None else "line %d: %s" % (line, message))


# line soup for the complex-file boundary: vertex ids, negatives, repeated
# vertices and duplicate faces, junk tokens, # comments, and digits of other
# scripts, which int() reads as ids
_TOKEN = st.one_of(
    st.integers(min_value=0, max_value=5).map(str),
    st.sampled_from(["-1", "-7", "x", "1.5", "+2", "1_0", "0x1", "\u0663",
                     "\u0661\u0662", "\uff13", "#", "# 0 1", "\t"]))
LINE_SOUP = st.lists(st.lists(_TOKEN, max_size=5).map(" ".join),
                     max_size=6).map("\n".join)


@given(LINE_SOUP)
@settings(max_examples=60, deadline=None)
def test_parse_complex_on_line_soup(text):
    try:
        K = parse_complex(text)
    except (ParseError, DomainError):
        return
    assert isinstance(K, SimplicialComplex)
    assert list(K.labels) == sorted(set(K.labels))
    assert K.n_vertices == len(K.labels)


@pytest.mark.parametrize("faces, message", [
    ([], "a complex needs at least one face"),
    ([(0, 1), (1, 2, 1)], "face (1, 2, 1) repeats a vertex"),
    ([(0, 2)], "vertices must be 0..n-1 without gaps; renumber first "
               "(parse_complex does this)"),
])
def test_simplicial_complex_refusals(faces, message):
    with pytest.raises(DomainError) as e:
        SimplicialComplex(faces)
    assert str(e.value) == message


def test_model_of_full_simplex_is_the_simplex_model():
    K = parse_complex("0 1 2")
    cm = model_of_complex(K, 4)
    tri = seed_family(4).model(2)
    assert cm.gens.names == tri.gens.names
    for name in cm.gens.names:
        a = cm.dgl.d(generator_elt(cm.gens, 4, name))
        b = tri.dgl.d(generator_elt(tri.gens, 4, name))
        assert a.terms == b.terms


def test_model_linear_part_is_chain_differential():
    K = parse_complex(FIG8)
    cm = model_of_complex(K, 3)
    assert not [n for n, r in cm.dgl.check_d_squared() if not r.is_zero()]
    e01 = cm.gen((0, 1))
    lin = cm.dgl.d1(e01)
    assert lin == cm.gen((1,)) - cm.gen((0,))


def test_linear_homology_matches_simplicial_betti():
    cases = [
        (CIRCLE, 2), (FIG8, 2), (WEDGE, 2), (TORUS, 2), ("0 1 2", 2),
        (S2, 2),
    ]
    for text, N in cases:
        K = parse_complex(text)
        cm = model_of_complex(K, N)
        dims, reps = linear_homology(cm.dgl)
        betti = simplicial_betti([tuple(f) for f in K.maximal])
        expected = {}
        for p, b in betti.items():
            if b:
                expected[p - 1] = b
        assert dims == expected, text

        # the reps are d1-cycles at cm.N, independent mod d1-boundaries
        L = cm.dgl
        assert set(reps) == set(dims), text
        for q, xs in reps.items():
            boundaries = [_gen_coords(L.d1(generator_elt(L.gens, N, name)))
                          for name, d in zip(L.gens.names, L.gens.degrees)
                          if d == q + 1]
            for x in xs:
                assert x.N == cm.N and L.d1(x).is_zero(), (text, q)
            vecs = [_gen_coords(x) for x in xs]
            assert len(vecs) == dims[q], (text, q)
            n = len(L.gens)
            assert (dense_rank(boundaries + vecs, n)
                    == dense_rank(boundaries, n) + len(vecs)), (text, q)


def _gen_coords(x):
    assert all(len(w) == 1 for w in x.terms)
    return {w[0]: c for w, c in x.terms.items()}


def test_components_and_subcomplex():
    K = parse_complex(FIG8)
    assert components(K) == [(0, 1, 2, 3, 4)]
    two = SimplicialComplex([(0,), (1,)])
    assert components(two) == [(0,), (1,)]
    pc = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)])
    assert components(pc) == [(0, 1, 2), (3,)]
    sub, remap = subcomplex(pc, (0, 1, 2))
    assert sub.n_vertices == 3
    assert len(sub.faces) == 6
    assert remap == {0: 0, 1: 1, 2: 2}


def component_inclusion_check(K, a, N, degrees):
    """Homology-dimension comparison between the component of a and all of
    K, both twisted at a, over the requested degree window."""
    comp = next(c for c in components(K) if a in c)
    Ka, remap = subcomplex(K, comp)
    sub = model_of_complex(Ka, N)
    full = model_of_complex(K, N)
    rep_sub = homology(twist(sub.dgl, sub.gen((remap[a],))), degrees=degrees)
    rep_full = homology(twist(full.dgl, full.gen((a,))), degrees=degrees)
    out = {}
    for q in sorted(degrees):
        ds = rep_sub.entries[q]["h"]
        df = rep_full.entries[q]["h"]
        out[q] = {"sub": ds, "full": df, "agree": ds == df}
    return {"component": comp, "degrees": out,
            "ok": all(e["agree"] for e in out.values())}


def test_component_inclusion_two_points():
    two = SimplicialComplex([(0,), (1,)])
    rep = component_inclusion_check(two, 0, 4, range(0, 4))
    assert rep["ok"]
    assert rep["component"] == (0,)


def test_component_inclusion_point_plus_circle():
    pc = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)])
    rep = component_inclusion_check(pc, 0, 3, [0])
    assert rep["ok"]
    assert rep["degrees"][0]["sub"] == 1
    assert rep["degrees"][0]["full"] == 1


def test_localize_trivial_at_zero():
    from freedgl.lie import GenSet, FreeDGL
    L = FreeDGL(GenSet([("x", 0), ("y", 1)]), 3, {})
    loc = localize(L, zero_elt(L.gens, 3))
    assert loc.check()
    for q in range(0, 4):
        lay_dim = loc.dim(q)
        assert lay_dim == _DegreeLayout(L, q).dim
    assert loc.complement == []
    assert loc.dim(-1) == 0


def test_localize_interval_kills_everything():
    iv = interval_model(3)
    loc = localize(iv.dgl, iv.gen((0,)))
    assert loc.check()
    assert [loc.dim(q) for q in range(-1, 3)] == [0, 0, 0, 0]
    assert len(loc.complement) == 1
    with pytest.raises(DomainError):
        localize(iv.dgl, iv.gen((0, 1)))


def test_localize_circle_keeps_a_degree_zero_line():
    K = parse_complex(CIRCLE)
    cm = model_of_complex(K, 3)
    loc = localize(cm.dgl, cm.gen((0,)))
    assert loc.check()
    assert loc.dim(0) == homology(
        twist(cm.dgl, cm.gen((0,))), degrees=[0]).entries[0]["kernel"]
    assert loc.dim(-2) == 0


def test_maximal_tree_bfs_order():
    K = parse_complex(FIG8)
    assert maximal_tree(K, 0) == ((0, 1), (0, 2), (0, 3), (0, 4))
    K2 = parse_complex(CIRCLE)
    assert maximal_tree(K2, 1) == ((0, 1), (1, 2))
    with pytest.raises(DomainError):
        maximal_tree(K2, 9)


@st.composite
def small_complexes(draw):
    """Maximal faces of a complex on 1-9 vertices: random vertices, edges
    and triangles, with every vertex in some face."""
    n = draw(st.integers(min_value=1, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    faces = draw(st.lists(st.lists(vertex, min_size=1, max_size=3,
                                   unique=True).map(tuple), max_size=12))
    used = {v for f in faces for v in f}
    return faces + [(v,) for v in range(n) if v not in used]


@given(small_complexes())
@settings(max_examples=200, deadline=None)
def test_one_forest_matches_the_union_find_and_the_bfs(maximal):
    # components, maximal_tree at every basepoint and the component of each
    # vertex all read one breadth-first forest; the oracles walk the
    # 1-skeleton twice, as a union-find and a breadth-first search
    K = SimplicialComplex(maximal)
    n = K.n_vertices
    edges = [f for f in close_faces(maximal) if len(f) == 2]
    comps = union_find_components(n, edges)
    assert components(K) == comps
    for b in range(n):
        tree = maximal_tree(K, b)
        assert tree == bfs_spanning_tree(n, edges, b)
        assert len(tree) == n - len(comps)
        assert set(tree) <= set(edges)
        assert tuple(sorted(complexes._forest(K, b)[1][0])) == next(
            c for c in comps if b in c)


def test_minimal_model_circle():
    K = parse_complex(CIRCLE)
    mm = minimal_model(K, 0, 4)
    assert mm.gens.degrees == (0,)
    x = generator_elt(mm.gens, 4, mm.gens.names[0])
    assert mm.d(x).is_zero()


def test_minimal_model_contractible():
    assert minimal_model(parse_complex("0 1 2"), 0, 4).gens.names == ()
    assert minimal_model(parse_complex("0"), 0, 3).gens.names == ()


def test_minimal_model_wedge_s1_s2():
    K = parse_complex(WEDGE)
    mm = minimal_model(K, 0, 3)
    assert sorted(mm.gens.degrees) == [0, 1]
    for n in mm.gens.names:
        assert mm.d(generator_elt(mm.gens, 3, n)).is_zero()


def test_minimal_model_generator_counts_match_reduced_betti():
    for text in (CIRCLE, FIG8, WEDGE, "0 1 2"):
        K = parse_complex(text)
        mm = minimal_model(K, 0, 2)
        betti = simplicial_betti([tuple(f) for f in K.maximal])
        counts = {}
        for d in mm.gens.degrees:
            counts[d] = counts.get(d, 0) + 1
        expected = {}
        for p, b in betti.items():
            red = b - 1 if p == 0 else b
            if red:
                expected[p - 1] = red
        assert counts == expected, text
        for n in mm.gens.names:
            assert mm.d1(generator_elt(mm.gens, 2, n)).is_zero()


def _named_quotient(source, keep_names, zero_names, solved, N):
    """Quotient of a free DGL along a generator substitution: kept names map
    to themselves, zero_names to 0, solved names to the given expressions
    (supported on kept letters only).  The projection is verified to be a
    chain map on every source generator."""
    pairs = [(n, source.gens.degrees[source.gens.index(n)])
             for n in keep_names]
    gens = GenSet(pairs)
    conv = {source.gens.index(n): generator_elt(gens, N, n)
            for n in keep_names}
    full_images = dict(conv)
    for n in zero_names:
        full_images[source.gens.index(n)] = zero_elt(gens, N)
    for n, expr in solved.items():
        full_images[source.gens.index(n)] = substitute(expr, gens, N, conv)
    d_images = {}
    for j, name in enumerate(keep_names):
        dx = source.d(generator_elt(source.gens, N, name))
        img = substitute(dx, gens, N, full_images)
        if not img.is_zero():
            d_images[j] = img
    out = FreeDGL(gens, N, d_images)
    assert DGLMap(source, out, full_images).is_chain_map()
    return out


def _eliminate_pair(L, src_idx, tgt_idx, coeff):
    """Remove the generator pair (src, tgt) where d(src) = coeff*tgt + rest:
    solve tgt from the relation and substitute it everywhere."""
    gens = L.gens
    N = L.N
    rest = L.d(generator_elt(gens, N, gens.names[src_idx])) \
        - coeff * Elt(gens, N, {(tgt_idx,): Fraction(1)})
    identity = {i: Elt(gens, N, {(i,): Fraction(1)}) for i in range(len(gens))}
    u = zero_elt(gens, N)
    for _ in range(N + 1):
        imgs = dict(identity)
        imgs[src_idx] = zero_elt(gens, N)
        imgs[tgt_idx] = u
        nxt = (Fraction(-1) / coeff) * substitute(rest, gens, N, imgs)
        if nxt == u:
            break
        u = nxt
    else:
        raise SolveError("elimination substitution failed to stabilize")
    keep = [n for i, n in enumerate(gens.names)
            if i not in (src_idx, tgt_idx)]
    return _named_quotient(
        L, keep, [gens.names[src_idx]], {gens.names[tgt_idx]: u}, N)


def _pairwise_minimal_model(K, basepoint, N):
    """The minimal model by eliminating one linear pair at a time and
    rebuilding the quotient after each: kill the vertices and a spanning
    tree, then repeatedly take the first generator in (degree, index) order
    with a nonzero linear differential and pair it with its lowest letter."""
    cm = model_of_complex(K, N)
    tree = set(maximal_tree(K, basepoint))
    zero_names = [cm.gens.names[i] for i, f in enumerate(K.faces)
                  if len(f) == 1 or f in tree]
    keep = [n for n in cm.gens.names if n not in zero_names]
    L = _named_quotient(cm.dgl, keep, zero_names, {}, N)
    while True:
        order = sorted(range(len(L.gens)),
                       key=lambda i: (L.gens.degrees[i], i))
        pick = None
        for i in order:
            d1x = L.d1(generator_elt(L.gens, N, L.gens.names[i]))
            if d1x.is_zero():
                continue
            tgt = min(w[0] for w in d1x.terms)
            pick = (i, tgt, d1x.terms[(tgt,)])
            break
        if pick is None:
            return L
        L = _eliminate_pair(L, *pick)


def test_minimal_model_matches_pairwise_elimination():
    cases = [(text, N) for text in (S2, RP2, WEDGE, OCTAHEDRON)
             for N in (1, 2, 3)]
    cases += [(TORUS, 1), (TORUS, 2)]
    for text, N in cases:
        K = parse_complex(text)
        for b in (0, K.n_vertices - 1):
            mm = minimal_model(K, b, N)
            old = _pairwise_minimal_model(K, b, N)
            assert mm.gens == old.gens, (text, N, b)
            assert set(mm.diff.images) == set(old.diff.images), (text, N, b)
            for i, img in mm.diff.images.items():
                assert img.terms == old.diff.images[i].terms, (text, N, b)
            for n in mm.gens.names:
                assert mm.d1(generator_elt(mm.gens, N, n)).is_zero()


def _fixed_point_minimal_model(K, basepoint, N):
    """The minimal model with every partner image solved by a fixed-point
    loop: each round substitutes every d(e_t) - t in full with the images of
    the round before, until the images stop changing."""
    L = model_of_complex(K, N).dgl
    gens = L.gens
    tree = set(maximal_tree(K, basepoint))
    killed = {i for i, f in enumerate(K.faces) if len(f) == 1 or f in tree}
    red = SpanReducer()
    partners = []
    for i in sorted(set(range(len(gens))) - killed,
                    key=lambda i: (gens.degrees[i], i)):
        d1 = L.d1(Elt(gens, N, {(i,): Fraction(1)})).terms
        row, den = clear_denominators({w[0]: c for w, c in d1.items()
                                       if w[0] not in killed})
        t = red.insert(row, i, den)[0]
        if t is not None:
            killed.add(i)
            partners.append(t)
    rest = {}
    for t in partners:
        _, comb, den = red.reduce({t: 1})
        rest[t] = (L.d(Elt(gens, N, {(s,): Fraction(c, den)
                                     for s, c in comb.items()}))
                   - Elt(gens, N, {(t,): Fraction(1)}))
    images = {i: Elt(gens, N, {} if i in killed or i in rest
                     else {(i,): Fraction(1)})
              for i in range(len(gens))}
    for _ in range(N + 1):
        nxt = {t: -substitute(r, gens, N, images) for t, r in rest.items()}
        if all(nxt[t] == images[t] for t in rest):
            break
        images.update(nxt)
    else:
        raise SolveError("partner substitution failed to stabilize")
    keep = [i for i in range(len(gens)) if i not in killed and i not in rest]
    return complexes._restricted_dgl(
        L, keep, Substitution(gens, gens, N, images), {})


def test_minimal_model_matches_the_fixed_point_loop():
    for text in (TORUS, S2, RP2, WEDGE, OCTAHEDRON, _genus_two()):
        K = parse_complex(text)
        for N in (1, 2, 3):
            for b in (0, K.n_vertices - 1):
                mm = minimal_model(K, b, N)
                old = _fixed_point_minimal_model(K, b, N)
                assert mm.gens == old.gens, (text, N, b)
                assert mm.diff.images.keys() == old.diff.images.keys(), \
                    (text, N, b)
                for i, img in mm.diff.images.items():
                    assert img.terms == old.diff.images[i].terms, (text, N, b)


def test_minimal_model_rejects_a_wrong_partner_image(monkeypatch):
    # doubling a solved partner image u_t leaves p(d e_t) = u_t != 0
    restricted = complexes._restricted_dgl

    def corrupt(source, keep, p, table):
        t = next(i for i, x in p.images.items()
                 if i not in keep and not x.is_zero())
        images = dict(p.images)
        images[t] = Fraction(2) * images[t]
        gens = source.gens
        return restricted(source, keep,
                          Substitution(gens, gens, p.N, images), {})

    monkeypatch.setattr(complexes, "_restricted_dgl", corrupt)
    with pytest.raises(SolveError) as e:
        minimal_model(parse_complex(TORUS), 0, 3)
    assert str(e.value).startswith(
        "reduction projection is not a chain map on ")


def test_minimal_model_builds_each_product_once(monkeypatch):
    # the graded pass and the chain-map check share one (prefix, length)
    # table for the whole call, so each product of two or more letters is
    # built once: 141 on the 42-face torus at N=3, 870 on genus 2 at N=4.
    # A table per application of the map would build 279 and 2136
    built = []
    tables = set()
    product = Substitution._product

    def counted(self, w, r, table):
        if len(w) > 1 and (w, r) not in table:
            built.append((w, r))
            tables.add(id(table))
        return product(self, w, r, table)

    monkeypatch.setattr(Substitution, "_product", counted)
    for text, N, want in ((TORUS, 3, 141), (_genus_two(), 4, 870)):
        built.clear()
        tables.clear()
        minimal_model(parse_complex(text), 0, N)
        assert len(tables) == 1
        assert len(set(built)) == len(built) == want


def test_pi_1_reads_the_degree_one_differential_once(monkeypatch):
    M = minimal_model(parse_complex(TORUS), 0, 3)
    reads, calls = _count_column_reads(monkeypatch)
    assert pi_n(M, 1).dim == 2
    # one columns call, on the basis of degree 1, and none on degree 0,
    # which has no differential in a non-negatively graded L; no d(x) is
    # built
    assert reads == [_DegreeLayout(M, 1).dim] == [7]
    assert calls[0] == 0


def test_minimal_model_rejects_a_surviving_linear_part(monkeypatch):
    class NoPivots(SpanReducer):
        def insert(self, v, tag, den=1):
            return None, {}, 1

    monkeypatch.setattr(complexes, "SpanReducer", NoPivots)
    with pytest.raises(StructError) as e:
        minimal_model(parse_complex(S2), 0, 2)
    assert "linear differential survives" in str(e.value)


def test_minimal_model_rejects_disconnected():
    two = SimplicialComplex([(0,), (1,)])
    with pytest.raises(DomainError) as e:
        minimal_model(two, 0, 2)
    assert "components" in str(e.value)


def test_malcev_tower_fig8():
    K = parse_complex(FIG8)
    quotients = malcev_tower(K, 0, 3)
    assert tower_layers(quotients) == [2, 1, 2]
    for k, q in enumerate(quotients, start=1):
        assert q.dim == sum(
            free_lie_slice_dim((0, 0), 0, j) for j in range(1, k + 1))
    assert not quotients[1].is_abelian()


def test_malcev_tower_circle_and_contractible():
    circ = parse_complex(CIRCLE)
    qs = malcev_tower(circ, 0, 3)
    assert tower_layers(qs) == [1, 0, 0]
    assert qs[-1].is_abelian()
    d2 = parse_complex("0 1 2")
    qs2 = malcev_tower(d2, 0, 3)
    assert [q.dim for q in qs2] == [0, 0, 0]
    two = SimplicialComplex([(0,), (1,)])
    with pytest.raises(DomainError):
        malcev_tower(two, 0, 2)
    with pytest.raises(DomainError):
        malcev_tower(circ, 7, 2)
    for text, layers in ((S2, [0, 0, 0]), (TORUS, [2, 0, 0]),
                         (WEDGE, [1, 0, 0])):
        qs = malcev_tower(parse_complex(text), 0, 3)
        assert tower_layers(qs) == layers, text
        assert qs[-1].is_abelian(), text


def _genus_two():
    """Two 7-vertex tori, each without triangle (0,1,3), glued along its
    boundary; the second copy's other vertices become 7-10."""
    tris = [tuple(map(int, line.split())) for line in TORUS.split("\n")]
    holed = [t for t in tris if sorted(t) != [0, 1, 3]]
    assert len(holed) == len(tris) - 1
    renumber = {0: 0, 1: 1, 3: 3, 2: 7, 4: 8, 5: 9, 6: 10}
    copy = [tuple(renumber[v] for v in t) for t in holed]
    return "\n".join(" ".join(map(str, t)) for t in holed + copy)


# sha256 of the emit_dgl text of complex models: the face-relabel table
# over K's faces, with wide names (a_0_1) on the 11-vertex genus-2 surface
COMPLEX_TEXT_SHA256 = [
    ("7-vertex torus at N=3", TORUS,
     "4c87aeb3e6ad54270d31660b26e4f4e0968b6dea5c87ea2e43f422994fc052fa"),
    ("genus-2 surface at N=3", _genus_two(),
     "09d71930c61e3a5bb4ef243113a3fa1651382beb594c2a54e1e8a565c68135cd"),
]


@pytest.mark.parametrize("label, text, digest", COMPLEX_TEXT_SHA256,
                         ids=[label for label, _, _ in COMPLEX_TEXT_SHA256])
def test_complex_model_text_is_pinned(label, text, digest):
    model = model_of_complex(parse_complex(text), 3)
    out = emit_dgl(model.dgl)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_malcev_tower_of_surfaces_matches_labute():
    # pi_1 of a surface is a one-relator group that is not free: its layers
    # check minimal_model and MalcevQuotient against Labute's formula
    assert tower_layers(malcev_tower(parse_complex(TORUS), 0, 3)) \
        == surface_lcs_ranks(1, 3) == [2, 0, 0]
    K = parse_complex(_genus_two())
    assert (K.n_vertices, len(K.faces)) == (11, 76)
    assert tower_layers(malcev_tower(K, 0, 6)) \
        == surface_lcs_ranks(2, 6) == [4, 5, 16, 45, 144, 440]


# sha256 of the emit_dgl text of minimal models, captured from the partner
# fixed-point loop: the one-pass graded solve must give the same text
MINIMAL_MODEL_TEXT_SHA256 = [
    ("7-vertex torus at N=3", TORUS, 3,
     "d94c818a8f7a927f17103cb187658302642413deed3db5f5f11ea3c927065ef3"),
    ("7-vertex torus at N=4", TORUS, 4,
     "1b72f8339166d030a18b9620e2fb3e793c5b9dcc4bcdcf43ae9524297523b3db"),
    ("S1 v S2 at N=4", WEDGE, 4,
     "3c846446efe481c9bc26f3fbe4981d9d2de11a97854f89a79c36ec0f7da3006f"),
    ("RP2 at N=3", RP2, 3,
     "d35ea316e9c26584f2eaa5cfc3cf8b357e0838cabb5021512b8f742f79e0181f"),
    ("genus-2 surface at N=4", _genus_two(), 4,
     "94ab75aae11f582b648be267e34bdd2c163bd2a9809cd9ae7ed05bdb1e65b23c"),
    ("genus-2 surface at N=5", _genus_two(), 5,
     "b58c7bf74efa166605e47c84c10ca745e4f53a8497f6bd1447571db36eec590f"),
    ("genus-2 surface at N=6", _genus_two(), 6,
     "83537200df9d8893b1af935c5096802895b6b662703dfb3226f95ad7548cc5f5"),
    ("figure-eight at N=5", FIG8, 5,
     "8a68c46e0d4a43051510144df387140590b7c3bed4814309fb53f408d785b871"),
]


@pytest.mark.parametrize("label, text, N, digest", MINIMAL_MODEL_TEXT_SHA256,
                         ids=[c[0] for c in MINIMAL_MODEL_TEXT_SHA256])
def test_minimal_model_text_is_pinned(label, text, N, digest):
    out = emit_dgl(minimal_model(parse_complex(text), 0, N))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_installed_top_diff_leaves_complex_models_pinned():
    # complex models share the seed top differentials per (N, dim), built
    # apart from any ModelFamily: a top differential installed on a seed
    # family, before or after they are built, stays in that family
    K = parse_complex(TORUS)
    digests = (COMPLEX_TEXT_SHA256[0][2], MINIMAL_MODEL_TEXT_SHA256[0][3])

    def texts():
        return (emit_dgl(model_of_complex(K, 3).dgl),
                emit_dgl(minimal_model(K, 0, 3)))

    _seed_top_diffs.cache_clear()
    for _ in range(2):
        fam = seed_family(3)
        triangle = fam.model(2).dgl
        fam.install_top_diff(2, 2 * fam.top_diff(2))
        assert emit_dgl(fam.model(2).dgl) != emit_dgl(triangle)
        assert tuple(hashlib.sha256(t.encode()).hexdigest()
                     for t in texts()) == digests


def _twisted_full_model_h0(K, N):
    """H_0 of the full complex model twisted at vertex 0, by the marker
    oracle: the tower route that is correct on 1-dimensional complexes
    only."""
    cm = model_of_complex(K, N)
    return MarkerQuotient(twist(cm.dgl, cm.gen((0,))))


def test_malcev_tower_matches_twisted_full_model_on_graphs():
    for text, N_max in ((CIRCLE, 4), (FIG8, 3), (BOUQUET3, 3)):
        K = parse_complex(text)
        for N, q in enumerate(malcev_tower(K, 0, N_max), start=1):
            old = _twisted_full_model_h0(K, N)
            assert (q.dim, q.is_abelian()) == (old.dim, old.is_abelian()), \
                (text, N)


@pytest.mark.parametrize("text, abelian", [
    (TORUS, True), (FIG8, False), (CIRCLE, True), (_genus_two(), False)],
    ids=["torus", "figure-eight", "circle", "genus 2"])
def test_is_abelian_matches_the_bch_table(text, abelian):
    # is_abelian reads the classes of the brackets [b_i, b_j]; the table
    # route compares the two BCH products of every pair
    q = pi_n(minimal_model(parse_complex(text), 0, 3), 1)
    table = all(q.table(i, j) == q.table(j, i)
                for i in range(q.dim) for j in range(i + 1, q.dim))
    assert q.is_abelian() == table == abelian


@st.composite
def bouquets_and_surfaces(draw):
    """(complex text, basepoint, N): a bouquet of 1-3 loops, each a cycle
    of 3-4 edges through vertex 0, or the torus or the genus-2 surface,
    with vertex ids shuffled, so that generator order and the highest-index
    pivots vary."""
    kind = draw(st.sampled_from(["bouquet", "torus", "genus 2"]))
    if kind == "bouquet":
        edges, nv = [], 1
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            cycle = [0] + list(range(nv, nv + draw(st.integers(2, 3)))) + [0]
            nv = cycle[-2] + 1
            edges += zip(cycle, cycle[1:])
        faces, N = edges, draw(st.integers(min_value=1, max_value=4))
    else:
        text = TORUS if kind == "torus" else _genus_two()
        faces = [tuple(map(int, line.split())) for line in text.split("\n")]
        nv = max(max(f) for f in faces) + 1
        N = draw(st.integers(min_value=1, max_value=3 if kind == "torus"
                             else 2))
    perm = draw(st.permutations(range(nv)))
    text = "\n".join(" ".join(str(perm[v]) for v in f) for f in faces)
    return text, draw(st.integers(min_value=0, max_value=nv - 1)), N


@given(bouquets_and_surfaces())
@settings(max_examples=40, deadline=None)
def test_pi_1_matches_the_marker_oracle(case):
    # representatives and the whole product table, term by term, against
    # the marker route: kernel vectors inserted into the boundary span in
    # order, each kept when it adds a pivot
    text, basepoint, N = case
    M = minimal_model(parse_complex(text), basepoint, N)
    grp, ref = pi_n(M, 1), MarkerQuotient(M)
    assert [x.terms for x in grp.basis] == [x.terms for x in ref.basis]
    for i in range(grp.dim):
        for j in range(grp.dim):
            assert grp.table(i, j) == ref.table(i, j), (i, j)
