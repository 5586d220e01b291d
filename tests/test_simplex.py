"""Simplex models: seeds, builders, cosimplicial structure, symmetry."""

import hashlib
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from freedgl.lie import (
    Elt, SolveError, ConfigError, DomainError, StructError, DGLMap, FreeDGL,
    Derivation, GenSet, zero_elt, generator_elt, lyndon_slice_basis, _slice_coords,
)
from freedgl.linalg import FractionFreeReducer
from freedgl.serialize import emit_dgl
from freedgl.series import bch, exp_ad, bernoulli_op, is_mc, twist
import freedgl.simplex as simplex
from freedgl.simplex import (
    faces_of_simplex, face_name, simplex_genset, SimplexModel,
    seed_family, ModelFamily, interval_model, triangle_model, tetra_model,
    interval_top_diff, triangle_top_diff, tetra_top_diff, vertex_top_diff,
    bch_transgression, solve_boundary, build_model, build_symmetric_model,
    permutation_map, equivariance_residues, reynolds_sign_project,
    reynolds_invariant_project, relabel_element, subdivision_morphism,
    barycentric_mc, check_model_axioms, check_cosimplicial_identities,
    generator_homology,
)

from oracles import oracle_substitute

HALF = Fraction(1, 2)


def barycenter(model):
    out = zero_elt(model.gens, model.N)
    for i in range(model.n + 1):
        out = out + Fraction(1, model.n + 1) * model.gen((i,))
    return out


def test_face_enumeration_and_naming():
    faces = faces_of_simplex(2)
    assert faces[:3] == [(0,), (1,), (2,)]
    assert faces[-1] == (0, 1, 2)
    assert len(faces) == 7
    assert face_name((0, 1, 2)) == "a012"
    assert face_name((0, 11)) == "a_0_11"
    g = simplex_genset(2)
    assert g.degrees[g.index("a0")] == -1
    assert g.degrees[g.index("a01")] == 0
    assert g.degrees[g.index("a012")] == 1


def test_interval_model():
    m = interval_model(6)
    rep = check_model_axioms(m)
    assert rep["ok"], rep
    a = m.gen((0,))
    b = m.gen((1,))
    x = m.gen((0, 1))
    dx = m.dgl.d(x)
    assert dx.length_part(1) == b - a
    quad = dx.length_part(2)
    from freedgl.lie import bracket
    assert quad == bracket(x, b) - HALF * bracket(x, b - a)


def test_interval_two_closed_forms():
    m = interval_model(6)
    a = m.gen((0,))
    b = m.gen((1,))
    x = m.gen((0, 1))
    from freedgl.lie import bracket
    form_b = bracket(x, b) + bernoulli_op(x, b - a)
    form_a = bracket(x, a) + bernoulli_op(-x, b - a)
    assert m.dgl.d(x) == form_b
    assert form_a == form_b


def test_triangle_model_axioms_and_twisted_diff():
    m = triangle_model(5)
    rep = check_model_axioms(m)
    assert rep["ok"], rep
    tw = twist(m.dgl, m.gen((0,)))
    got = tw.d(m.gen((0, 1, 2)))
    want = bch(m.gen((0, 1)), m.gen((1, 2)), -m.gen((0, 2)))
    assert got == want


def test_tetra_model_axioms():
    m = tetra_model(4)
    rep = check_model_axioms(m)
    assert rep["ok"], rep


def test_tetra_twisted_diff_shape():
    N = 4
    m = tetra_model(N)
    tw = twist(m.dgl, m.gen((0,)))
    e_list = [m.gen((0, 1, 2)), m.gen((0, 2, 3)), -m.gen((0, 1, 3))]
    B = bch_transgression(e_list, tw)
    got = tw.d(m.gen((0, 1, 2, 3)))
    want = exp_ad(m.gen((0, 1)), m.gen((1, 2, 3))) - B
    assert got == want


def test_transgression_identity():
    N = 4
    m = tetra_model(N)
    tw = twist(m.dgl, m.gen((0,)))
    e_list = [m.gen((0, 1, 2)), m.gen((0, 2, 3)), -m.gen((0, 1, 3))]
    B = bch_transgression(e_list, tw)
    assert B.length_part(1) == e_list[0] + e_list[1] + e_list[2]
    assert tw.d(B) == bch(*[tw.d(e) for e in e_list])


def test_transgression_single_input():
    m = triangle_model(4)
    tw = twist(m.dgl, m.gen((0,)))
    e = m.gen((0, 1, 2))
    assert bch_transgression([e], tw) == e
    with pytest.raises(DomainError):
        bch_transgression([m.gen((0, 1))], tw)
    with pytest.raises(DomainError):
        bch_transgression([], tw)


def test_solve_boundary_exact_and_zero():
    m = interval_model(5)
    allowed = list(range(len(m.gens)))
    x = m.gen((0, 1))
    beta = solve_boundary(m.dgl, m.dgl.d(x), allowed)
    assert beta == x
    assert solve_boundary(m.dgl, m.dgl.zero(), allowed).is_zero()


def test_solve_boundary_infeasible_has_witness():
    m = interval_model(5)
    a = m.gen((0,))
    b = m.gen((1,))
    with pytest.raises(SolveError) as exc:
        solve_boundary(m.dgl, b - a, [m.gens.index("a0"), m.gens.index("a1")])
    assert str(exc.value) == (
        "no boundary at degree -1, length 1; homology witness: -1*a0 + 1*a1")


def test_built_triangle_matches_closed_form():
    m = build_model(2, 5)
    assert check_model_axioms(m)["ok"]
    built = m.dgl.diff.images[m.gens.index("a012")]
    assert built == triangle_top_diff(5)


def test_built_tetra_axioms():
    m = build_model(3, 3)
    rep = check_model_axioms(m)
    assert rep["ok"], rep
    # linear part of the top cell is the simplicial chain differential
    top = m.gen((0, 1, 2, 3))
    want = (m.gen((1, 2, 3)) - m.gen((0, 2, 3))
            + m.gen((0, 1, 3)) - m.gen((0, 1, 2)))
    assert m.dgl.d1(top) == want


# the full SolveError texts of a doubled interval seed: the witness is the
# canonical residual of the failing stage, so any change to the solver's
# choices shows here
DOUBLED_SEED_INDUCTIVE = (
    "no boundary at degree -1, length 2; homology witness: -1*a2.a01 + "
    "1*a2.a02 + -1*a2.a12 + 1*a01.a2 + -1*a02.a2 + 1*a12.a2")
DOUBLED_SEED_SYMMETRIC = (
    "no boundary at degree -1, length 3; homology witness: 1/6*a0.a02.a01 + "
    "-1/6*a0.a02.a02 + 1/3*a0.a12.a02 + -1/6*a1.a02.a02 + 1/6*a1.a12.a01 + "
    "-1/6*a1.a12.a02 + 1/6*a1.a12.a12 + 2*a2.a2.a012 + 1/6*a2.a02.a01 + "
    "1/3*a2.a02.a12 + 1/6*a2.a12.a01 + -1/2*a2.a12.a02 + ... (44 terms)")


def test_builder_rejects_broken_seeds():
    N = 4
    bad_interval = interval_top_diff(N) * 2
    with pytest.raises(SolveError) as exc:
        build_model(2, N, seeds=[vertex_top_diff(N), bad_interval])
    assert str(exc.value) == DOUBLED_SEED_INDUCTIVE
    with pytest.raises(ConfigError):
        build_model(3, N, seeds=[vertex_top_diff(N)])
    # the symmetric builder names the class that blocks its stage
    fam = ModelFamily(N, "symmetric")
    fam.install_top_diff(1, 2 * interval_top_diff(N))
    with pytest.raises(SolveError) as exc:
        fam.model(2)
    assert str(exc.value) == DOUBLED_SEED_SYMMETRIC


def _count_face_images(monkeypatch):
    """Calls of simplex._face_images by the dimension of their faces."""
    counts = {}
    face_images = simplex._face_images

    def counted(gens, faces, N, diffs, killed=()):
        p = len(faces[-1]) - 1
        counts[p] = counts.get(p, 0) + 1
        return face_images(gens, faces, N, diffs, killed)
    monkeypatch.setattr(simplex, "_face_images", counted)
    return counts


def test_family_builds_one_face_table_per_dimension(monkeypatch):
    counts = _count_face_images(monkeypatch)
    fam = ModelFamily(2, "symmetric")
    assert check_model_axioms(fam.model(4))["ok"]
    assert counts == {2: 1, 3: 1, 4: 1}
    # installing at 3 keeps the tables up to 3: the model of Delta^3 is
    # its kept table plus the new top image, and only Delta^4's is rebuilt
    fam.install_top_diff(3, fam.top_diff(3))
    fam.model(3)
    fam.model(4)
    assert counts == {2: 1, 3: 1, 4: 2}
    # build_model solves the top of Delta^4 on the table that its model
    # reads; the seed tetrahedron builds its own table of Delta^3
    counts.clear()
    build_model(4, 2)
    assert counts == {3: 1, 4: 1}


def test_seed_tetrahedron_reads_the_shared_lower_tops(monkeypatch):
    # tetra_top_diff takes the vertex, interval and triangle tops from
    # _seed_top_diffs, built once per N; a fresh family still builds its
    # own Delta^2 top, the one three-term bch of tetra_model
    tetra_model(3)
    calls = []
    triangle = simplex.triangle_top_diff

    def counted(N):
        calls.append(N)
        return triangle(N)
    monkeypatch.setattr(simplex, "triangle_top_diff", counted)
    tetra_model(3)
    assert calls == [3]


def _model_images(fam, n):
    return {i: x.terms for i, x in fam.model(n).dgl.diff.images.items()}


def test_reinstalled_models_equal_a_fresh_family():
    N = 3
    for p in (0, 1, 2, 3):
        fam = seed_family(N)
        for n in range(4):
            fam.model(n)
        diff = -fam.top_diff(p) if p == 0 else 2 * fam.top_diff(p)
        fam.install_top_diff(p, diff)
        fresh = seed_family(N)
        fresh.install_top_diff(p, diff)
        for n in range(4):
            assert _model_images(fam, n) == _model_images(fresh, n), (p, n)
        assert _model_images(fam, p) != _model_images(seed_family(N), p)


def test_installed_top_differential_of_the_wrong_degree():
    for p, name, text in (
            (0, "a0", "image of a0 must have degree -2, got -1"),
            (1, "a01", "image of a01 must have degree -1, got 0"),
            (2, "a012", "image of a012 must have degree 0, got 1")):
        bad = generator_elt(simplex_genset(p), 3, name)
        for fam in (seed_family(3), ModelFamily(3, "symmetric")):
            with pytest.raises(DomainError) as exc:
                fam.install_top_diff(p, bad)
            assert str(exc.value) == text
        if p < 2:
            seeds = [vertex_top_diff(3), interval_top_diff(3)]
            seeds[p] = bad
            with pytest.raises(DomainError) as exc:
                build_model(2, 3, seeds=seeds)
            assert str(exc.value) == text


# sha256 of the emit_dgl text of builder outputs; any change to the
# arithmetic or to the canonical choices of the builders shows here
BUILDER_TEXT_SHA256 = [
    ("build_model(3,3)", lambda: build_model(3, 3),
     "9863ca804d1c8a71d189c46c6c8bff471a0c8466d8a047b4b47911ec20d2e879"),
    ("symmetric 3-simplex at N=3", lambda: ModelFamily(3, "symmetric").model(3),
     "3a3a101ee3d1d5b204133ec5eae691147b5ed31f8ab23c002ace668a7c84a26d"),
    ("build_model(3,4)", lambda: build_model(3, 4),
     "af2572bbca1893618d476dbdc09c333ba1fcdb2779cbc5630e11e6f5533dfc6c"),
    ("build_model(4,2)", lambda: build_model(4, 2),
     "6f17412e64b408bfc36eac7cfa82feb27437e82880243f18815f855a0211a567"),
    ("symmetric 4-simplex at N=2", lambda: ModelFamily(2, "symmetric").model(4),
     "743467f55817bb491a4bf7fec62076410f20dab180a1f655d59f7e0771b4eb05"),
    ("tetra_model(3)", lambda: tetra_model(3),
     "7512d5917dfbd1c16290317c08c8580565d159188deac572ebc6e6821a8e542f"),
]


@pytest.mark.parametrize("label, make, digest", BUILDER_TEXT_SHA256,
                         ids=[label for label, _, _ in BUILDER_TEXT_SHA256])
def test_builder_output_text_is_pinned(label, make, digest):
    text = emit_dgl(make().dgl)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_builds_share_one_genset_per_simplex():
    # every model of Delta^n is over the one simplex_genset(n), so its
    # Lyndon slices are built once per process; the texts stay pinned
    first, second = build_model(3, 3), build_model(3, 3)
    assert first.gens is second.gens is simplex_genset(3)
    for m in (first, second):
        text = emit_dgl(m.dgl)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == BUILDER_TEXT_SHA256[0][2])


@cache
def _three_simplex(flavor):
    return ModelFamily(3, flavor).model(3)


@given(st.sampled_from(["seed", "inductive", "symmetric"]),
       st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_d1_is_the_length_preserving_part_of_d(flavor, k, data):
    m = _three_simplex(flavor)
    # generator degrees run from -1 to 2
    q = data.draw(st.integers(min_value=-k, max_value=2 * k))
    basis = lyndon_slice_basis(m.gens, q, k)
    assume(basis)
    picks = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(basis) - 1),
                  st.integers(min_value=-3, max_value=3).filter(bool)),
        min_size=1, max_size=3))
    x = zero_elt(m.gens, m.N)
    for i, c in picks:
        x = x + c * Elt(m.gens, m.N, basis[i][1])
    assert m.dgl.d1(x) == m.dgl.d(x).length_part(k)


def test_symmetric_models_axioms_and_equivariance():
    for n in (2, 3):
        m = build_symmetric_model(n, 3)
        rep = check_model_axioms(m)
        assert rep["ok"], rep
        for sigma in permutations(range(n + 1)):
            for name, res in equivariance_residues(m, sigma):
                assert res.is_zero(), (sigma, name, res.pretty())


def test_seed_family_not_equivariant():
    m = triangle_model(3)
    swap = (1, 0, 2)
    assert any(not r.is_zero() for _, r in equivariance_residues(m, swap))


def test_permutation_action_is_signed_automorphism():
    m = triangle_model(3)
    sigma = (2, 0, 1)
    f = permutation_map(m, sigma)
    assert f(m.gen((0, 1))) == -m.gen((0, 2))
    assert f(m.gen((1, 2))) == m.gen((0, 1))
    assert f(m.gen((0, 1, 2))) == m.gen((0, 1, 2))
    tau = (1, 0, 2)
    g = permutation_map(m, tau)
    assert g(m.gen((0, 1, 2))) == -m.gen((0, 1, 2))


def test_reynolds_projection_is_idempotent_on_sign_part():
    m = build_symmetric_model(2, 3)
    top_image = m.dgl.diff.images[m.gens.index("a012")]
    assert reynolds_sign_project(m, top_image) == top_image


RELABEL_MODELS = {
    "symmetric 2-simplex at N=4": lambda: ModelFamily(4, "symmetric").model(2),
    "seed 3-simplex at N=3": lambda: tetra_model(3),
}


@cache
def _relabel_model(label):
    return RELABEL_MODELS[label]()


def _letter_images(n, vertex_map, target):
    """Letter i of simplex_genset(n) is face i of Delta^n; it goes to the
    letter of its sorted image times the image's inversion sign, or to 0
    when the image repeats a vertex."""
    images = {}
    for i, face in enumerate(faces_of_simplex(n)):
        img = [vertex_map[v] for v in face]
        if len(set(img)) < len(img):
            images[i] = {}
            continue
        inversions = sum(a > b for a, b in combinations(img, 2))
        letter = target.index(face_name(tuple(sorted(img))))
        images[i] = {(letter,): Fraction((-1) ** inversions)}
    return images


def _oracle_average(m, x, signed):
    out = {}
    sigmas = list(permutations(range(m.n + 1)))
    for sigma in sigmas:
        sign = (-1) ** sum(a > b for a, b in combinations(sigma, 2))
        img = oracle_substitute(x.terms, _letter_images(m.n, sigma, m.gens),
                                m.N)
        for w, c in img.items():
            out[w] = out.get(w, 0) + (sign * c if signed else c)
    return {w: c / len(sigmas) for w, c in out.items() if c}


def _check_relabel_against_oracle(m, x, vertex_maps):
    """relabel_element along each map into Delta^{n+1}, and both Reynolds
    averages, against oracle_substitute."""
    target = simplex_genset(m.n + 1)
    for vmap in vertex_maps:
        want = oracle_substitute(x.terms, _letter_images(m.n, vmap, target),
                                 m.N)
        assert relabel_element(x, vmap, target, m.N).terms == want, vmap
    assert reynolds_sign_project(m, x).terms == _oracle_average(m, x, True)
    assert reynolds_invariant_project(m, x).terms \
        == _oracle_average(m, x, False)


@pytest.mark.parametrize("label", RELABEL_MODELS)
def test_relabel_and_reynolds_match_the_substitution_oracle_on_d(label):
    # d of every face, the top differential included; the maps are a
    # coface-like injection and a collapse of vertices 0 and 1
    m = _relabel_model(label)
    into = tuple(range(1, m.n + 2))
    collapse = (0,) + tuple(range(m.n))
    for face in faces_of_simplex(m.n):
        _check_relabel_against_oracle(m, m.dgl.d(m.gen(face)),
                                      (into, collapse))


@given(st.sampled_from(sorted(RELABEL_MODELS)), st.data())
@settings(max_examples=40, deadline=None)
def test_relabel_and_reynolds_match_the_substitution_oracle(label, data):
    m = _relabel_model(label)
    k = data.draw(st.integers(min_value=1, max_value=m.N))
    # generator degrees run from -1 to n - 1
    q = data.draw(st.integers(min_value=-k, max_value=(m.n - 1) * k))
    basis = lyndon_slice_basis(m.gens, q, k)
    assume(basis)
    picks = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(basis) - 1),
                  st.integers(min_value=-3, max_value=3).filter(bool)),
        min_size=1, max_size=3))
    x = zero_elt(m.gens, m.N)
    for i, c in picks:
        x = x + c * Elt(m.gens, m.N, basis[i][1])
    vmap = data.draw(st.lists(st.integers(min_value=0, max_value=m.n + 1),
                              min_size=m.n + 1, max_size=m.n + 1))
    _check_relabel_against_oracle(m, x, [tuple(vmap)])


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_reynolds_averages_match_the_oracle_on_random_words(n, data):
    # the averages run over orbits of words, so they are checked on words
    # that are not Lie elements too: 1-3 letters, repeats included
    N = 3
    gens = simplex_genset(n)
    m = SimplexModel(n, N, FreeDGL(gens, N, {}), "symmetric")
    faces = faces_of_simplex(n)

    def word(letters):
        w = data.draw(st.lists(letters, min_size=1, max_size=2))
        if data.draw(st.booleans()):
            w.append(w[0])
        return tuple(w)

    def check(x):
        assert reynolds_sign_project(m, x).terms \
            == _oracle_average(m, x, True)
        assert reynolds_invariant_project(m, x).terms \
            == _oracle_average(m, x, False)

    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    letters = st.integers(min_value=0, max_value=len(faces) - 1)
    terms = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        w = word(letters)
        terms[w] = terms.get(w, 0) + data.draw(coeffs)
    check(Elt(gens, N, terms))
    # a word whose faces each hold both or neither of u and v: (u v) sends
    # it to (-1)^(number holding both) times itself and has sign -1, so one
    # of its averages is 0
    u, v = data.draw(st.lists(st.integers(min_value=0, max_value=n),
                              min_size=2, max_size=2, unique=True))
    w = word(st.sampled_from([i for i, f in enumerate(faces)
                              if (u in f) == (v in f)]))
    x = Elt(gens, N, {w: data.draw(coeffs.filter(bool))})
    odd = sum(u in faces[i] for i in w) & 1
    project = reynolds_invariant_project if odd else reynolds_sign_project
    assert project(m, x).is_zero()
    check(x)


def test_cosimplicial_identities_symmetric():
    fam = ModelFamily(3, "symmetric")
    rep = check_cosimplicial_identities(fam, 3)
    assert rep
    bad = [lbl for lbl, ok in rep if not ok]
    assert not bad, bad


def test_cosimplicial_identities_seed_cofaces():
    fam = seed_family(3)
    rep = check_cosimplicial_identities(fam, 3)
    bad = [lbl for lbl, ok in rep if not ok]
    assert not bad, bad
    assert all(lbl.startswith("delta") for lbl, _ in rep)
    with pytest.raises(DomainError):
        fam.codegeneracy(0, 1)


def test_cosimplicial_identities_report_a_wrong_coface(monkeypatch):
    # delta_1: model(0) -> model(1) answering as delta_0 breaks the two
    # identities that use it, which must read as False
    coface = ModelFamily.coface
    monkeypatch.setattr(ModelFamily, "coface", lambda self, i, n: coface(
        self, 0 if (i, n) == (1, 0) else i, n))
    rep = check_cosimplicial_identities(seed_family(3), 2)
    assert [lbl for lbl, ok in rep if not ok] == [
        "delta_2 delta_0 = delta_0 delta_1 (n=0)",
        "delta_2 delta_1 = delta_1 delta_1 (n=0)"]


def test_cosimplicial_identities_report_a_wrong_codegeneracy(monkeypatch):
    # sigma_0: model(2) -> model(1) answering as sigma_1 breaks
    # sigma_0 delta_0 = id, which the identity check must read as False
    codegeneracy = ModelFamily.codegeneracy
    monkeypatch.setattr(ModelFamily, "codegeneracy", lambda self, i, n:
                        codegeneracy(self, 1 if (i, n) == (0, 2) else i, n))
    rep = dict(check_cosimplicial_identities(ModelFamily(3, "symmetric"), 2))
    assert not rep["sigma_0 delta_0 = id (n=1)"]


_SYMMETRIC3 = ModelFamily(3, "symmetric")


@given(st.sampled_from(["coface", "codegeneracy", "permutation"]),
       st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=60, deadline=None)
def test_table_maps_agree_with_general_dgl_maps(kind, n, data):
    # cofaces, codegeneracies and permutation maps relabel through their
    # face tables; the general DGLMap on the same images substitutes them
    fam = _SYMMETRIC3
    if kind == "coface":
        f = fam.coface(data.draw(st.integers(min_value=0, max_value=n + 1)), n)
    elif kind == "codegeneracy":
        f = fam.codegeneracy(
            data.draw(st.integers(min_value=0, max_value=n - 1)), n)
    else:
        f = permutation_map(fam.model(n),
                            tuple(data.draw(st.permutations(range(n + 1)))))
    g = DGLMap(f.source, f.target, f.images)
    gens, N = f.source.gens, f.source.N
    x = zero_elt(gens, N)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        k = data.draw(st.integers(min_value=1, max_value=N))
        # generator degrees run from -1 to n - 1
        basis = lyndon_slice_basis(
            gens, data.draw(st.integers(min_value=-k, max_value=(n - 1) * k)),
            k)
        if basis:
            i = data.draw(st.integers(min_value=0, max_value=len(basis) - 1))
            c = data.draw(st.fractions(min_value=-3, max_value=3,
                                       max_denominator=4))
            x = x + c * Elt._from_num(gens, N, basis[i][1], 1)
    assert f(x) == g(x)
    assert f.chain_residues() == g.chain_residues()


def test_table_maps_check_the_source_generators():
    fam = _SYMMETRIC3
    f = fam.coface(0, 1)
    with pytest.raises(ConfigError, match="different generator set"):
        f(fam.model(2).gen((0, 1, 2)))


def test_cofaces_are_chain_maps_seed():
    fam = seed_family(4)
    for n in (0, 1, 2):
        for i in range(n + 2):
            assert fam.coface(i, n).is_chain_map(), (i, n)


def test_subdivision_morphism_chain_map():
    g = subdivision_morphism(5)
    assert g.is_chain_map()
    src = g.source
    x = Elt(src.gens, src.N, {(src.gens.index("a01"),): Fraction(1)})
    img = g(x)
    t = g.target.gens
    assert img.length_part(1) == (
        Elt(t, src.N, {(t.index("a01"),): Fraction(1)})
        + Elt(t, src.N, {(t.index("a12"),): Fraction(1)}))


def _residues_by_generator(f):
    """f(dg) - d(fg) with g, dg and fg each built afresh for every source
    generator g, the map applied to both."""
    src = f.source
    out = []
    for i, name in enumerate(src.gens.names):
        g = Elt(src.gens, src.N, {(i,): Fraction(1)})
        out.append((name, f(src.d(g)) - f.target.d(f(g))))
    return out


def _terms(residues):
    return [(name, r.terms) for name, r in residues]


def test_chain_residues_match_the_generator_formula():
    fam = _SYMMETRIC3
    maps = [fam.coface(i, n) for n in (0, 1, 2) for i in range(n + 2)]
    maps += [fam.codegeneracy(i, n) for n in (1, 2, 3) for i in range(n)]
    maps += [seed_family(3).coface(i, 2) for i in range(4)]
    maps.append(subdivision_morphism(4))
    for f in maps:
        assert _terms(f.chain_residues()) == _terms(_residues_by_generator(f))
    # one wrong image: its residue is reported under its own name
    f = subdivision_morphism(4)
    images = dict(f.images)
    a01 = f.source.gens.index("a01")
    x12 = generator_elt(f.target.gens, f.target.N, "a12")
    images[a01] = images[a01] + x12
    g = DGLMap(f.source, f.target, images)
    got = g.chain_residues()
    assert _terms(got) == _terms(_residues_by_generator(g))
    assert [name for name, r in got if not r.is_zero()] == ["a01"]
    # a missing image and an image of another degree are still read through
    # the map, which raises
    del images[a01]
    with pytest.raises(StructError, match="no image for generator 'a01'"):
        DGLMap(f.source, f.target, images).chain_residues()
    images[a01] = generator_elt(f.target.gens, f.target.N, "a0")
    with pytest.raises(DomainError, match="image of a01 changes degree"):
        DGLMap(f.source, f.target, images).chain_residues()
    # also where no differential reads the generator: x -> z is no chain
    # map, though f(dx) = 0 = d(z)
    src = FreeDGL(GenSet([("x", 0)]), 2, {})
    tgt = FreeDGL(GenSet([("z", 1)]), 2, {})
    with pytest.raises(DomainError, match="image of x changes degree"):
        DGLMap(src, tgt, {0: generator_elt(tgt.gens, 2, "z")}).chain_residues()


def test_coface_check_runs_no_derivation(monkeypatch):
    # a coface sends each letter to one letter, so its residues are read off
    # the two differential tables with no derivation call
    model = ModelFamily(2, "symmetric").model(4)
    inside, calls = [], []
    real_residues = DGLMap.chain_residues
    real_call = Derivation.__call__

    def residues(self):
        inside.append(self)
        try:
            return real_residues(self)
        finally:
            inside.pop()

    def call(self, x):
        if inside:
            calls.append(x)
        return real_call(self, x)
    monkeypatch.setattr(DGLMap, "chain_residues", residues)
    monkeypatch.setattr(Derivation, "__call__", call)
    report = check_model_axioms(model)
    assert report["ok"] and report["cofaces"] == []
    assert calls == []


def test_check_d_squared_matches_the_generator_formula():
    def by_generator(L):
        out = []
        for i, name in enumerate(L.gens.names):
            r = L.d(L.d(Elt(L.gens, L.N, {(i,): Fraction(1)})))
            if not r.is_zero():
                out.append((name, r.terms))
        return out

    broken = seed_family(3)
    broken.install_top_diff(1, 2 * broken.top_diff(1))
    g = GenSet([("x", 1), ("y", 0), ("z", -1)])
    chain = FreeDGL(g, 3, {0: generator_elt(g, 3, "y"),
                           1: generator_elt(g, 3, "z")})
    for L in (_SYMMETRIC3.model(3).dgl, build_model(3, 3).dgl,
              broken.model(2).dgl, chain):
        assert [(name, r.terms) for name, r in L.check_d_squared()] \
            == by_generator(L)
    assert [name for name, _ in chain.check_d_squared()] == ["x"]
    assert broken.model(2).dgl.check_d_squared()


def test_barycentric_mc():
    for n, N in [(1, 5), (2, 4), (3, 3)]:
        m = seed_family(N).model(n)
        x = barycentric_mc(m)
        assert is_mc(m.dgl, x)
        assert x.length_part(1) == barycenter(m)
        one_skeleton = [i for i, name in enumerate(m.gens.names)
                        if len(name) <= 3]
        assert x.support_in(one_skeleton)


def test_generator_homology_point_like():
    for n, N in [(1, 4), (2, 4), (3, 3)]:
        flavors = ["seed", "inductive"] + (["symmetric"] if n >= 2 else [])
        for flavor in flavors:
            m = ModelFamily(N, flavor).model(n)
            dims, reps = generator_homology(m)
            assert dims == {-1: 1}, (flavor, n)
            idims, ireps = generator_homology(m, invariant=True)
            assert idims == {-1: 1}, (flavor, n)
            assert len(ireps[-1]) == 1
            assert ireps[-1][0] == barycenter(m), (flavor, n)


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
            lead_index = {lead: i for i, (lead, _, _) in enumerate(basis)}
            red = FractionFreeReducer()
            vecs = []
            for _, terms, _ in basis:
                proj = reynolds_invariant_project(
                    model, Elt._from_num(gens, N, terms, 1))
                if proj.is_zero():
                    continue
                coords, _ = _slice_coords(proj, basis, lead_index)
                if red.insert(coords) is None:
                    vecs.append(proj)
            if vecs:
                inv_basis[(q, k)] = vecs

    ranks = {}
    for (q, k), vecs in sorted(inv_basis.items()):
        below = lyndon_slice_basis(gens, q - 1, k)
        lead_index = {lead: i for i, (lead, _, _) in enumerate(below)}
        red = FractionFreeReducer()
        for x in vecs:
            dx = L.d1(x)
            if dx.is_zero():
                continue
            coords = _slice_coords(dx, below, lead_index)
            if coords is None:
                raise StructError("linear differential left its slice")
            red.insert(coords[0])
        ranks[(q, k)] = red.rank()

    dims = {}
    for (q, k), vecs in inv_basis.items():
        h = len(vecs) - ranks.get((q, k), 0) - ranks.get((q + 1, k), 0)
        if h:
            dims[(q, k)] = h
    return dims


def test_invariant_slice_homology_triangle():
    m = build_symmetric_model(2, 3)
    dims = invariant_linear_homology(m)
    # one class in degree -1 (the barycenter) and its bracket square
    assert dims == {(-1, 1): 1, (-2, 2): 1}
