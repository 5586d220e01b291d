"""Core graded Lie arithmetic: signs, Dynkin check, Lyndon coordinates."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from freedgl.lie import (
    ConfigError, DomainError, StructError,
    GenSet, Elt, FreeDGL, Derivation,
    bracket, bracket_words, dynkin_theta, dynkin_verify, is_lie,
    generator_elt, zero_elt, lyndon_words, lyndon_basis,
    lyndon_slice_basis, slice_coordinates, elt_from_slice_coords,
    Substitution, substitute, concat_terms,
)
from freedgl.serialize import emit_element, parse_element
from oracles import (
    free_lie_slice_dim, oracle_bracket, oracle_combine, oracle_derivation,
    oracle_dynkin_theta, oracle_substitute,
)

GENS = GenSet([("a", -1), ("b", 0), ("c", 1), ("d", 0)])
N = 5


def gen(i):
    return Elt(GENS, N, {(i,): Fraction(1)})


# random homogeneous Lie elements: bracket trees of generators, where a tuple
# (t1, t2, ..., tk) is the left-nested bracket [[t1, t2], ..., tk]
bracket_trees = st.recursive(
    st.integers(min_value=0, max_value=3),
    lambda kids: st.lists(kids, min_size=2, max_size=3).map(tuple),
    max_leaves=5,
)


def eval_tree(t, M=N):
    """The bracket fold of a tree at truncation M."""
    if isinstance(t, int):
        return Elt(GENS, M, {(t,): Fraction(1)})
    x = eval_tree(t[0], M)
    for s in t[1:]:
        x = bracket(x, eval_tree(s, M))
    return x


def tree_letters(t):
    return [t] if isinstance(t, int) else [i for s in t for i in tree_letters(s)]


def expansion(words):
    """A bracket_words expansion as a word->Fraction dict."""
    return {w: Fraction(c) for w, c in words.items()}


scalars = st.builds(Fraction,
                    st.integers(min_value=-9, max_value=9),
                    st.integers(min_value=1, max_value=7))


def test_bracket_sign_convention():
    # degree -1 against degree -1: anticommutator; degree 0 pair: commutator
    a, b, d = gen(0), gen(1), gen(3)
    assert bracket(a, a).terms == {(0, 0): Fraction(2)}
    assert bracket(b, d).terms == {(1, 3): Fraction(1), (3, 1): Fraction(-1)}
    assert bracket(b, b).is_zero()


@given(bracket_trees, bracket_trees)
@settings(max_examples=60, deadline=None)
def test_graded_antisymmetry(t1, t2):
    x, y = eval_tree(t1), eval_tree(t2)
    dx, dy = x.degree(), y.degree()
    if dx is None or dy is None:
        return
    sign = -1 if (dx % 2 == 0 or dy % 2 == 0) else 1
    assert bracket(x, y) == sign * bracket(y, x)


@given(bracket_trees, bracket_trees, bracket_trees)
@settings(max_examples=60, deadline=None)
def test_graded_jacobi(t1, t2, t3):
    x, y, z = eval_tree(t1), eval_tree(t2), eval_tree(t3)
    dx, dy = x.degree(), y.degree()
    if dx is None or dy is None:
        return
    sign = -1 if (dx % 2) and (dy % 2) else 1
    lhs = bracket(x, bracket(y, z))
    rhs = bracket(bracket(x, y), z) + sign * bracket(y, bracket(x, z))
    assert lhs == rhs


@given(bracket_trees)
@settings(max_examples=60, deadline=None)
def test_dynkin_accepts_lie_elements(t):
    x = eval_tree(t)
    ok, defects = dynkin_verify(x)
    assert ok, defects


@given(bracket_trees, st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_bracket_words_match_the_bracket_fold(t, M):
    words, deg = bracket_words(t, GENS.degrees)
    k = len(tree_letters(t))
    assert all(c and len(w) == k and GENS.degree_of_word(w) == deg
               for w, c in words.items())
    # words with more than M letters are 0 at truncation M
    want = eval_tree(t, M)
    assert Elt(GENS, M, expansion(words) if k <= M else {}) == want


@pytest.mark.parametrize("tree", [
    (0, 2),                   # odd, odd: [a, c] = ac + ca
    (1, 3),                   # even, even
    (0, 1), (1, 2),           # odd, even and even, odd
    ((0, 0), 2), (2, (0, 0)), (2, (1, 3)), ((0, 1), (2, 1)),
    (0, 0, 2, 2), (2, (0, 1), 3), ((0, 2), 1, (3, 2)), (3, 3),
    # [b, b] = 0 for the even letter b, so the next bracket meets no words
    (1, 1, 0), (2, (1, 1)),
])
def test_bracket_words_on_every_degree_parity(tree):
    words, deg = bracket_words(tree, GENS.degrees)
    assert Elt(GENS, N, expansion(words)) == eval_tree(tree)
    assert deg == sum(GENS.degrees[i] for i in tree_letters(tree))


def test_dynkin_rejects_non_lie():
    # the bare word b.d is not primitive
    x = Elt(GENS, N, {(1, 3): Fraction(1)})
    ok, defects = dynkin_verify(x)
    assert not ok
    assert defects[0][0] == 2
    a, b, c, d = (gen(i) for i in range(4))
    u = bracket(a, b)                      # odd, so [u, u] is a nonzero Lie element
    lie = bracket(a, bracket(b, c)) + Fraction(-2, 3) * bracket(d, bracket(d, a))
    stray = Elt(GENS, N, {(3, 1, 2): Fraction(1, 7)})
    cases = [
        x,
        Elt(GENS, N, {(0, 0): Fraction(1)}),
        Elt(GENS, N, {(2, 0, 1): Fraction(-3, 5), (3,): Fraction(4)}),
        bracket(a, a), bracket(c, c), bracket(u, u),
        bracket(u, u) + Elt(GENS, N, {(0, 1, 0, 1): Fraction(1, 2)}),
        lie, lie + stray,
    ]
    for y in cases:
        want = []
        for n in sorted({len(w) for w in y.terms}):
            part = y.length_part(n)
            residue = dynkin_theta(part) - n * part
            if not residue.is_zero():
                want.append((n, residue))
        ok, defects = dynkin_verify(y)
        assert defects == want
        assert ok == (not want)
    assert dynkin_verify(bracket(u, u))[0]
    assert [n for n, _ in dynkin_verify(lie + stray)[1]] == [3]
    for q in range(-5, 6):
        for n in range(1, 6):
            for _, terms, _ in lyndon_slice_basis(GENS, q, n):
                assert dynkin_verify(Elt(GENS, N, terms))[0]
    with pytest.raises(DomainError):
        emit_element(lie + stray)


def test_dynkin_on_odd_square():
    a = gen(0)
    sq = bracket(a, a)
    assert dynkin_theta(sq) == 2 * sq
    # the squares of even letters are in the kernel of theta
    assert dynkin_theta(Elt(GENS, N, {(1, 1): Fraction(1),
                                      (3, 3): Fraction(-2)})).is_zero()


# random word->Fraction dicts over letters of both parities, words of mixed
# lengths up to N
word_dicts = st.dictionaries(
    st.lists(st.integers(min_value=0, max_value=3),
             min_size=1, max_size=N).map(tuple),
    scalars.filter(bool), max_size=8)


@given(word_dicts, st.integers(min_value=0, max_value=2))
@settings(max_examples=150, deadline=None)
def test_dynkin_theta_matches_the_word_fold(terms, room):
    M = max((len(w) for w in terms), default=1) + room
    x = Elt(GENS, M, terms)
    want = Elt(GENS, M, oracle_dynkin_theta(terms, GENS.degrees, M))
    assert dynkin_theta(x) == want
    # theta keeps word length, so it commutes with a change of truncation
    assert dynkin_theta(x.at_truncation(M + 1)) == want.at_truncation(M + 1)


@given(word_dicts, st.integers(min_value=1, max_value=N))
@settings(max_examples=100, deadline=None)
def test_dynkin_theta_cancels_on_its_kernel(terms, n):
    # theta(theta(x_n)) = n theta(x_n), so theta(x_n) - n x_n maps to 0
    part = {w: c for w, c in terms.items() if len(w) == n}
    y = oracle_combine(oracle_dynkin_theta(part, GENS.degrees, N), part, -n)
    assert dynkin_theta(Elt(GENS, N, y)).is_zero()


@given(word_dicts, bracket_trees, scalars)
@settings(max_examples=150, deadline=None)
def test_dynkin_verify_defects_match_the_word_fold(terms, t, c):
    # a Lie part next to arbitrary words, so some lengths pass and some fail
    x = Elt(GENS, N, terms) + c * eval_tree(t)
    want = []
    for n in sorted({len(w) for w in x.terms}):
        part = {w: v for w, v in x.terms.items() if len(w) == n}
        residue = oracle_combine(oracle_dynkin_theta(part, GENS.degrees, N),
                                 part, -n)
        if residue:
            want.append((n, Elt(GENS, N, residue)))
    ok, defects = dynkin_verify(x)
    assert defects == want
    assert ok == (not want)


def tree_text(t):
    """A bracket tree as element text: a tuple (t1, ..., tk) is written as
    the left-nested [[t1, t2], ..., tk]."""
    if isinstance(t, int):
        return GENS.names[t]
    s = tree_text(t[0])
    for u in t[1:]:
        s = "[%s,%s]" % (s, tree_text(u))
    return s


# combs (flat tuples of letters) next to arbitrary nestings, some of them
# with combs inside
mixed_trees = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3),
             min_size=1, max_size=6).map(tuple),
    bracket_trees,
    st.tuples(bracket_trees, st.integers(min_value=0, max_value=3)),
)


@given(st.lists(st.tuples(scalars.filter(bool), mixed_trees),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_parse_element_matches_the_bracket_fold(terms, M):
    text = " ".join("%s %s %s" % ("-" if c < 0 else "+", abs(c), tree_text(t))
                    for c, t in terms)
    want = zero_elt(GENS, M)
    for c, t in terms:
        want = want + c * eval_tree(t, M)
    x = parse_element(text, GENS, M)
    assert x == want
    # the parser marks its result as Lie; an unmarked copy must pass the check
    assert dynkin_verify(Elt._from_num(x.gens, x.N, x.num, x.den))[0]


def oracle_standard_bracketing(word, M):
    """b_word by recursive bracket calls on the standard factorization: the
    split before the longest proper suffix that is a Lyndon word."""
    if len(word) == 1:
        return Elt(GENS, M, {word: Fraction(1)})
    cut = next(i for i in range(1, len(word))
               if all(word[i:] < word[j:] for j in range(i + 1, len(word))))
    return bracket(oracle_standard_bracketing(word[:cut], M),
                   oracle_standard_bracketing(word[cut:], M))


def test_lyndon_slices_match_recursive_bracketing():
    doubled_seen = 0
    for q in range(-5, 6):
        for n in range(1, 6):
            basis = lyndon_slice_basis(GENS, q, n)
            assert [lead for lead, _, _ in basis] == sorted(
                lead for lead, _, _ in basis)
            for lead, terms, doubled in basis:
                assert all(type(c) is int and c for c in terms.values())
                if doubled:
                    half = lead[:n // 2]
                    b = oracle_standard_bracketing(half, n)
                    want = bracket(b, b)
                    doubled_seen += 1
                else:
                    want = oracle_standard_bracketing(lead, n)
                assert Elt(GENS, n, terms) == want, (q, n, lead)
    assert doubled_seen


@pytest.mark.parametrize("pairs,degree_range,length_range", [
    ([("x", 0), ("y", 0)], range(-1, 2), range(1, 7)),
    ([("a", -1), ("b", -1)], range(-7, 1), range(1, 7)),
    ([("v", 1)], range(0, 7), range(1, 7)),
    ([("a", -1), ("b", 0), ("c", 1)], range(-5, 6), range(1, 6)),
])
def test_lyndon_dims_match_witt_oracle(pairs, degree_range, length_range):
    g = GenSet(pairs)
    degs = tuple(d for _, d in pairs)
    for q in degree_range:
        for n in length_range:
            assert len(lyndon_basis(g, q, n)) == free_lie_slice_dim(degs, q, n)


def test_lyndon_words_duval():
    words = sorted(lyndon_words(2, 4))
    assert words == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]
    assert list(lyndon_words(1, 3)) == []


def test_lyndon_leading_coefficients():
    g = GenSet([("x", 0), ("y", 1)])
    for q in range(0, 5):
        for n in range(1, 6):
            for lead, terms, doubled in lyndon_slice_basis(g, q, n):
                want = Fraction(2) if doubled else Fraction(1)
                assert terms[lead] == want
                assert min(terms) == lead


@given(st.lists(scalars, min_size=0, max_size=6),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_slice_coordinates_round_trip(coeffs, q, n):
    basis = lyndon_slice_basis(GENS, q, n)
    if not basis:
        return
    coords = [coeffs[i] if i < len(coeffs) else Fraction(0)
              for i in range(len(basis))]
    x = elt_from_slice_coords(GENS, N, basis, dict(enumerate(coords)))
    assert slice_coordinates(x, basis) == coords


def test_slice_coordinates_halve_a_doubled_lead():
    # [a, a] = 2 a.a for the odd letter a, so a.a has coordinate 1/2, and
    # mixed with a lead-1 element the odd numerator forces a finer common
    # denominator partway through the reduction
    assert slice_coordinates(Elt(GENS, N, {(0, 0): Fraction(1)}),
                             lyndon_slice_basis(GENS, -2, 2)) == [Fraction(1, 2)]
    basis = lyndon_slice_basis(GENS, -2, 4)
    doubled = [i for i, (_, _, d) in enumerate(basis) if d]
    assert doubled and len(basis) > len(doubled)
    coords = [Fraction(i + 1, 3) if i not in doubled else Fraction(1, 2)
              for i in range(len(basis))]
    x = elt_from_slice_coords(GENS, N, basis, dict(enumerate(coords)))
    assert slice_coordinates(x, basis) == coords


def test_slice_coordinates_rejects_outside_span():
    basis = lyndon_slice_basis(GENS, 0, 2)
    x = Elt(GENS, N, {(1, 3): Fraction(1)})  # bare word, not in the Lie span
    assert slice_coordinates(x, basis) is None


@given(bracket_trees, bracket_trees, st.integers(min_value=-1, max_value=1))
@settings(max_examples=40, deadline=None)
def test_derivation_leibniz(t1, t2, shift):
    x, y = eval_tree(t1), eval_tree(t2)
    dx = x.degree()
    if dx is None:
        return
    # derivation sending each generator to a fixed bracket of matching degree
    images = {}
    for i in range(len(GENS)):
        target = GENS.degrees[i] + shift
        basis = lyndon_slice_basis(GENS, target, 2)
        if basis:
            images[i] = Elt(GENS, N, basis[0][1])
    D = Derivation(GENS, N, images, shift)
    sign = -1 if (shift % 2) and (dx % 2) else 1
    assert D(bracket(x, y)) == bracket(D(x), y) + sign * bracket(x, D(y))


def test_substitute_is_multiplicative():
    g = GenSet([("x", 0), ("y", 0)])
    h = GenSet([("u", 0), ("v", 0)])
    x, y = generator_elt(g, N, "x"), generator_elt(g, N, "y")
    u, v = generator_elt(h, N, "u"), generator_elt(h, N, "v")
    images = {0: bracket(u, v), 1: v}
    lhs = substitute(bracket(x, y), h, N, images)
    rhs = bracket(substitute(x, h, N, images), substitute(y, h, N, images))
    assert lhs == rhs


def test_substitute_rejects_degree_change():
    g = GenSet([("x", 0)])
    h = GenSet([("u", 1)])
    x = generator_elt(g, N, "x")
    with pytest.raises(DomainError):
        substitute(x, h, N, {0: generator_elt(h, N, "u")})


def test_public_derivation_and_free_dgl_check_image_degrees():
    # tables the package builds from checked differentials skip the
    # re-check; a table passed to the public constructors does not
    g = GenSet([("x", 0), ("y", 0)])
    x = generator_elt(g, N, "x")
    for build in (lambda: Derivation(g, N, {1: x}, -1),
                  lambda: FreeDGL(g, N, {1: x})):
        with pytest.raises(DomainError,
                           match="image of y must have degree -1, got 0"):
            build()


def test_free_dgl_d_squared():
    g = GenSet([("a", -1), ("b", -1)])
    aa = Elt.build(g, 4, [((0, 0), -1)])
    bb = Elt.build(g, 4, [((1, 1), -1)])
    L = FreeDGL(g, 4, {0: aa, 1: bb})
    assert L.check_d_squared() == []
    # breaking one entry surfaces a named residue
    bad = FreeDGL(g, 4, {0: aa, 1: Elt.build(g, 4, [((0, 0), -1), ((0, 1), 1)])})
    names = [n for n, _ in bad.check_d_squared()]
    assert names == ["b"]


def test_d1_is_length_preserving_part():
    g = GenSet([("a", -1), ("b", -1), ("x", 0)])
    # d(x) = b - a + a quadratic tail; d1 must keep only b - a
    dx = Elt.build(g, 4, [((1,), 1), ((0,), -1), ((0, 2), 5)])
    L = FreeDGL(g, 4, {0: Elt.build(g, 4, [((0, 0), -1)]),
                       1: Elt.build(g, 4, [((1, 1), -1)]),
                       2: dx})
    x = L.gen("x")
    d1x = L.d1(x)
    assert d1x == Elt.build(g, 4, [((1,), 1), ((0,), -1)])
    w = bracket(x, bracket(x, x))
    full = L.d(w)
    lin = L.d1(w)
    assert lin == Elt(g, 4, {u: c for u, c in full.terms.items() if len(u) == 3})


def test_truncation_drops_long_words():
    g = GenSet([("x", 0), ("y", 0)])
    x, y = generator_elt(g, 2, "x"), generator_elt(g, 2, "y")
    w = bracket(bracket(x, y), y)
    assert w.is_zero()


def test_mixed_truncation_is_an_error():
    g = GenSet([("x", 0)])
    with pytest.raises(ConfigError):
        generator_elt(g, 3, "x") + generator_elt(g, 4, "x")
    with pytest.raises(ConfigError):
        bracket(generator_elt(g, 3, "x"), generator_elt(g, 4, "x"))


def test_elt_refuses_words_it_cannot_hold():
    with pytest.raises(StructError):
        Elt(GENS, N, {(): 1})
    for letter in (4, -1):
        with pytest.raises(StructError):
            Elt(GENS, N, {(letter,): 1})
    with pytest.raises(ConfigError) as e:
        Elt(GENS, 3, {(0, 1, 0, 1): Fraction(1, 2)})
    assert str(e.value) == "element does not fit in truncation 3"
    assert Elt(GENS, 4, {(0, 1, 0, 1): 0}).is_zero()


def test_truncation_below_one_is_refused():
    g = GenSet([("x", 0), ("y", 1)])
    x = generator_elt(g, 3, "x")
    L = FreeDGL(g, 3, {})
    for M in (0, -2):
        for call in (lambda: x.truncated(M), lambda: FreeDGL(g, M, {}),
                     lambda: L.truncated(M), lambda: generator_elt(g, M, "x"),
                     lambda: zero_elt(g, M), lambda: x.at_truncation(M),
                     lambda: (x - x).at_truncation(M)):
            with pytest.raises(ConfigError) as e:
                call()
            assert str(e.value) == "truncation must be >= 1, got %d" % M


def test_deep_right_nesting_expands_without_recursion():
    # [a, [a, a]] = 0 for a odd, so the tree nested 3000 deep on the right
    # is 0, reached through 3000 open trees
    g = GenSet([("a", -1), ("x", 0)])
    tree = 0
    for _ in range(3000):
        tree = (0, tree)
    assert bracket_words(tree, g.degrees) == ({}, -3001)
    assert bracket_words((1, tree), g.degrees) == ({}, -3001)


def test_mixed_genset_is_an_error():
    g1 = GenSet([("x", 0)])
    g2 = GenSet([("y", 0)])
    with pytest.raises(ConfigError):
        generator_elt(g1, 3, "x") + generator_elt(g2, 3, "y")


def test_degree_floor():
    with pytest.raises(DomainError):
        GenSet([("w", -2)])


def test_floats_rejected():
    g = GenSet([("x", 0)])
    with pytest.raises(DomainError):
        generator_elt(g, 3, "x") * 0.5


def test_duplicate_generator_rejected():
    with pytest.raises(StructError):
        GenSet([("x", 0), ("x", 1)])


def test_degree_of_inhomogeneous_raises():
    x = gen(0) + gen(1)
    with pytest.raises(DomainError):
        x.degree()
    assert not x.has_degree(0)
    assert zero_elt(GENS, N).degree() is None


def test_concat_terms_respects_truncation():
    out = concat_terms({(0, 1): Fraction(1)}, {(2,): Fraction(1)}, 2)
    assert out == {}
    out = concat_terms({(0,): Fraction(2)}, {(1,): Fraction(3)}, 2)
    assert out == {(0, 1): Fraction(6)}


# words of length 1..4 over GENS, and random word->Fraction dicts on them with
# mixed denominators
WORDS = [w for k in range(1, 5) for w in product(range(len(GENS)), repeat=k)]
coeffs = st.builds(Fraction,
                   st.integers(min_value=-7, max_value=7).filter(bool),
                   st.sampled_from([1, 2, 3, 4, 6, 9]))


def word_dicts(pool, max_size):
    return st.dictionaries(st.sampled_from(pool), coeffs, max_size=max_size)


@st.composite
def generator_images(draw, degree_of, trunc, omit=True):
    """Images per letter: omitted (when omit), zero, or terms of length <= 2
    and degree degree_of(g), mostly the last."""
    images = {}
    for g in range(len(GENS)):
        pool = [w for w in WORDS if len(w) <= min(trunc, 2)
                and GENS.degree_of_word(w) == degree_of(g)]
        kind = draw(st.sampled_from(
            ["omit", "zero", "terms", "terms"] if omit
            else ["zero", "terms", "terms", "terms"]))
        if kind == "zero" or (kind == "terms" and not pool):
            images[g] = {}
        elif kind == "terms":
            images[g] = draw(word_dicts(pool, 4))
    return images


@given(st.data(), st.sampled_from([-1, 0, 1]),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=150, deadline=None)
def test_derivation_matches_the_word_loop_oracle(data, shift, trunc):
    images = data.draw(generator_images(
        lambda g: GENS.degrees[g] + shift, trunc))
    x = data.draw(word_dicts([w for w in WORDS if len(w) <= trunc], 6))
    D = Derivation(GENS, trunc,
                   {g: Elt(GENS, trunc, t) for g, t in images.items()}, shift)
    got = D(Elt(GENS, trunc, x))
    assert got.terms == oracle_derivation(x, images, GENS.degrees, shift, trunc)
    # a second call reuses the cached integer images
    assert D(Elt(GENS, trunc, x)).terms == got.terms


TARGET = GenSet([("p", -1), ("q", 0), ("r", 1), ("s", 0)])


@given(st.data(), st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_substitute_matches_the_word_loop_oracle(data, trunc):
    images = data.draw(generator_images(
        lambda g: GENS.degrees[g], trunc, omit=False))
    x = data.draw(word_dicts([w for w in WORDS if len(w) <= 3], 6))
    got = substitute(Elt(GENS, 4, x), TARGET, trunc,
                     {g: Elt(TARGET, trunc, t) for g, t in images.items()})
    assert got.gens is TARGET and got.N == trunc
    assert got.terms == oracle_substitute(x, images, trunc)


def test_substitute_brings_words_to_one_denominator():
    # the two words' products have denominators 2 and 3
    x = Elt(GENS, N, {(1,): Fraction(1), (3,): Fraction(1)})
    images = {1: Elt(TARGET, N, {(1,): Fraction(1, 2)}),
              3: Elt(TARGET, N, {(1,): Fraction(1, 3)})}
    assert substitute(x, TARGET, N, images).terms == {(1,): Fraction(5, 6)}


def assert_canonical(x, terms):
    """x holds the word->Fraction dict terms as numerators over one positive
    denominator in lowest terms, and equals and hashes like the element
    built from terms and like one built from scaled numerators."""
    assert x.terms == terms
    assert x.den > 0 and 0 not in x.num.values()
    assert gcd(x.den, *x.num.values()) == 1
    assert x.num == {w: c * x.den for w, c in terms.items()}
    same = Elt(x.gens, x.N, terms)
    scaled = Elt._from_num(x.gens, x.N, {w: 6 * c for w, c in x.num.items()},
                           6 * x.den)
    for y in (same, scaled):
        assert y == x and hash(y) == hash(x)
        assert (y.num, y.den) == (x.num, x.den)


@given(st.data(), st.one_of(st.just(0), st.integers(-3, 3), coeffs))
@settings(max_examples=150, deadline=None)
def test_integer_elt_arithmetic_matches_the_fraction_reference(data, s):
    pool = [w for w in WORDS if len(w) <= 3]
    a = data.draw(word_dicts(pool, 6))
    b = data.draw(word_dicts(pool, 6))
    x, y = Elt(GENS, 4, a), Elt(GENS, 4, b)
    assert_canonical(x, a)
    assert_canonical(x + y, oracle_combine(a, b))
    assert_canonical(x - y, oracle_combine(a, b, -1))
    assert_canonical(x - x, {})
    assert_canonical(-x, oracle_combine({}, a, -1))
    assert_canonical(x * s, oracle_combine({}, a, s))
    assert_canonical(s * x, oracle_combine({}, a, s))
    assert_canonical(bracket(x, y), oracle_bracket(a, b, GENS.degrees, 4))
    for k in range(1, 5):
        assert_canonical(x.length_part(k),
                         {w: c for w, c in a.items() if len(w) == k})
    for M in range(1, 5):
        t = x.truncated(M)
        assert t.N == M
        assert_canonical(t, {w: c for w, c in a.items() if len(w) <= M})
    z = x.at_truncation(5)
    assert z.N == 5
    assert_canonical(z, a)
    assert (x == y) == (a == b)
    # bracket at every truncation 1..5, with pairs whose lengths sum past it
    # and odd letters (a, c) for the Koszul sign
    c = data.draw(word_dicts(WORDS, 6))
    for M in range(1, 6):
        u = {w: q for w, q in a.items() if len(w) <= M}
        v = {w: q for w, q in c.items() if len(w) <= M}
        for p, q in ((u, v), (v, u)):
            assert_canonical(bracket(Elt(GENS, M, p), Elt(GENS, M, q)),
                             oracle_bracket(p, q, GENS.degrees, M))


@given(st.data(), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_one_prepared_substitution_matches_the_oracle_on_each_element(
        data, trunc):
    images = data.draw(generator_images(
        lambda g: GENS.degrees[g], trunc, omit=False))
    f = Substitution(GENS, TARGET, trunc,
                     {g: Elt(TARGET, trunc, t) for g, t in images.items()})
    pool = [w for w in WORDS if len(w) <= 3]
    for x in data.draw(st.lists(word_dicts(pool, 6), min_size=2, max_size=4)):
        got = f(Elt(GENS, 4, x))
        assert got.gens is TARGET and got.N == trunc
        assert_canonical(got, oracle_substitute(x, images, trunc))


@given(st.data(), st.integers(min_value=2, max_value=4))
@settings(max_examples=100, deadline=None)
def test_prefix_sharing_substitution_matches_the_oracle(data, trunc):
    # each element's words extend a few shared prefixes, one word has a
    # letter with image 0 inside it, the images of b and d have length 2
    # only, so their prefix products pass trunc before a word of length
    # <= trunc ends, and coefficients have mixed denominators.  One map
    # applied to two elements must give what two fresh maps give
    images = data.draw(generator_images(
        lambda g: GENS.degrees[g], trunc, omit=False))
    pairs = [w for w in WORDS if len(w) == 2 and GENS.degree_of_word(w) == 0]
    for g in (1, 3):
        images[g] = data.draw(word_dicts(pairs, 3).filter(bool))
    zero = data.draw(st.sampled_from([0, 2]))
    images[zero] = {}
    short = [w for w in WORDS if len(w) <= 2]

    def element():
        heads = data.draw(st.lists(st.sampled_from(short), min_size=1,
                                   max_size=3, unique=True))
        x = {h + t: data.draw(coeffs) for h in heads
             for t in data.draw(st.lists(st.sampled_from(short),
                                         min_size=1, max_size=3))}
        x[heads[0] + (zero,) + heads[-1]] = data.draw(coeffs)
        return x

    def fresh():
        return Substitution(GENS, TARGET, trunc, {
            g: Elt(TARGET, trunc, t) for g, t in images.items()})

    f = fresh()
    xs = [element(), element()]
    got = [f(Elt(GENS, 5, x)) for x in xs]
    for x, y in zip(xs, got):
        assert y == fresh()(Elt(GENS, 5, x))
        assert_canonical(y, oracle_substitute(x, images, trunc))
    assert f(Elt(GENS, 5, xs[0])) == got[0]


@given(st.data(), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_graded_product_table_matches_the_oracle_length_by_length(
        data, trunc):
    # images with parts of lengths 1..3, one of them 0, go in one length at
    # a time, as in minimal_model's graded pass: stage k asks for the
    # length-k part of the words of two or more letters, whose products
    # read image parts below length k only, and then the parts of length k
    # go in.  b's parts of lengths 1 and 2 have denominators 2 and 3, so a
    # product sums terms over different denominators, and elements hold
    # words longer than trunc.  Each stage, and then each length and the
    # whole map read through the same table, must equal the oracle
    images = {}
    for g in range(len(GENS)):
        pool = [w for w in WORDS if len(w) <= min(3, trunc)
                and GENS.degree_of_word(w) == GENS.degrees[g]]
        images[g] = data.draw(word_dicts(pool, 5))
    if trunc > 1:
        images[1].update({(3,): Fraction(1, 2), (1, 3): Fraction(-1, 3)})
    images[data.draw(st.sampled_from([0, 2]))] = {}
    xs = data.draw(st.lists(word_dicts(WORDS, 8), min_size=1, max_size=3))

    def below(k):
        return {g: Elt(TARGET, trunc, {w: c for w, c in t.items()
                                       if len(w) < k})
                for g, t in images.items()}

    def length_part(terms, r):
        return {w: c for w, c in terms.items() if len(w) == r}

    filled = below(1)
    f = Substitution(GENS, TARGET, trunc, filled)
    table = {}
    for k in range(1, trunc + 1):
        for x in xs:
            long = {w: c for w, c in x.items() if len(w) > 1}
            got = f.graded(Elt(GENS, 5, long), (k,), table)
            assert got.N == trunc
            assert got.terms == length_part(
                oracle_substitute(long, images, trunc), k)
        filled.update(below(k + 1))
    for x in xs:
        want = oracle_substitute(x, images, trunc)
        for r in range(1, trunc + 1):
            got = f.graded(Elt(GENS, 5, x), (r,), table)
            assert got.terms == length_part(want, r)
        assert_canonical(
            f.graded(Elt(GENS, 5, x), range(1, trunc + 1), table), want)
        assert_canonical(f(Elt(GENS, 5, x)), want)


def test_prepared_substitution_checks_each_letter_on_first_use():
    # the map works on elements without the bad letters, then fails on each
    # one with the texts that substitute gives
    b, c, d = gen(1), gen(2), gen(3)
    images = {1: Elt(TARGET, N, {(1,): Fraction(1, 2)}),
              2: Elt(TARGET, N, {(1,): Fraction(1)})}
    f = Substitution(GENS, TARGET, N, images)
    assert f(b).terms == {(1,): Fraction(1, 2)}
    for x, err, text in (
            (b + d, StructError, "no image for generator 'd'"),
            (c, DomainError, "image of c changes degree (1 -> 0); "
                             "substitution needs degree-preserving images")):
        for apply in (f, lambda x: substitute(x, TARGET, N, images)):
            with pytest.raises(err) as e:
                apply(x)
            assert str(e.value) == text
    # the map is of GENS: an argument over another generator set is refused
    with pytest.raises(ConfigError):
        f(Elt(TARGET, N, {(1,): Fraction(1)}))
