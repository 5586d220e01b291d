"""Round-trip and error behavior of the text serialization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from freedgl import lie, serialize
from freedgl.lie import (
    GenSet, Elt, FreeDGL, DomainError, bracket, dynkin_verify, generator_elt,
    lyndon_slice_basis, elt_from_slice_coords,
)
from freedgl.serialize import (
    ParseError, emit_element, parse_element, emit_dgl, parse_dgl, _tokenize,
)
from freedgl.series import bch

from oracles import emit_terms, scan_tokens

GENS = GenSet([("a0", -1), ("a1", -1), ("x", 0)])
N = 5


def test_emit_simple_terms():
    a0 = generator_elt(GENS, N, "a0")
    x = generator_elt(GENS, N, "x")
    assert emit_element(a0) == "1 a0"
    assert emit_element(-a0) == "-1 a0"
    assert emit_element(Elt(GENS, N, {})) == "0"
    # -a0.a0 is -1/2 [a0,a0] in bracket form
    da0 = Elt.build(GENS, N, [((0, 0), -1)])
    assert emit_element(da0) == "-1/2 [a0,a0]"
    # one emitted term per tensor word: [[x,a0],a0] = x.a0.a0 - a0.a0.x
    w = bracket(bracket(x, a0), a0)
    assert emit_element(w) == "-1/3 [[a0,a0],x] + 1/3 [[x,a0],a0]"
    assert parse_element(emit_element(w), GENS, N) == w


def test_emit_term_order_is_deterministic():
    a0 = generator_elt(GENS, N, "a0")
    a1 = generator_elt(GENS, N, "a1")
    x = generator_elt(GENS, N, "x")
    e = bracket(x, a1) + a0 - 2 * a1
    s = emit_element(e)
    assert s == "1 a0 - 2 a1 - 1/2 [a1,x] + 1/2 [x,a1]"
    assert parse_element(s, GENS, N) == e


def test_parse_accepts_any_nesting():
    a0 = generator_elt(GENS, N, "a0")
    a1 = generator_elt(GENS, N, "a1")
    x = generator_elt(GENS, N, "x")
    left = parse_element("[[x,a0],a1]", GENS, N)
    assert left == bracket(bracket(x, a0), a1)
    right = parse_element("[x,[a0,a1]]", GENS, N)
    assert right == bracket(x, bracket(a0, a1))
    mixed = parse_element("2/3 * [x,[a0,a1]] - [a0,a1]", GENS, N)
    assert mixed == Fraction(2, 3) * right - bracket(a0, a1)


def test_emit_refuses_non_lie():
    # a failing verdict is never stored, so every call refuses
    bad = Elt(GENS, N, {(0, 2): Fraction(1)})
    for _ in range(3):
        with pytest.raises(DomainError):
            emit_element(bad)
        assert not dynkin_verify(bad)[0]


def _count_theta(monkeypatch):
    """A list that gains one entry per run of the merged Dynkin map, from
    dynkin_verify or from the parser."""
    calls = []
    theta = lie._theta_coded

    def counted(groups, gens):
        calls.append(len(groups))
        return theta(groups, gens)

    monkeypatch.setattr(lie, "_theta_coded", counted)
    monkeypatch.setattr(serialize, "_theta_coded", counted)
    return calls


def test_each_element_is_dynkin_checked_once(monkeypatch):
    # bch checks its result and parse_element builds a Lie element, so
    # neither is checked again when it is emitted
    g = GenSet([("x", 0), ("y", 0), ("z", 0)])
    x, y, z = (generator_elt(g, 4, n) for n in ("x", "y", "z"))
    calls = _count_theta(monkeypatch)
    text = emit_element(bch(x, y, z))
    assert len(calls) == 1
    del calls[:]
    back = parse_element(text, g, 4)
    assert emit_element(back) == text
    assert len(calls) == 1
    # an element from elsewhere is checked once, then read off its verdict
    del calls[:]
    w = bracket(x, y)
    assert emit_element(w) == emit_element(w) == "1/2 [x,y] - 1/2 [y,x]"
    assert len(calls) == 1


@given(st.lists(st.builds(Fraction,
                          st.integers(min_value=-20, max_value=20),
                          st.integers(min_value=1, max_value=12)),
                min_size=1, max_size=8),
       st.sampled_from([(-1, 1), (-1, 2), (-2, 2), (-1, 3), (0, 3), (-2, 4)]))
@settings(max_examples=80, deadline=None)
def test_round_trip_random_lie_elements(coeffs, slice_):
    q, n = slice_
    basis = lyndon_slice_basis(GENS, q, n)
    if not basis:
        return
    coords = [coeffs[i % len(coeffs)] for i in range(len(basis))]
    x = elt_from_slice_coords(GENS, N, basis, dict(enumerate(coords)))
    assert parse_element(emit_element(x), GENS, N) == x


@given(st.lists(st.tuples(st.sampled_from(
    [(-1, 1), (-1, 2), (-2, 2), (-1, 3), (0, 3), (-2, 4), (-2, 5), (0, 5)]),
    st.lists(st.builds(Fraction, st.integers(min_value=-30, max_value=30),
                       st.integers(min_value=1, max_value=12)),
             min_size=1, max_size=6)), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_emit_matches_the_word_by_word_writer(slices):
    # sums of slices, so lengths and denominators mix
    x = Elt(GENS, N, {})
    for (q, n), coeffs in slices:
        basis = lyndon_slice_basis(GENS, q, n)
        coords = {i: coeffs[i % len(coeffs)] for i in range(len(basis))}
        x = x + elt_from_slice_coords(GENS, N, basis, coords)
    assert emit_element(x) == emit_terms(x.terms, GENS.names)


def test_emit_of_bch_matches_the_word_by_word_writer():
    g = GenSet([("x", 0), ("y", 0), ("z", 0)])
    b = bch(*(generator_elt(g, 5, n) for n in ("x", "y", "z")))
    assert emit_element(b) == emit_terms(b.terms, g.names)


def test_round_trip_inhomogeneous():
    a0 = generator_elt(GENS, N, "a0")
    x = generator_elt(GENS, N, "x")
    e = a0 + Fraction(7, 3) * bracket(x, a0) + bracket(x, bracket(x, a0))
    assert parse_element(emit_element(e), GENS, N) == e


PARSE_ERRORS = [
    ("", "empty element"),
    ("  ", "empty element"),
    ("1 [a0,a1", "unexpected end of element"),    # unbalanced
    ("-", "unexpected end of element"),
    ("[a0,a1,x]", "expected ']', got ','"),
    ("[a0]", "expected ',', got ']'"),
    ("1 ]", "expected a generator or '[', got ']'"),
    ("1 q0", "unknown generator 'q0'"),
    ("a0 a1", "expected '+' or '-', got 'a1'"),   # missing separator
    ("1 a0 2 a1", "expected '+' or '-', got '2'"),
    ("1/0 a0", "bad rational '1/0'"),             # zero denominator
    ("1/2/3 a0", "bad rational '1/2/3'"),
    ("1/ a0", "bad rational '1/'"),
    ("1\u00b2 a0", "bad rational '1\u00b2'"),          # a superscript digit
    ("\u00b2/3 a0", "bad rational '\u00b2/3'"),
    ("1 a0 % a1", "unexpected character '%'"),
]


def test_parse_errors():
    for text, message in PARSE_ERRORS:
        for line in (None, 7):
            with pytest.raises(ParseError) as e:
                parse_element(text, GENS, N, line=line)
            assert e.value.line == line
            assert str(e.value) == (
                message if line is None else "line 7: " + message)


# binary bracket trees over GENS with up to 7 letters, so some words are
# longer than N and parse to 0
text_trees = st.recursive(
    st.integers(min_value=0, max_value=2),
    lambda kids: st.tuples(kids, kids),
    max_leaves=7,
)


def tree_text(t):
    if isinstance(t, int):
        return GENS.names[t]
    return "[%s,%s]" % (tree_text(t[0]), tree_text(t[1]))


def tree_elt(t):
    """The tree by bracket calls at truncation N."""
    if isinstance(t, int):
        return generator_elt(GENS, N, GENS.names[t])
    return bracket(tree_elt(t[0]), tree_elt(t[1]))


@given(st.lists(st.tuples(st.integers(min_value=-9, max_value=9),
                          st.integers(min_value=1, max_value=6),
                          st.booleans(), text_trees),
                min_size=1, max_size=5))
@example([(4, 6, False, (2, 0)), (0, 3, True, 1), (-3, 6, False, (0, 1))])
@settings(max_examples=150, deadline=None)
def test_parse_matches_bracket_sums(terms):
    # coefficients are printed unreduced, p/q as drawn: 4/6, 0/3, - 3/6
    bits = []
    want = Elt(GENS, N, {})
    for i, (p, q, star, t) in enumerate(terms):
        if i or p < 0:
            bits.append("-" if p < 0 else "+")
        bits.append("%d/%d%s %s" % (abs(p), q, " *" if star else "",
                                    tree_text(t)))
        want = want + Fraction(p, q) * tree_elt(t)
    x = parse_element(" ".join(bits), GENS, N)
    assert x == want
    # the parser marks its result as Lie; an unmarked copy must pass the check
    assert dynkin_verify(Elt._from_num(x.gens, x.N, x.num, x.den))[0]


def _deep_word(depth):
    """[[...[a,a],a]...,a] with depth brackets and depth + 1 letters."""
    return "[" * depth + "a" + ",a]" * depth


def test_deep_nesting_parses_without_recursion():
    g = GenSet([("a", -1), ("x", 0)])
    word = _deep_word(5000)
    assert parse_element("1 " + word, g, 3).is_zero()
    assert parse_element("[x," + word + "] + 2 x", g, 3) == 2 * generator_elt(g, 3, "x")
    with pytest.raises(ParseError):
        parse_element("1 " + word[:-1], g, 3)
    L = parse_dgl("dgl\ngens a:-1 x:0\ntrunc 3\nd x = 1 %s\n" % word)
    assert L.diff.images == {}
    with pytest.raises(ParseError) as e:
        parse_dgl("dgl\ngens a:-1 x:0\ntrunc 3\nd x = 1 %s\n" % word[:-1])
    assert e.value.line == 4


def test_deep_right_nesting_parses_without_recursion():
    # [a, [a, a]] = 0 for a odd, so the right-nested word of 3001 letters is
    # 0; it fits at trunc 4000 and is not left-normed, so it reaches
    # bracket_words as a tree nested 3000 deep
    g = GenSet([("a", -1), ("x", 0)])
    word = "[a," * 3000 + "a" + "]" * 3000
    assert parse_element("1 " + word, g, 4000).is_zero()
    assert parse_element("[x,%s] + 2 x" % word, g, 4000) == (
        2 * generator_elt(g, 4000, "x"))
    L = parse_dgl("dgl\ngens a:-1 x:0\ntrunc 4000\nd x = 1 %s\n" % word)
    assert L.diff.images == {}


def test_deep_comb_expands_without_recursion_at_large_truncation():
    # a left-normed word of 5001 letters fits at trunc 6000, so it reaches
    # the merged Dynkin map, which walks its suffixes with an explicit stack;
    # [[a, a], a] = 0 for a odd, so the word is 0
    g = GenSet([("a", -1), ("x", 0)])
    word = _deep_word(5000)
    assert parse_element("1 " + word, g, 6000).is_zero()
    assert parse_element("[x," + word + "] + 2 x", g, 6000) == (
        2 * generator_elt(g, 6000, "x"))


def test_cancelling_word_parses_to_zero_at_large_truncation():
    # [x, x] = 0 for x even, so the 24-letter word expands to nothing
    # instead of to 2^23 signed words
    g = GenSet([("x", 0), ("y", 0)])
    word = "[" * 23 + "x" + ",x]" * 23
    assert parse_element("1 " + word, g, 24).is_zero()
    assert parse_element("[y,%s] - 3 y" % word, g, 24) == -3 * generator_elt(g, 24, "y")


TOKENS = ["[", "]", ",", "+", "-", "*", "a0", "a1", "x", "q", "0", "1", "7",
          "2/3", "1/0", "3/", "/", "1/2/3", "_", "a0a1", "%", " ", "\t"]


@given(st.lists(st.sampled_from(TOKENS), max_size=24), st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_element_fuzz_returns_or_raises_parse_error(soup, spaced):
    text = (" " if spaced else "").join(soup)
    try:
        x = parse_element(text, GENS, 3)
    except ParseError:
        return
    assert x.gens is GENS and x.N == 3


# characters that start no token and whitespace outside ASCII, put
# between the tokens of a term; word characters outside ASCII, glued to its
# end; and a letter that is no generator of GENS
STRAYS = ["%", ".", "/", "?", "\u20ac", "\u00a0", "\x1c"]
GLUED = ["\u00b2", "\u00e9", "\u0663"]
LETTERS = list(GENS.names) * 3 + ["q0"]
tree_tokens = st.recursive(
    st.sampled_from(LETTERS).map(lambda a: [a]),
    lambda kids: st.tuples(kids, kids).map(
        lambda t: ["["] + t[0] + [","] + t[1] + ["]"]),
    max_leaves=6)
term_texts = st.tuples(
    st.sampled_from(["+", "-"] * 4 + [""]),
    st.one_of(st.just(""), st.integers(0, 40).map(str),
              st.tuples(st.integers(0, 40), st.integers(0, 8)).map(
                  lambda pq: "%d/%d" % pq)),
    st.booleans(), tree_tokens,
    st.one_of(st.just([]), st.tuples(st.integers(0, 12),
                                     st.sampled_from(STRAYS)).map(
        lambda t: [t])),
    st.sampled_from([""] * 6 + GLUED))


def _term_text(sign, coeff, star, toks, strays, glued, sep):
    toks = list(toks)
    for at, c in strays:
        toks.insert(at % (len(toks) + 1), c)
    return " ".join(b for b in (sign, coeff, "*" if star else "",
                                sep.join(toks) + glued) if b)


def _read(text, N, line):
    """(element, degrees) of text, or its ParseError's message and line."""
    try:
        x, degrees = serialize._parse_element(text, GENS, N, line)
    except ParseError as e:
        return str(e), e.line
    return x, degrees


def _term(toks, sign="+", coeff="", glued=""):
    return (sign, coeff, False, toks, [], glued)


WORD = ["[", "x", ",", "a0", "]"]


@given(st.lists(term_texts, min_size=1, max_size=5),
       st.sampled_from([3, 5]), st.one_of(st.none(), st.integers(1, 9)))
# after a bracket word: a missing sign, a zero denominator, a word
# character outside ASCII, and a left-normed word of N letters
@example([_term(WORD), _term(["a1"], "", "2")], 5, 4)
@example([_term(WORD, "-", "4/6"), _term(["a1"], "+", "1/0")], 5, None)
@example([_term(WORD), _term(["x"], glued="\u00b2")], 3, 2)
@example([_term(WORD), _term(["[", "[", "x", ",", "x", "]", ",", "a1", "]"])],
         3, None)
@settings(max_examples=400, deadline=None)
def test_terms_read_whole_agree_with_the_token_path(terms, N, line):
    # tabs inside every bracket keep each bracket word from being read
    # whole, so those terms and every later one are read token by token;
    # spaces there are read whole, as the compact text is; all three
    # readings give the same element and degrees, or the same error
    whole = " ".join(_term_text(*t, "") for t in terms)
    spaced = " ".join(_term_text(*t, " ") for t in terms)
    tabbed = " ".join(_term_text(*t, "\t") for t in terms)
    assert _read(whole, N, line) == _read(spaced, N, line) == _read(
        tabbed, N, line)


def test_spaced_left_normed_words_read_without_the_tokenizer(monkeypatch):
    want = _read("[x,a0] - 2 [[a1,x],a0] + 1/2 * [[[x,a0],a1],x]", 4, None)

    def refuse(text, line=None):
        raise AssertionError("tokenized %r" % text)
    monkeypatch.setattr(serialize, "_tokenize", refuse)
    for text in ("[x, a0] - 2 [[a1, x], a0] + 1/2 * [[[x, a0], a1], x]",
                 "[ x , a0 ] - 2 [ [ a1 ,x ] ,a0 ]"
                 " + 1/2 * [[[x  ,a0]  , a1] ,x]",
                 "[x ,a0] - 2 [[a1,x] , a0] + 1/2*[[ [x,a0],a1 ], x ]"):
        assert _read(text, 4, None) == want


# a generator set with a name that is no identifier: "1" reads as a number,
# never as a letter of a bracket word
ODD_NAMES = GenSet([("a0", -1), ("x", 0), ("1", 0), ("y", 0)])
ODD_LETTERS = {"a0": 0, "x": 1, "y": 3}


def _reference_word(toks, i, line):
    """(binary tree, letter count, next index) of the bracket word at
    toks[i], read by recursive descent, or the ParseError of
    _parse_bracket_word."""
    t = toks[i]
    if t == "[":
        left, n, i = _reference_word(toks, i + 1, line)
        if toks[i] != ",":
            raise serialize._expected(",", toks[i], line)
        right, m, i = _reference_word(toks, i + 1, line)
        if toks[i] != "]":
            raise serialize._expected("]", toks[i], line)
        return (left, right), n + m, i + 1
    if t is None:
        raise ParseError("unexpected end of element", line)
    if not t.isidentifier():
        raise ParseError("expected a generator or '[', got %r" % t, line)
    if t not in ODD_LETTERS:
        raise ParseError("unknown generator %r" % t, line)
    return ODD_LETTERS[t], 1, i + 1


def _spine(tree):
    """The flat left spine (t1, ..., tk) of a binary tree, its entries after
    t1 letters or such spines."""
    out = []
    while type(tree) is tuple:
        out.append(tree[1])
        tree = tree[0]
    out.append(tree)
    return tuple(t if type(t) is int else _spine(t) for t in reversed(out))


def _word_tokens(tree):
    if type(tree) is str:
        return [tree]
    return ["["] + _word_tokens(tree[0]) + [","] + _word_tokens(tree[1]) + ["]"]


word_trees = st.recursive(
    st.sampled_from(["a0", "x", "y", "x", "1", "q"]),
    lambda kids: st.one_of(st.tuples(kids, kids),
                           st.tuples(kids, st.sampled_from(["a0", "x", "y"]))),
    max_leaves=6)


@given(word_trees, st.lists(st.tuples(st.integers(0, 30), st.sampled_from(
    ["[", "]", ",", "x", "1", None])), max_size=2), st.integers(0, 3),
    st.one_of(st.none(), st.integers(1, 9)))
@example(("x", "y"), [], 0, None)
@example((("x", "y"), "a0"), [], 0, 3)
@example((("x", "y"), "1"), [], 0, None)
@example((("x", "y"), "a0"), [(9, None)], 0, None)
@example((("x", "y"), "a0"), [(4, "]")], 0, 2)
@example(("x", "y"), [(2, None), (2, "[")], 0, None)   # "[x [ y]"
@settings(max_examples=400, deadline=None)
def test_bracket_words_agree_with_recursive_descent(tree, edits, cut, line):
    # left-normed words and every other nesting, with a token put in or
    # taken out (None takes one out) and the end cut short
    toks = _word_tokens(tree)
    for at, tok in edits:
        at %= len(toks) + 1
        if tok is None:
            del toks[at:at + 1]
        else:
            toks.insert(at, tok)
    toks = toks[:len(toks) - cut] + [None]
    try:
        want = _reference_word(toks, 0, line)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            serialize._parse_bracket_word(toks, 0, ODD_NAMES, line)
        assert (str(got.value), got.value.line) == (str(e), e.line)
        return
    tree, count, end = want
    assert serialize._parse_bracket_word(toks, 0, ODD_NAMES, line) == (
        _spine(tree), count, end)


def test_names_that_are_no_identifiers_are_no_letters():
    # "1" is a generator, but inside a bracket it is a number token
    for text in ("[x, 1]", "[x, y] + [x , 1]", "x + [ 1 , x]"):
        with pytest.raises(ParseError) as e:
            parse_element(text, ODD_NAMES, 3)
        assert str(e.value) == "expected a generator or '[', got '1'"
    x = parse_element("[ x , y ] - 2 [[a0, x], y]", ODD_NAMES, 3)
    assert x == parse_element("[x,y] - 2 [[a0,x],y]", ODD_NAMES, 3)


LINES = ["dgl", "gens a0:-1 a1:-1 x:0", "gens a:-2", "gens a:x", "gens :0",
         "gens a0", "trunc 3", "trunc 0", "trunc x", "trunc 1", "# note", "",
         "d a0 = -1/2 [a0,a0]", "d a1 = 0", "d x = 1 a1 - 1 a0",
         "d x = [x,x]", "d x = 1 a0 + 1 x", "d q = 0", "d a0", "d x = [a0,",
         "d a0 = 1/0 a0", "junk"]


@given(st.lists(st.one_of(
    st.sampled_from(LINES),
    st.lists(st.sampled_from(TOKENS), max_size=12).map(
        lambda soup: "d x = " + " ".join(soup))), max_size=8),
    st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_dgl_fuzz_returns_or_raises_parse_error(lines, header):
    text = "\n".join((["dgl"] if header else []) + lines) + "\n"
    try:
        L = parse_dgl(text)
    except ParseError:
        return
    assert L.N >= 1


def _ls_like_dgl():
    g = GenSet([("a0", -1), ("a1", -1), ("x", 0)])
    N = 4
    images = {
        0: Elt.build(g, N, [((0, 0), -1)]),
        1: Elt.build(g, N, [((1, 1), -1)]),
        2: Elt.build(g, N, [((1,), 1), ((0,), -1),
                            ((2, 0), Fraction(-1, 2)), ((0, 2), Fraction(1, 2)),
                            ((2, 1), Fraction(-1, 2)), ((1, 2), Fraction(1, 2))]),
    }
    return FreeDGL(g, N, images)


def test_dgl_round_trip():
    L = _ls_like_dgl()
    text = emit_dgl(L)
    M = parse_dgl(text)
    assert M.gens == L.gens
    assert M.N == L.N
    for i in range(len(L.gens)):
        a = L.diff.images.get(i, L.zero())
        b = M.diff.images.get(i, M.zero())
        assert a == b
    assert emit_dgl(M) == text


def test_dgl_parse_error_lines():
    text = "dgl\ngens a0:-1\ntrunc 3\nd a0 = -1/2 [a0,a0]\nd a0 = 0\n"
    with pytest.raises(ParseError) as e:
        parse_dgl(text)
    assert e.value.line == 5
    with pytest.raises(ParseError) as e:
        parse_dgl("dgl\ngens a0:-1\nd a0 = 0\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_dgl("not a dgl\n")


def test_dgl_comments_and_blanks():
    L = _ls_like_dgl()
    text = emit_dgl(L)
    noisy = "# header comment\n\n" + text.replace(
        "trunc 4", "trunc 4   # truncation")
    M = parse_dgl(noisy)
    assert emit_dgl(M) == text


# digits beyond str.isdecimal (superscript, circled, Kharoshthi), decimal
# digits outside ASCII, numeric characters that are not digits (one half,
# Roman twelve), letters that are numeric (CJK one) or not Latin, whitespace
# beyond ASCII and characters that start no token
EXOTIC = ["\u00b2", "\u2460", "\U00010a40", "\u0663", "\uff11", "\u00bd",
          "\u216b", "\u4e00", "\u00e9", "\u03b1", "\u00a0", "\u2028", "/",
          "\x1c", "."]


@given(st.lists(st.one_of(st.sampled_from(TOKENS + EXOTIC), st.characters()),
                max_size=24),
       st.sampled_from(["", " "]), st.one_of(st.none(), st.integers(1, 9)))
@settings(max_examples=500, deadline=None)
def test_tokens_match_the_character_scan(soup, sep, line):
    text = sep.join(soup)
    toks, stray = scan_tokens(text)
    if stray is None:
        assert _tokenize(text, line) == toks
        return
    with pytest.raises(ParseError) as e:
        _tokenize(text, line)
    assert e.value.line == line
    assert str(e.value) == ParseError(
        "unexpected character %r" % stray, line).args[0]


def test_parse_dgl_rejects_names_the_element_parser_cannot_read():
    with pytest.raises(ParseError) as e:
        parse_dgl("dgl\ngens 1a:-1 b-c:0\ntrunc 2\n")
    assert e.value.line == 2 and "'1a'" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_dgl("dgl\n# names\ngens a:-1 b-c:0\ntrunc 2\nd b-c = 1 a\n")
    assert e.value.line == 3 and "'b-c'" in str(e.value)
    for name in ("a\u00b2", "7", "x.y", "[a]"):
        with pytest.raises(ParseError):
            parse_dgl("dgl\ngens %s:0\ntrunc 2\n" % name)
    L = parse_dgl("dgl\ngens _:-1 \u03b1_1:0\ntrunc 2\nd \u03b1_1 = 1 _\n")
    assert L.gens.names == ("_", "\u03b1_1") and 1 in L.diff.images


NAME_CHARS = st.one_of(st.sampled_from(list("ab_019-[],+*/.") + EXOTIC[:10]),
                       st.characters(exclude_characters=":#"))


@given(st.text(NAME_CHARS, min_size=1, max_size=6),
       st.text(NAME_CHARS, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_accepted_generator_names_survive_a_round_trip(a, b):
    try:
        gens = parse_dgl("dgl\ngens %s:-1 %s:0\ntrunc 2\n" % (a, b)).gens
    except ParseError:
        return
    images = {1: Elt(gens, 2, {(0,): Fraction(1)})}
    L = FreeDGL(gens, 2, images)
    M = parse_dgl(emit_dgl(L))
    assert M.gens == L.gens
    assert M.diff.images.keys() == L.diff.images.keys()
    for i, img in L.diff.images.items():
        assert M.diff.images[i] == img


GENS_LINE = "dgl\ngens a:-1 x:0\ntrunc 2\n"


@pytest.mark.parametrize("text, line, message", [
    ("dgl\ngens a:-1\ngens x:0\ntrunc 2\n", 3, "duplicate gens line"),
    ("dgl\ngens a:-1 x:zero\ntrunc 2\n", 2, "bad degree in 'x:zero'"),
    ("dgl\ngens a:-1\ntrunc 2\ntrunc 3\n", 4, "duplicate trunc line"),
    ("dgl\ngens a:-1\ntrunc two\n", 3, "bad truncation 'two'"),
    ("dgl\ngens a:-1\ntrunc 0\n", 3, "truncation must be >= 1"),
    (GENS_LINE + "d x 1 a\n", 4, "expected 'd <name> = <element>'"),
    (GENS_LINE + "d y = 1 a\n", 4, "unknown generator 'y'"),
    ("dgl\ngens a:-1\n", None, "missing trunc line"),
    # an image of the wrong degree, or of no one degree, names its own line
    ("dgl\ngens a:0 b:0\ntrunc 2\nd a = 1 b\n", 4,
     "image of a must have degree -1, got 0"),
    (GENS_LINE + "# the image\nd x = 1 a + 1 x\n", 5,
     "element is not degree-homogeneous"),
])
def test_parse_dgl_refusals(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_dgl(text)
    assert e.value.line == line
    assert str(e.value) == (
        message if line is None else "line %d: %s" % (line, message))


@pytest.mark.parametrize("body, message", [
    # a left-normed word and a nesting of two degrees
    ("d x = 1 [a,[a,x]] + 1 x", "element is not degree-homogeneous"),
    # two nestings of two degrees, one of them the image's
    ("d t = 1 [a,[x,t]] + 1 [x,[x,a]]", "element is not degree-homogeneous"),
    # a left-normed word and a nesting of one wrong degree
    ("d a = 1 [x,a] + 2 [x,[x,a]]", "image of a must have degree -2, got -1"),
])
def test_parse_dgl_refuses_parts_of_other_degrees_on_their_line(body, message):
    with pytest.raises(ParseError) as e:
        parse_dgl("dgl\ngens a:-1 x:0 t:1\ntrunc 3\n# the image\n" + body)
    assert e.value.line == 5
    assert str(e.value) == "line 5: " + message


def test_parse_dgl_reads_parts_of_other_degrees_that_vanish():
    # [a,[a,a]] = 0 for a odd, and x - x = 0: only a's part is left
    L = parse_dgl("dgl\ngens a:-1 x:0 t:1\ntrunc 3\n"
                  "d x = 1 a + 1 [a,[a,a]]\nd a = 1 x - 1 x\n")
    assert L.diff.images == {1: parse_element("a", L.gens, 3)}
