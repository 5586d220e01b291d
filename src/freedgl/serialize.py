"""Text serialization of Lie elements and free DGLs.

An element is emitted as a signed sum of terms "p/q <bracket word>", where
the bracket word is fully left-nested: the length-n tensor part with
coefficients c_w becomes sum over words w of (c_w / n) [[...[w1,w2],...],wn].
For Lie elements this is exact (left-to-right bracketing recovers n times the
length-n part), so parse(emit(x)) == x bit for bit.  Non-Lie inputs are
refused rather than silently projected, by a Dynkin check that reads the
verdict an element keeps (bch and parse_element return elements that carry
one).  The parser reads any two-argument nesting into a tree of flat left
spines, so a left-normed bracket (all that emit_element writes) arrives as
its word: those words are pooled into one merged Dynkin map,
lie._theta_words, and the other trees are expanded by lie.bracket_words.
A bracket word with more than N letters parses to 0 at truncation N.
Coefficients are read and written as ints, with no Fraction per term.

A DGL file is line-based:

    dgl
    gens a0:-1 a1:-1 x:0
    trunc 6
    d a0 = -1/2 [a0,a0]
    d x = 1 a1 - 1 a0 + ...

Comments start with '#'; blank lines are ignored.  Parse errors carry the
1-based line number.
"""

import re
from math import gcd, lcm

from .lie import (
    ConfigError, DomainError, StructError,
    GenSet, Elt, FreeDGL, _combine, _theta_words, bracket_words, dynkin_verify,
)


class ParseError(ValueError):
    """Malformed input text; .line is the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Elements


def emit_element(x):
    """Serialize a Lie element; deterministic term order (length, then word).
    Word w with numerator n is written as n / (den len w) in lowest terms,
    then its left-normed bracket.  The words are grouped by length, so each
    length's denominator and opening brackets are formed once."""
    ok, defects = dynkin_verify(x)
    if not ok:
        raise DomainError(
            "cannot serialize: not a Lie element (defect at lengths %s)"
            % [n for n, _ in defects])
    num = x.num
    if not num:
        return "0"
    names = x.gens.names
    tails = [",%s]" % name for name in names]
    by_length = {}
    for w in num:
        by_length.setdefault(len(w), []).append(w)
    bits = []   # the sign and the term of each word, in turn
    for k in sorted(by_length):
        q = x.den * k
        opening = "[" * (k - 1)
        for w in sorted(by_length[k]):
            n = num[w]
            bits.append("-" if n < 0 else "+")
            n = abs(n)
            g = gcd(n, q)
            c = "%d" % (n // g) if q == g else "%d/%d" % (n // g, q // g)
            bits.append("%s %s%s%s" % (c, opening, names[w[0]],
                                       "".join([tails[i] for i in w[1:]])))
    text = " ".join(bits)
    # the first sign is a bare minus or nothing
    return "-" + text[2:] if text[0] == "-" else text[2:]


# a token is a punctuation mark, a number (a digit, then digits and '/') or
# an identifier (a letter or '_', then word characters).  \w is str.isalnum
# or '_', but \d is only str.isdecimal, so the digits beyond it (superscripts,
# circled digits, ...) and the numeric characters that are not letters are
# filled in from the text at hand.
_TOKEN = (r"[\[\],+*-]|[\d%(digit)s][\d/%(digit)s]*"
          r"|[^\W\d%(digit)s%(numeric)s]\w*")
# ASCII text has no such characters, and on it re.ASCII classes match the
# same characters, faster
_ASCII_TOKEN = re.compile(_TOKEN % {"digit": "", "numeric": ""}, re.ASCII)


def _token_pattern(text):
    if text.isascii():
        return _ASCII_TOKEN
    chars = set(text)
    digit = "".join(sorted(c for c in chars
                           if c.isdigit() and not c.isdecimal()))
    numeric = "".join(sorted(c for c in chars if c.isnumeric()
                             and not c.isdigit() and not c.isalpha()))
    return re.compile(_TOKEN % {"digit": digit, "numeric": numeric})


def _tokenize(text, line=None):
    """The tokens of text, in order."""
    pattern = _token_pattern(text)
    toks = pattern.findall(text)
    # findall steps over what starts no token: whitespace, and the characters
    # that are errors, which the tokens then fail to cover
    if sum(map(len, toks)) != len("".join(text.split())):
        stray = pattern.sub(" ", text).split()[0][0]
        raise ParseError("unexpected character %r" % stray, line)
    return toks


def _expected(tok, got, line):
    """The ParseError for reading got (None past the end) where tok must be."""
    if got is None:
        return ParseError("unexpected end of element", line)
    return ParseError("expected %r, got %r" % (tok, got), line)


def _parse_scalar(tok, line):
    """(p, q) of the rational tok, "p" or "p/q", as ints with q > 0; not
    reduced."""
    p, slash, q = tok.partition("/")
    try:
        p, q = int(p), int(q) if slash else 1
    except ValueError:
        q = 0   # refused below, as a zero denominator is
    if not q:
        raise ParseError("bad rational %r" % tok, line)
    return p, q


def _parse_bracket_word(toks, i, gens, line):
    """(tree, letter count, next index) of the bracket word at toks[i]; toks
    ends with None.  The tree is the tuple (t1, ..., tk) of the left spine
    [[t1, t2], ..., tk], with t1 a letter and the other ti letters or such
    tuples, as lie.bracket_words reads it; a left-normed word is the tuple
    of its letters.  Brackets are read with an explicit stack, so deep
    nesting does not recurse."""
    stack = []   # per open bracket: None, or the left spine read so far
    count = 0
    index = gens._index
    while True:
        t = toks[i]
        i += 1
        if t == "[":
            stack.append(None)
            continue
        if t is None:
            raise ParseError("unexpected end of element", line)
        if not t.isidentifier():
            raise ParseError("expected a generator or '[', got %r" % t, line)
        tree = index.get(t)
        if tree is None:
            raise ParseError("unknown generator %r" % t, line)
        count += 1
        while stack and stack[-1] is not None:
            if toks[i] != "]":
                raise _expected("]", toks[i], line)
            i += 1
            spine = stack.pop()
            spine.append(tree if type(tree) is int else tuple(tree))
            tree = spine
        if type(tree) is int:
            tree = [tree]
        if not stack:
            return tuple(tree), count, i
        if toks[i] != ",":
            raise _expected(",", toks[i], line)
        i += 1
        stack[-1] = tree


def _readable(name):
    """Whether parse_element reads name as one generator."""
    try:
        return _tokenize(name) == [name] and name.isidentifier()
    except ParseError:
        return False


def parse_element(text, gens, N, line=None):
    """Parse an element expression over the given generators at truncation N.

    Accepts any two-argument bracket nesting, not only the left-nested form
    the emitter produces.  Words with more than N letters are 0 and skipped.
    The numerators p of the coefficients p/q are summed over the lcm of the
    q.  The result, theta of the left-normed words plus the other bracket
    trees, is Lie by construction and is returned marked as one.
    """
    toks = _tokenize(text, line)
    if not toks:
        raise ParseError("empty element", line)
    if toks == ["0"]:
        return Elt(gens, N, {})
    toks.append(None)   # the end
    terms = []   # (signed p, q, tree, letters) of each word of <= N letters
    i = 0
    while toks[i] is not None:
        t = toks[i]
        sign = 1
        if i or t in ("+", "-"):
            if t not in ("+", "-"):
                raise ParseError("expected '+' or '-', got %r" % t, line)
            sign = -1 if t == "-" else 1
            i += 1
        p, q = 1, 1
        t = toks[i]
        if t is not None and t[0].isdigit():
            p, q = _parse_scalar(t, line)
            i += 2 if toks[i + 1] == "*" else 1
        tree, count, i = _parse_bracket_word(toks, i, gens, line)
        if count <= N:
            terms.append((sign * p, q, tree, count))
    D = lcm(*[q for _, q, _, _ in terms])
    # a left-normed word, a tuple of letters, is theta of its word, so these
    # are pooled into one merged Dynkin map; every other nesting is expanded
    # on its own
    degs = gens.degrees
    words = {}
    items = []
    for p, q, tree, count in terms:
        if len(tree) == count:
            words[tree] = words.get(tree, 0) + p * (D // q)
        else:
            items.append((p, q, bracket_words(tree, degs)[0]))
    items.append((1, D, _theta_words(words, degs)))
    x = _combine(gens, N, items)
    x._lie = True
    return x


# ---------------------------------------------------------------------------
# DGL files


def emit_dgl(L):
    """Serialize a free DGL; one 'd' line per generator, in generator order."""
    gens = L.gens
    lines = ["dgl"]
    lines.append("gens " + " ".join(
        "%s:%d" % (n, d) for n, d in zip(gens.names, gens.degrees)))
    lines.append("trunc %d" % L.N)
    for i, name in enumerate(gens.names):
        img = L.diff.images.get(i)
        if img is None:
            img = Elt(gens, L.N, {})
        lines.append("d %s = %s" % (name, emit_element(img)))
    return "\n".join(lines) + "\n"


def parse_dgl(text):
    """Parse a DGL file back into a FreeDGL."""
    gens = None
    N = None
    raw_d = []
    stage = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if stage == 0:
            if line != "dgl":
                raise ParseError("expected 'dgl' header", lineno)
            stage = 1
            continue
        if line.startswith("gens "):
            if gens is not None:
                raise ParseError("duplicate gens line", lineno)
            pairs = []
            for item in line[5:].split():
                if ":" not in item:
                    raise ParseError("expected name:degree, got %r" % item, lineno)
                name, _, deg = item.rpartition(":")
                try:
                    deg = int(deg)
                except ValueError:
                    raise ParseError("bad degree in %r" % item, lineno) from None
                if not _readable(name):
                    raise ParseError(
                        "generator name %r cannot be read in an element" % name,
                        lineno)
                pairs.append((name, deg))
            try:
                gens = GenSet(pairs)
            except (StructError, DomainError) as e:
                raise ParseError(str(e), lineno) from None
            continue
        if line.startswith("trunc "):
            if N is not None:
                raise ParseError("duplicate trunc line", lineno)
            try:
                N = int(line[6:])
            except ValueError:
                raise ParseError("bad truncation %r" % line[6:], lineno) from None
            if N < 1:
                raise ParseError("truncation must be >= 1", lineno)
            continue
        if line.startswith("d "):
            if gens is None or N is None:
                raise ParseError("'d' line before gens/trunc", lineno)
            body = line[2:]
            if "=" not in body:
                raise ParseError("expected 'd <name> = <element>'", lineno)
            name, _, expr = body.partition("=")
            name = name.strip()
            try:
                idx = gens.index(name)
            except StructError:
                raise ParseError("unknown generator %r" % name, lineno) from None
            raw_d.append((lineno, idx, expr.strip()))
            continue
        raise ParseError("unrecognized line %r" % line, lineno)
    if gens is None:
        raise ParseError("missing gens line")
    if N is None:
        raise ParseError("missing trunc line")
    images = {}
    for lineno, idx, expr in raw_d:
        if idx in images:
            raise ParseError("duplicate differential for %r" % gens.names[idx],
                             lineno)
        img = parse_element(expr, gens, N, line=lineno)
        if not img.is_zero():
            images[idx] = img
    try:
        return FreeDGL(gens, N, images)
    except (DomainError, StructError, ConfigError) as e:
        raise ParseError(str(e)) from None
