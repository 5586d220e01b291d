"""Text serialization of Lie elements and free DGLs.

An element is emitted as a signed sum of terms "p/q <bracket word>", where
the bracket word is fully left-nested: the length-n tensor part with
coefficients c_w becomes sum over words w of (c_w / n) [[...[w1,w2],...],wn].
For Lie elements this is exact (left-to-right bracketing recovers n times the
length-n part), so parse(emit(x)) == x bit for bit.  Non-Lie inputs are
refused rather than silently projected, by a Dynkin check that reads the
verdict an element keeps (bch and parse_element return elements that carry
one).  The emitter builds each bracket string from its prefix's string.

The parser reads each term as emit_element writes it (a sign, a
coefficient and a left-normed bracket over ASCII names, also with spaces
beside its brackets and commas) whole, with one pattern match, as its list
of letters.  From the first term the pattern does not read, the rest of the
text is tokenized and each bracket word read into a tree of flat left
spines; a left-normed word is its list of letters.
The left-normed words are coded by lie._code and pooled into one coded
Dynkin map, lie._theta_coded, whose result is decoded once; any other
nesting is expanded by lie.bracket_words.  A bracket word with more than N
letters parses to 0 at truncation N, and is not coded.  Coefficients are
read and written as ints, with no Fraction per term.

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
    DomainError, StructError,
    GenSet, Elt, FreeDGL, _check_image, _combine, _decode, _theta_coded,
    _code, bracket_words, dynkin_verify,
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
    then its left-normed bracket.  The words are grouped by length; within
    one call each distinct numerator of a length is formatted once, and each
    bracket string is its prefix's string plus one tail, so a prefix shared
    by many words is written once."""
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
    # the bracket string of each word and prefix so far, without its
    # opening brackets: w1,w2],...,wn]
    bodies = {(i,): name for i, name in enumerate(names)}
    by_length = {}
    for w in num:
        by_length.setdefault(len(w), []).append(w)
    bits = []   # the signed coefficient and the bracket string of each word
    for k in sorted(by_length):
        q = x.den * k
        opening = "[" * (k - 1)
        heads = {}   # numerator -> " + c [[" or " - c [["
        for w in sorted(by_length[k]):
            n = num[w]
            head = heads.get(n)
            if head is None:
                a = abs(n)
                g = gcd(a, q)
                c = "%d" % (a // g) if q == g else "%d/%d" % (a // g, q // g)
                head = heads[n] = "%s %s %s" % (
                    " -" if n < 0 else " +", c, opening)
            bits.append(head)
            if k == 1:
                bits.append(names[w[0]])
                continue
            prefix = w[:-1]
            body = bodies.get(prefix)
            if body is None:   # a prefix that is no word of x
                body = bodies[prefix] = names[w[0]] + "".join(
                    [tails[i] for i in prefix[1:]])
            body = bodies[w] = body + tails[w[-1]]
            bits.append(body)
    text = "".join(bits)
    # the first sign is a bare minus or nothing
    return "-" + text[3:] if text[1] == "-" else text[3:]


# one term as emit_element writes it: an optional sign, an optional
# coefficient p or p/q with an optional '*', m opening brackets, a letter,
# then tails ',letter]', whose count the reader compares with m.  Spaces
# beside '[', ',' and ']' separate no tokens, so a bracket word with such
# spaces is read too, by a second alternative that the emitter's text never
# reaches.  The term ends where a token ends: at whitespace, a sign or the
# end of the text, and not before a ',' or ']' that spaces put off.
_TERM = re.compile(
    r"\s*(?:([+-])\s*)?(?:(\d+)(?:/(\d+))?\s*(?:\*\s*)?)?"
    r"(?:(\[*)([A-Za-z_]\w*)((?:,[A-Za-z_]\w*\])*)"
    r"|((?:\[ *)+)([A-Za-z_]\w*)((?: *, *[A-Za-z_]\w* *\])+))"
    r"(?![^\s+-]| *[,\]])\s*", re.ASCII)


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
    return (name.isidentifier()
            and _token_pattern(name).fullmatch(name) is not None)


def parse_element(text, gens, N, line=None):
    """Parse an element expression over the given generators at truncation N.

    Accepts any two-argument bracket nesting, not only the left-nested form
    the emitter produces.  Words with more than N letters are 0 and skipped.
    The numerators p of the coefficients p/q are summed over the lcm of the
    q.  The result, theta of the left-normed words plus the other bracket
    trees, is Lie by construction and is returned marked as one.

    Each term as emit_element writes it (a left-normed word over ASCII
    generator names, with a nonzero denominator), also with spaces beside
    its brackets and commas, is read whole by one pattern match; from the
    first term that is not, the rest of the text is tokenized and read token
    by token, so errors and their messages are the tokenizer's and
    _parse_bracket_word's.
    """
    return _parse_element(text, gens, N, line)[0]


def _parse_element(text, gens, N, line=None):
    """parse_element's element and the set of the degrees of its parsed
    parts (its words and bracket words of at most N letters), which holds
    the degree of every word of the element."""
    # strip drops the whitespace the tokenizer skips, so these are the texts
    # it reads as no tokens and as the one token "0"
    bare = text.strip()
    if not bare:
        raise ParseError("empty element", line)
    if bare == "0":
        return Elt(gens, N, {}), set()
    index = gens._index
    # (signed p, q, letters) of each left-normed word and (signed p, q,
    # expansion) of each other bracket word, of <= N letters
    terms = []
    trees = []
    degrees = set()
    match = _TERM.match
    pos = 0
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            break
        sign, p, q, opening, head, tails, sopening, shead, stails = m.groups()
        if opening is None:   # a bracket word with spaces
            opening = sopening.replace(" ", "")
            head, tails = shead, stails.replace(" ", "")
        if sign is None and pos:
            break   # a missing sign
        try:
            p = int(p) if p else 1
            q = int(q) if q else 1
            letters = [index[head]]
            if tails:
                letters += map(index.__getitem__, tails[1:-1].split("],"))
        except (ValueError, KeyError):   # too many digits, or no generator
            break
        if not q or len(letters) != len(opening) + 1:
            break   # a zero denominator, or another nesting
        if len(letters) <= N:
            terms.append((-p if sign == "-" else p, q, letters))
        pos = m.end()
    if pos < len(text):
        toks = _tokenize(text[pos:], line)
        toks.append(None)   # the end
        degs = gens.degrees
        i = 0
        while toks[i] is not None:
            t = toks[i]
            sign = 1
            if pos or i or t in ("+", "-"):
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
            if count > N:
                continue
            if count == len(tree):   # a left-normed word: its letters
                terms.append((sign * p, q, tree))
            else:
                expansion, d = bracket_words(tree, degs)
                trees.append((sign * p, q, expansion))
                degrees.add(d)
    D = lcm(*[q for _, q, _ in terms])
    # a left-normed word is theta of its word, so these are pooled into one
    # coded Dynkin map; every other nesting is expanded on its own
    words = _code([(letters, p * (D // q)) for p, q, letters in terms], gens)
    theta = _theta_coded(words, gens)
    trees.append((1, D, _decode(theta.values(), gens, N)))
    x = _combine(gens, N, trees)
    x._lie = True
    degrees.update(d for _, d in words)
    return x, degrees


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
    """Parse a DGL file back into a FreeDGL.  Every image is degree-checked
    on its own 'd' line, so the FreeDGL is built trusted."""
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
        img, degrees = _parse_element(expr, gens, N, lineno)
        # when every part has the image's degree, so has every word, and no
        # word's degree is summed again; parts of other degrees are left to
        # _check_image, which names the degree or the mix
        if degrees != {gens.degrees[idx] - 1}:
            try:
                _check_image(gens, idx, img, -1)
            except DomainError as e:
                raise ParseError(str(e), lineno) from None
        if not img.is_zero():
            images[idx] = img
    return FreeDGL._trusted(gens, N, images)
