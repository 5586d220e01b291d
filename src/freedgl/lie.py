"""Exact graded Lie algebra arithmetic over Q.

Elements of a free graded Lie algebra on named generators are stored by their
image in the tensor algebra: integer numerators of words (tuples of generator
indices) over one positive denominator, in lowest terms, so that every
operation runs on ints and builds no Fraction; the word -> Fraction view is
built on demand.  The bracket is

    [x, y] = x.y - (-1)^{|x||y|} y.x

applied word by word, so inhomogeneous elements work.  Everything is computed
modulo words of length > N for a truncation N fixed at construction; mixing
truncations or generator sets is a hard error, never a silent coercion, and
_check_frame is the one place that refuses it.

Lie membership and canonical coordinates use two classical tools:

  * the Dynkin map theta (left-to-right bracketing), with theta(x_n) = n*x_n
    characterizing Lie elements among length-n tensors; the check runs on
    the numerators (it is scale-invariant), over the whole element at once
    on words coded as ints by _theta_coded, which also expands the
    left-normed brackets that serialize.parse_element reads, each handed
    over as its word, and checks series.bch's log before it is decoded;
  * the Lyndon-Shirshov basis of lyndon_slice_basis: standard bracketings b_w
    of Lyndon words w, plus [b_w, b_w] for w of odd total degree.
    b_w = w + (lex-higher words) and [b_w, b_w] = 2*ww + (lex-higher), so
    coordinate extraction is triangular on leading words.  _SliceLayout
    is the one owner of slice coordinates: the slices of one degree and
    given lengths as one basis with one lead index, read by homology's
    chain spaces, pi_1 and the builders' length stages.  Its columns is
    the one reader of a derivation's matrix: a Lie element of the span is
    fixed by its coefficients on the lead words, so the matrix of d, or
    of its linear part d1, comes off the lead words alone, with no d(x)
    built.

Degrees are integers >= -1.  Degree -2 or lower is rejected at construction.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class ConfigError(ValueError):
    """Mismatched generator sets or truncations."""


class DomainError(ValueError):
    """An argument fails a degree or well-formedness precondition."""


class StructError(ValueError):
    """A structural defect: missing differential entry, bad generator."""


class SolveError(RuntimeError):
    """A length-stage linear solve had no solution; carries the witness."""


ZERO = Fraction(0)
ONE = Fraction(1)


def _q(x):
    """Coerce to Fraction, rejecting floats (exact arithmetic only)."""
    if isinstance(x, float):
        raise DomainError("floating point coefficients are not allowed: %r" % (x,))
    return Fraction(x)


class GenSet:
    """An ordered set of named graded generators.

    The order of the tuple is the total order used for Lyndon words and for
    every deterministic choice downstream, so two algebras built with the
    same (name, degree) list behave identically.
    """

    __slots__ = ("names", "degrees", "_index", "_basis_cache")

    def __init__(self, pairs):
        names = []
        degrees = []
        seen = set()
        for name, deg in pairs:
            if not isinstance(name, str) or not name:
                raise StructError("generator name must be a nonempty string: %r" % (name,))
            if name in seen:
                raise StructError("duplicate generator name %r" % name)
            if deg < -1:
                raise DomainError("generator %r has degree %d < -1" % (name, deg))
            seen.add(name)
            names.append(name)
            degrees.append(int(deg))
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._basis_cache = {}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (isinstance(other, GenSet)
                and self.names == other.names and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        return "GenSet(%s)" % ", ".join(
            "%s:%d" % (n, d) for n, d in zip(self.names, self.degrees))

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise StructError("unknown generator %r" % name) from None

    def degree_of_word(self, word):
        degs = self.degrees
        return sum(degs[i] for i in word)

    def word_str(self, word):
        return ".".join(self.names[i] for i in word)


def _check_truncation(N):
    if N < 1:
        raise ConfigError("truncation must be >= 1, got %d" % N)


def _check_frame(x, gens, N=None):
    """Refuse x unless it is over gens and, when N is given, at truncation
    N: the one check of a foreign generator set or truncation."""
    if x.gens is not gens and x.gens != gens:
        raise ConfigError("elements over different generator sets")
    if N is not None and x.N != N:
        raise ConfigError("mixed truncations: %d vs %d" % (x.N, N))


class Elt:
    """A truncated tensor-algebra element carrying a Lie element.

    Stored as integer numerators over one denominator: num maps words
    (tuples of generator indices, length 1..N) to nonzero ints and den is a
    positive int with gcd(den, *num.values()) == 1, so equal elements have
    equal (num, den).  terms, the word -> Fraction dict, is built on first
    read and cached; Elt(gens, N, terms) takes such a dict (int values are
    read as integers) and refuses the empty word, letters outside gens and
    words longer than N.  The kernels of this module and its users read num
    and den and build results through _from_num, which normalizes once.
    Instances are immutable by convention: no operation mutates the num or
    terms dict of an input, so these dicts may be shared, and an element
    may keep its Dynkin verdict: _lie is set by the first dynkin_verify
    that passes, or by serialize.parse_element, whose results are Lie by
    construction.  A failing verdict is never stored.
    """

    __slots__ = ("gens", "N", "num", "den", "_terms", "_lie")

    def __init__(self, gens, N, terms=None):
        _check_truncation(N)
        self.gens = gens
        self.N = N
        self._lie = False
        if not terms:
            self.num, self.den, self._terms = {}, 1, None
            return
        if not all(type(c) is Fraction and c for c in terms.values()):
            terms = {w: _q(c) for w, c in terms.items()}
            terms = {w: c for w, c in terms.items() if c}
        n = len(gens)
        for w in terms:
            if not w:
                raise StructError("the empty word is not a Lie element")
            if len(w) > N:
                raise ConfigError("element does not fit in truncation %d" % N)
            if not all(0 <= i < n for i in w):
                raise StructError("word %r has a letter that is not a generator"
                                  % (w,))
        self.num, self.den = clear_denominators(terms)
        self._terms = terms

    @classmethod
    def _from_num(cls, gens, N, num, den):
        """The element num/den, for a word->int dict num and a positive int
        den: zero numerators are dropped and the gcd of den and the
        numerators is divided out.  num is kept, not copied, when it is
        already canonical."""
        if 0 in num.values():
            num = {w: c for w, c in num.items() if c}
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {w: c // g for w, c in num.items()}
                den //= g
        x = object.__new__(cls)
        x.gens = gens
        x.N = N
        x.num = num
        x.den = den
        x._terms = None
        x._lie = False
        return x

    @property
    def terms(self):
        """The word -> Fraction dict, built on first read."""
        terms = self._terms
        if terms is None:
            D = self.den
            terms = self._terms = (
                {w: Fraction(c) for w, c in self.num.items()} if D == 1 else
                {w: Fraction(c, D) for w, c in self.num.items()})
        return terms

    @classmethod
    def build(cls, gens, N, items):
        """Construct from (word, coeff) pairs, dropping zeros and long words."""
        terms = {}
        for word, c in items:
            c = _q(c)
            if c == 0 or len(word) > N:
                continue
            word = tuple(word)
            acc = terms.get(word, ZERO) + c
            if acc == 0:
                terms.pop(word, None)
            else:
                terms[word] = acc
        return cls(gens, N, terms)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, Elt):
            return NotImplemented
        _check_frame(self, other.gens, other.N)
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __add__(self, other):
        _check_frame(self, other.gens, other.N)
        return linear_combination(self.gens, self.N, ((1, self), (1, other)))

    def __sub__(self, other):
        _check_frame(self, other.gens, other.N)
        return linear_combination(self.gens, self.N, ((1, self), (-1, other)))

    def __neg__(self):
        return Elt._from_num(self.gens, self.N,
                             {w: -c for w, c in self.num.items()}, self.den)

    def __mul__(self, scale):
        scale = _q(scale)
        p = scale.numerator
        return Elt._from_num(self.gens, self.N,
                             {w: p * c for w, c in self.num.items()} if p
                             else {},
                             self.den * scale.denominator)

    __rmul__ = __mul__

    def __repr__(self):
        return "Elt(%s)" % self.pretty()

    def pretty(self, max_terms=12):
        if not self.num:
            return "0"
        terms = self.terms
        bits = []
        for w in sorted(terms, key=lambda w: (len(w), w)):
            bits.append("%s*%s" % (terms[w], self.gens.word_str(w)))
            if len(bits) >= max_terms:
                bits.append("... (%d terms)" % len(terms))
                break
        return " + ".join(bits)

    def degree(self):
        """Common degree of all words, or None for the zero element."""
        deg = None
        for w in self.num:
            d = self.gens.degree_of_word(w)
            if deg is None:
                deg = d
            elif d != deg:
                raise DomainError("element is not degree-homogeneous")
        return deg

    def has_degree(self, d):
        """True if every word has degree d (vacuously true for 0)."""
        return all(self.gens.degree_of_word(w) == d for w in self.num)

    def length_part(self, k):
        return Elt._from_num(self.gens, self.N, {
            w: c for w, c in self.num.items() if len(w) == k}, self.den)

    def truncated(self, M):
        """Drop words longer than M.  M may not exceed the current truncation."""
        _check_truncation(M)
        if M > self.N:
            raise ConfigError(
                "cannot raise truncation from %d to %d" % (self.N, M))
        return Elt._from_num(self.gens, M, {
            w: c for w, c in self.num.items() if len(w) <= M}, self.den)

    def at_truncation(self, N):
        """Reinterpret at truncation N >= every stored word length."""
        _check_truncation(N)
        if self.num and max(len(w) for w in self.num) > N:
            raise ConfigError("element does not fit in truncation %d" % N)
        return Elt._from_num(self.gens, N, self.num, self.den)

    def letters(self):
        return set().union(*self.num)

    def support_in(self, allowed):
        """True if every letter of every word lies in the allowed index set."""
        return self.letters() <= set(allowed)


def generator_elt(gens, N, name):
    _check_truncation(N)
    return Elt._from_num(gens, N, {(gens.index(name),): 1}, 1)


def zero_elt(gens, N):
    _check_truncation(N)
    return Elt._from_num(gens, N, {}, 1)


def linear_combination(gens, N, pairs):
    """sum(c * x for c, x in pairs) over gens at truncation N: one integer
    accumulation of the numerators over the lcm of the denominators, and
    one normalization."""
    items = []
    for c, x in pairs:
        _check_frame(x, gens, N)
        if type(c) is int:
            p, q = c, 1
        else:
            c = _q(c)
            p, q = c.numerator, c.denominator
        if p and x.num:
            items.append((p, q * x.den, x.num))
    return _combine(gens, N, items)


def _combine(gens, N, items):
    """sum(p * num / den for p, den, num in items) over gens at truncation
    N, for int p, positive int den and word->int dicts num: one integer
    accumulation over the lcm of the dens, and one normalization.  A lone
    item with p = 1 is not copied: the result may share its num."""
    if len(items) == 1 and items[0][0] == 1:
        return Elt._from_num(gens, N, items[0][2], items[0][1])
    D = lcm(*[den for _, den, _ in items]) if items else 1
    out = {}
    get = out.get
    for p, den, num in items:
        s = p * (D // den)
        for w, c in num.items():
            out[w] = get(w, 0) + s * c
    return Elt._from_num(gens, N, out, D)


def concat_terms(a, b, N, out=None, scale=ONE):
    """Concatenation product of two word->coeff dicts, truncated at N.

    Accumulates into out if given.  No package code calls it, and it stays
    only while perfbench's LAYERS names it.
    """
    if out is None:
        out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) > N:
                continue
            w = u + v
            acc = out.get(w, ZERO) + cu * cv * scale
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
    return out


# ---------------------------------------------------------------------------
# Integer word kernel: word->int dicts holding numerators over one common
# denominator that the caller keeps, as in an Elt's (num, den).  Every Elt
# operation runs on it, and two loops are written once: _bracket_into, the
# bracket rule on two sequences of (word, int) items, for bracket,
# bracket_words and series' adjoint powers; and _combine, the weighted sum
# over the lcm of the denominators, for the arithmetic above, Substitution,
# elt_from_slice_coords, parse_element, the adjoint series and
# minimal_model's partner images.  bracket buckets its right factor's words
# by length (word_buckets), so only the pairs that fit in N are visited.
# Words may also be coded as ints, by the one code/decode pair _code and
# _decode: code(w) = sum of (w[i] + 1) B^(n-1-i) for a word of length n and
# B = len(gens) + 1, so code(uv) = code(u) B^|v| + code(v) and a code's
# last letter is code % B - 1.  _code groups the words by (length, degree),
# summing each word's degree once.  series.bch's exp, products and log run
# on coded numerators; the Dynkin map _theta_coded runs on the groups, for
# dynkin_theta, dynkin_verify, bch's check of its log and the left-normed
# words that parse_element reads; and each result is decoded once, a
# failing dynkin_verify decoding only its residues.  Fractions are built
# only where an answer leaves as one: Elt.terms, the public
# slice_coordinates and class_coords.


def clear_denominators(terms):
    """(numerators, D): terms[w] == Fraction(numerators[w], D) for every w,
    with D the lcm of the denominators of terms (1 for an empty dict)."""
    D = lcm(*[c.denominator for c in terms.values()]) if terms else 1
    return {w: c.numerator * (D // c.denominator) for w, c in terms.items()}, D


def word_buckets(items, N):
    """fits[r] lists the items of length <= r, r = 0..N, in their given
    order, filled in one pass; an item is a tuple whose first entry is its
    word, such as the (word, coeff) items of a dict.

    Multiplying onto a left word u needs only fits[N - len(u)], so pairs
    longer than N are never visited."""
    fits = [[] for _ in range(N + 1)]
    for item in items:
        for r in range(len(item[0]), N + 1):
            fits[r].append(item)
    return fits


def _bracket_into(out, a, b, s):
    """Add A.B + s * B.A into the word->int dict out, for sequences a and b
    of (word, int) items (lists or dict item views) whose every pair fits:
    the one loop of the bracket rule, with s = -(-1)^{|u||v|} for the
    degrees of a's and b's words."""
    get = out.get
    for u, cu in a:
        for v, cv in b:
            c = cu * cv
            w = u + v
            out[w] = get(w, 0) + c
            w = v + u
            out[w] = get(w, 0) + s * c


def bracket(x, y):
    """Graded Lie bracket [x, y] = xy - (-1)^{|x||y|} yx, word by word, on
    the numerators over the product of the denominators.  x's words are
    grouped by length and parity, y's bucketed by length within each
    parity, so each _bracket_into call visits only pairs that fit in N."""
    _check_frame(x, y.gens, y.N)
    N = x.N
    deg = x.gens.degrees.__getitem__
    groups = {}   # x's words by 2 * length + parity
    for item in x.num.items():
        u = item[0]
        k = 2 * len(u) + (sum(map(deg, u)) & 1)
        if k in groups:
            groups[k].append(item)
        else:
            groups[k] = [item]
    right = ([], [])
    for item in y.num.items():
        right[sum(map(deg, item[0])) & 1].append(item)
    out = {}
    for dv, r in enumerate(right):
        if r:
            fits = word_buckets(r, N)
            for k, a in groups.items():
                b = fits[N - k // 2]
                if b:
                    _bracket_into(out, a, b, 1 if k & dv else -1)
    return Elt._from_num(x.gens, N, out, x.den * y.den)


def bracket_words(tree, degs):
    """(words, degree) of a bracket tree: a letter index, or a tuple of trees
    (t1, t2, ..., tk) read as [[t1, t2], ..., tk].  words is the word->int
    expansion by bracket's rule [x, y] = xy - (-1)^{|x||y|} yx, merged and
    with zeros dropped at every bracket.  The trees still open wait on an
    explicit stack, so no nesting depth can overflow the interpreter stack;
    a right factor that is a letter is bracketed in directly."""
    stack = []   # (words, degree, right factors to come) of the open trees;
    # the right factors are kept last first, so the next one is popped
    words = None
    while True:
        if words is None:   # open tree: its first letter and right factors
            rights = []
            while not isinstance(tree, int):
                rights += tree[:0:-1]
                tree = tree[0]
            words = {(tree,): 1}
            deg = degs[tree]
        if rights:
            tree = rights.pop()
            if not isinstance(tree, int):
                stack.append((words, deg, rights))
                words = None
                continue
            rwords, rdeg = {(tree,): 1}, degs[tree]
        elif stack:
            rwords, rdeg = words, deg
            words, deg, rights = stack.pop()
        else:
            return words, deg
        out = {}
        _bracket_into(out, words.items(), rwords.items(),
                      1 if (deg & 1) and (rdeg & 1) else -1)
        words = {w: c for w, c in out.items() if c}
        deg += rdeg


def _code(items, gens):
    """The coded form of the (word, int) pairs items, a word being a
    sequence of letter indices: {(length, degree): {code: sum of the ints}}
    over the pairs that occur, where a word w of length n has code sum of
    (w[i] + 1) B^(n-1-i) for B = len(gens) + 1."""
    B = len(gens) + 1
    degs = gens.degrees
    out = {}
    for w, c in items:
        code = d = 0
        for i in w:
            code = code * B + i + 1
            d += degs[i]
        key = (len(w), d)
        group = out.get(key)
        if group is None:
            out[key] = {code: c}
        else:
            group[code] = group.get(code, 0) + c
    return out


@lru_cache(maxsize=32)
def _word_table(B, N):
    """(k, B^k, table): table maps the code of every word of length 1..k
    over B - 1 letters to the word, for k >= 1 the largest with k <= N,
    k <= 16 and (B - 1)^k <= 256.  A code is at least B^k exactly when its
    word is longer than k."""
    n = B - 1
    k = 1
    while k < min(N, 16) and n ** (k + 1) <= 256:
        k += 1
    level = {i + 1: (i,) for i in range(n)}
    table = dict(level)
    for _ in range(k - 1):
        level = {c * B + i + 1: w + (i,) for c, w in level.items()
                 for i in range(n)}
        table.update(level)
    return k, B ** k, table


def _decode(groups, gens, N):
    """The word->int dict of the code->int dicts groups, of words over gens
    of length <= N, without zero numerators: a word of length <= k is read
    off _word_table at once, a longer one k letters at a time from the
    right."""
    k, Bk, table = _word_table(len(gens) + 1, N)
    out = {}
    for group in groups:
        for code, c in group.items():
            if c:
                if code < Bk:
                    out[table[code]] = c
                    continue
                word = ()
                while code >= Bk:
                    code, low = divmod(code, Bk)
                    word = table[low] + word
                out[table[code] + word] = c
    return out


def _split(words, B):
    """The code->int dict words split by last letter: a list of (digit,
    {prefix code: numerator}) pairs, the digit being the letter plus 1, as
    code(u.a) = code(u) B + a + 1."""
    groups = {}
    for w, c in words.items():
        r = w % B
        sub = groups.get(r)
        if sub is None:
            groups[r] = {w // B: c}
        else:
            sub[w // B] = c
    return list(groups.items())


def _theta_pairs(words, B, degs):
    """theta of a code->int dict of words of two letters, degs indexed by
    digit: ab -> [a, b] = ab - (-1)^{|a||b|} ba."""
    out = {}
    get = out.get
    for w, c in words.items():
        if c:
            out[w] = get(w, 0) + c
            a, b = divmod(w, B)
            w = b * B + a
            out[w] = get(w, 0) + (c if degs[a] & degs[b] & 1 else -c)
    return out


def _theta_coded(groups, gens):
    """The Dynkin map theta of the coded groups {(length, degree): {code:
    numerator}}, in the same form; words that cancel may stay, with 0.

    theta is linear with theta(u.a) = [theta(u), a], so each group's words
    are split by last letter a, theta of each split's merged prefix sum is
    bracketed with a by bracket's Koszul sign, and a prefix sum shared by
    many words is expanded once; prefixes of two letters are expanded
    directly.  The splits nest as a trie of suffixes walked with an
    explicit stack, so word length cannot overflow the interpreter stack.
    The prefixes at one node all have its length and degree, the group's
    less its suffix's, so the sign of [theta(u), a] is read once per node
    and no word's degree is summed."""
    B = len(gens) + 1
    degs = (0,) + gens.degrees   # by digit
    out = {}
    for (n, d), words in groups.items():
        if n < 3:
            out[n, d] = _theta_pairs(words, B, degs) if n == 2 else dict(words)
            continue
        root = out[n, d] = {}
        # per node: the digit of its last letter, the length and degree of
        # its prefixes, theta of them so far, and the splits still to do
        stack = [(0, n, d, root, _split(words, B))]
        while True:
            a, m, e, acc, todo = stack[-1]
            if todo:
                b, sub = todo.pop()
                if m > 3:
                    stack.append((b, m - 1, e - degs[b], {},
                                  _split(sub, B)))
                    continue
                v_out, m, e, parent = (_theta_pairs(sub, B, degs), 2,
                                       e - degs[b], acc)
            else:
                stack.pop()
                if not stack:
                    break
                v_out, b, parent = acc, a, stack[-1][3]
            # the parent gains [v, b] = v.b - (-1)^{|v||b|} b.v
            get = parent.get
            head = b * B ** m
            s = 1 if e & degs[b] & 1 else -1
            for v, c in v_out.items():
                if c:
                    w = v * B + b
                    parent[w] = get(w, 0) + c
                    w = head + v
                    parent[w] = get(w, 0) + s * c
    return out


def _lie_residues(groups, gens):
    """theta(x_n) - n x_n for the coded groups of x, as {n: {code:
    residue}} over the lengths n where it is not 0."""
    out = {}
    for key, theta in _theta_coded(groups, gens).items():
        n = key[0]
        get = theta.get
        for w, c in groups[key].items():
            theta[w] = get(w, 0) - n * c
        bad = {w: c for w, c in theta.items() if c}
        if bad:
            out.setdefault(n, {}).update(bad)
    return out


def dynkin_theta(x):
    """Left-to-right bracketing map: g1 g2 ... gk -> [...[[g1,g2],g3]...,gk],
    over the whole element at once, on coded words (see _theta_coded)."""
    gens = x.gens
    out = _theta_coded(_code(x.num.items(), gens), gens)
    return Elt._from_num(gens, x.N, _decode(out.values(), gens, x.N), x.den)


def dynkin_verify(x):
    """Check theta(x_n) = n * x_n for every word length n.

    Returns (ok, defects) where defects lists (length, defect Elt) for the
    lengths that fail.  The zero element verifies trivially.  The test runs
    on the coded integer numerators of x over their common denominator D,
    and only the residues of a failing length are decoded, into a defect
    over D.  A passing verdict is stored on x, and later calls return it
    without running theta; a failing one is never stored.
    """
    if x._lie:
        return True, []
    gens = x.gens
    residues = _lie_residues(_code(x.num.items(), gens), gens)
    if not residues:
        x._lie = True
        return True, []
    return False, [(n, Elt._from_num(gens, x.N,
                                     _decode((residues[n],), gens, x.N), x.den))
                   for n in sorted(residues)]


def is_lie(x):
    ok, _ = dynkin_verify(x)
    return ok


# ---------------------------------------------------------------------------
# Lyndon-Shirshov basis


def lyndon_words(k, n):
    """All Lyndon words of length exactly n over the alphabet 0..k-1 (Duval)."""
    if k == 0 or n == 0:
        return
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            yield tuple(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()


def _lyndon_tree(word):
    """The bracket tree of the standard bracketing b_word of a Lyndon word:
    [b_u, b_v] for word = uv split before its lex-least proper suffix v."""
    if len(word) == 1:
        return word[0]
    cut = min(range(1, len(word)), key=lambda i: word[i:])
    return (_lyndon_tree(word[:cut]), _lyndon_tree(word[cut:]))


def lyndon_slice_basis(gens, degree, length, subset=None):
    """Deterministic basis of the (degree, word length) slice of the free Lie
    algebra on the generators with indices in subset (default: all).

    Returns a list of (leading_word, terms_dict, is_doubled) triples sorted by
    leading word; terms_dict maps words to ints, the leading coefficient is
    1, or 2 for doubled elements [b_w, b_w] (present when b_w has odd
    degree).  Cached per slice.
    """
    if subset is None:
        subset = tuple(range(len(gens)))
    else:
        subset = tuple(sorted(subset))
    key = (subset, degree, length)
    cached = gens._basis_cache.get(key)
    if cached is not None:
        return cached
    degs = gens.degrees
    trees = []
    for w in lyndon_words(len(subset), length):
        word = tuple(subset[i] for i in w)
        if sum(degs[i] for i in word) == degree:
            trees.append((word, _lyndon_tree(word), False))
    if length % 2 == 0 and degree % 4 == 2:
        for w in lyndon_words(len(subset), length // 2):
            word = tuple(subset[i] for i in w)
            if 2 * sum(degs[i] for i in word) == degree:
                t = _lyndon_tree(word)
                trees.append((word + word, (t, t), True))
    out = [(lead, bracket_words(tree, degs)[0], doubled)
           for lead, tree, doubled in sorted(trees, key=lambda e: e[0])]
    gens._basis_cache[key] = out
    return out


def slice_coordinates(x, basis):
    """Coordinates of x in a lyndon_slice_basis list, or None if outside.

    x must be supported on the slice the basis spans (one word length, one
    degree, letters inside the basis subset).  Reduction is triangular on
    leading words.
    """
    lead_index = {lead: i for i, (lead, _, _) in enumerate(basis)}
    sparse = _slice_coords(x, basis, lead_index)
    if sparse is None:
        return None
    num, D = sparse
    return [Fraction(num[i], D) if i in num else ZERO
            for i in range(len(basis))]


def _slice_coords(x, basis, lead_index):
    """slice_coordinates of x as (numerators, D): a sparse dict position ->
    int over one positive denominator D, in lowest terms, given the basis's
    lead word -> position index, so that the cost follows the terms of x
    rather than the size of the slice."""
    return _reduce_on_leads(dict(x.num), x.den, basis, lead_index)


def _reduce_on_leads(work, D, basis, lead_index):
    """_slice_coords of the numerators work (a dict it consumes, zeros
    skipped) over D, on basis entries (lead, integer terms, doubled): only
    a doubled lead with an odd numerator leaves the integers, and then D
    doubles.  Numerators in lowest terms give coordinates in lowest
    terms."""
    coords = {}
    while work:
        w = min(work)
        c = work[w]
        if not c:
            del work[w]
            continue
        i = lead_index.get(w)
        if i is None:
            return None
        _, bterms, doubled = basis[i]
        if doubled:
            if c & 1:
                work = {v: 2 * cv for v, cv in work.items()}
                coords = {j: 2 * cj for j, cj in coords.items()}
                D *= 2
                c *= 2
            c //= 2
        coords[i] = c
        get = work.get
        for v, cv in bterms.items():
            acc = get(v, 0) - c * cv
            if acc:
                work[v] = acc
            else:
                del work[v]
    return coords, D


def elt_from_slice_coords(gens, N, basis, coords, den=1):
    """The element with sparse coordinates coords (position -> int or
    Fraction) over den, on a lyndon_slice_basis list, the inverse of
    _slice_coords: a sum of integer numerators over one denominator."""
    return _combine(gens, N, [(c.numerator, c.denominator * den, basis[i][1])
                              for i, c in sorted(coords.items()) if c])


class _SliceLayout:
    """Coordinates on the Lyndon slices of degree q and the given word
    lengths over the generators in subset (default: all): one basis list,
    the slices concatenated in length order, with one lead index.

    Leads of different lengths are different words, and _slice_coords takes
    the least remaining word, which is also the least of its own length, so
    the triangular reduction runs on each length as on its own slice.
    columns is the one reader of a derivation's matrix: the coordinates of
    its images of another layout's basis, read off this layout's lead words
    only, for homology, localize, pi_1, LocalizedDGL.check and the
    builders' length stages.  lengths keeps the given lengths, the words
    of the span being those lengths over the subset (default: every
    generator)."""

    __slots__ = ("gens", "subset", "lengths", "basis", "lead_index", "dim")

    def __init__(self, gens, q, lengths, subset=None):
        self.gens = gens
        self.subset = frozenset(range(len(gens)) if subset is None else subset)
        self.lengths = tuple(lengths)
        self.basis = [b for k in self.lengths
                      for b in lyndon_slice_basis(gens, q, k, subset)]
        self.lead_index = {lead: i
                           for i, (lead, _, _) in enumerate(self.basis)}
        self.dim = len(self.basis)

    def coords(self, x):
        """(numerators, D) of x, or None off the span (or an empty slice)."""
        return _slice_coords(x, self.basis, self.lead_index)

    def columns(self, source, d):
        """[self.coords(d(y)) for y in source.elements(d.N)] for a
        derivation d and a source layout over the same sub-alphabet, one
        degree step of d above this one; no d(y) is built, and an empty
        source gives [] at once.

        None when some d(y) is off the span: the image of a letter of the
        source is not Lie (dynkin_verify, a stored verdict after the first
        call), or d(y) has a word off this layout's words.  Such a word has
        a letter outside the sub-alphabet or a length this layout lacks,
        and every term of d(y) on it comes from an image word that puts a
        source word there (a foreign letter, or a length l with m + l - 1
        <= N missing for a source length m), so the derivation of those
        image words, applied only when some image has one, finds it.
        Otherwise d(y) is a Lie element of the span, and b_w is w plus
        lex-higher words, so its coordinates follow from its coefficients
        on the lead words u: the sum over positions p and image words v =
        u[p:p+l] of d(g) of the Koszul sign of u[:p] times d(g)[v] times
        y[u[:p] g u[p+l:]], read through an index of the source words, then
        reduced on the lead-word rows."""
        if not source.dim:
            return []
        images, Di = d._integer_images()
        gens, N, allowed, kept = self.gens, d.N, self.subset, self.lengths
        letters = [g for g in images if g in allowed]
        if any(not dynkin_verify(d.images[g])[0]
               and any(g in w for w, _, _ in source.basis) for g in letters):
            return None
        gone = {n + 1 - m for m in source.lengths for n in range(m, N + 1)
                if n not in kept}
        off = {}
        for g in letters:
            num = {w: c for w, c in images[g]
                   if len(w) in gone or not allowed.issuperset(w)}
            if num:
                off[g] = Elt._from_num(gens, N, num, Di)
        if off:
            off = Derivation._trusted(gens, N, off, d.shift)
            if any(len(w) not in kept or not allowed.issuperset(w)
                   for y in source.elements(N) for w in off(y).num):
                return None
        parts = {}   # l -> image word of length l (its letter when l = 1)
        # -> [(g, coefficient of the word in d(g))]
        for g in letters:
            for w, c in images[g]:
                parts.setdefault(len(w), {}).setdefault(
                    w if len(w) > 1 else w[0], []).append((g, c))
        index = {}   # source word -> [(j, its coefficient in y_j)]
        for j, (_, terms, _) in enumerate(source.basis):
            for w, c in terms.items():
                index.setdefault(w, []).append((j, c))
        degs = gens.degrees
        odd = d.shift & 1
        leads = [{} for _ in source.basis]   # j -> lead position -> numerator
        for l, pre in parts.items():
            for i, (u, _, _) in enumerate(self.basis):
                sign = 1
                for p, h in enumerate(u if l == 1 else u[:len(u) + 1 - l]):
                    for g, c in pre.get(h if l == 1 else u[p:p + l], ()):
                        for j, cj in index.get(u[:p] + (g,) + u[p + l:], ()):
                            col = leads[j]
                            col[i] = col.get(i, 0) + sign * c * cj
                    if odd and degs[h] & 1:
                        sign = -sign
        lead_index = self.lead_index
        rows = [(lead, {lead_index[v]: cv for v, cv in terms.items()
                        if v in lead_index}, doubled)
                for lead, terms, doubled in self.basis]
        # the reduction runs on positions, which hash and compare faster
        # than the lead words and, the basis being sorted by lead within
        # each length, come in the same order: positions are their own index
        positions = {i: i for i in range(self.dim)}
        out = []
        for work in leads:
            coords, D = _reduce_on_leads(work, Di, rows, positions)
            if D != 1:   # Di may share a factor with every coordinate
                g = gcd(D, *coords.values())
                coords = {i: c // g for i, c in coords.items()}
                D //= g
            out.append((coords, D))
        return out

    def element(self, N, coords, den=1):
        """The element at truncation N with sparse coordinates coords/den."""
        return elt_from_slice_coords(self.gens, N, self.basis, coords, den)

    def elements(self, N):
        """The basis as a list of Elt at truncation N, in basis order."""
        return [Elt._from_num(self.gens, N, terms, 1)
                for _, terms, _ in self.basis]


def lyndon_basis(gens, degree, length, N=None, subset=None):
    """The slice basis as a list of Elt, in extraction order."""
    return _SliceLayout(gens, degree, (length,), subset).elements(
        length if N is None else N)


# ---------------------------------------------------------------------------
# Derivations, morphisms, differentials


def _check_image(gens, i, img, shift):
    """Refuse an image of generator i that is not homogeneous of degree
    deg(i) + shift (0 passes)."""
    d = img.degree()
    if d is not None and d != gens.degrees[i] + shift:
        raise DomainError("image of %s must have degree %d, got %d"
                          % (gens.names[i], gens.degrees[i] + shift, d))


class Derivation:
    """A graded derivation given by generator images.

    images maps generator index -> Elt (or omits indices that map to 0);
    shift is the degree of the derivation (-1 for differentials, +1 for the
    transgression homotopy, 0 for ad-type derivations).  On a word the
    derivation is applied letter by letter with the Koszul sign
    (-1)^{shift * (degree of the prefix)}.  The first call brings the
    images' numerators to their common denominator and keeps them, so the
    images dict must not change afterwards.
    """

    __slots__ = ("gens", "N", "images", "shift", "_num_images")

    def __init__(self, gens, N, images, shift):
        self.gens = gens
        self.N = N
        self.images = images
        self.shift = shift
        self._num_images = None   # the integer images, built on first call
        for i, img in images.items():
            _check_frame(img, gens, N)
            _check_image(gens, i, img, shift)

    @classmethod
    def _trusted(cls, gens, N, images, shift):
        """A derivation on images that the package built over gens at
        truncation N with the right degrees: no check is run again."""
        x = object.__new__(cls)
        x.gens, x.N, x.images, x.shift, x._num_images = (gens, N, images,
                                                         shift, None)
        return x

    def _integer_images(self):
        """(numerators, D): every nonzero image as its (word, numerator)
        items over the one common denominator D, shortest words first."""
        if self._num_images is None:
            imgs = [(g, img) for g, img in self.images.items() if img.num]
            D = lcm(*[img.den for _, img in imgs]) if imgs else 1
            items = {}
            for g, img in imgs:
                s = D // img.den
                items[g] = sorted(((w, s * c) for w, c in img.num.items()),
                                  key=lambda t: len(t[0]))
            self._num_images = (items, D)
        return self._num_images

    def __call__(self, x):
        _check_frame(x, self.gens, self.N)
        gens = self.gens
        N = self.N
        degs = gens.degrees
        odd_shift = self.shift & 1
        images, Di = self._integer_images()
        out = {}
        get = out.get
        for w, c in x.num.items():
            room = N + 1 - len(w)
            for i, g in enumerate(w):
                img = images.get(g)
                if img is not None:
                    pre = w[:i]
                    post = w[i + 1:]
                    for v, cv in img:
                        if len(v) > room:
                            break
                        word = pre + v + post
                        out[word] = get(word, 0) + c * cv
                if odd_shift and (degs[g] & 1):
                    c = -c
        return Elt._from_num(gens, N, out, x.den * Di)


class Substitution:
    """Multiplicative substitution, prepared once: replace letter i of
    source_gens by images[i] in every word.

    images maps letters to Elts over target_gens at truncation N with the
    letter's degree (or zero Elts); a letter without an image may not occur
    in an argument, and the image of a letter of an argument, zero or not,
    over another generator set or truncation raises ConfigError.
    This is the tensor extension of a degree-preserving Lie morphism, so it
    implements DGL morphisms, quotient maps and relabelings on canonical
    forms.  A word with a letter whose image is 0 is skipped.

    Products are built in a table keyed by (prefix, output length): the
    length-r part of a prefix P of two or more letters sums, over s, the
    entry (P[:-1], s) times the length-(r - s) part of the image of P[-1],
    so it reads image parts below length r only.  A call builds its own
    table, which dies with it; graded() shares the caller's.  Each letter's
    length-r part is read from images, and degree-checked, when first
    needed and then kept, so images may gain the parts of lengths not read
    yet (minimal_model fills its partner images in one length at a time)
    and must not change otherwise.
    """

    __slots__ = ("source_gens", "target_gens", "N", "images", "_parts")

    def __init__(self, source_gens, target_gens, N, images):
        self.source_gens = source_gens
        self.target_gens = target_gens
        self.N = N
        self.images = images
        self._parts = {}      # (letter, length) -> (numerators, den) or None

    def _part(self, i, r):
        """(numerators, den) of the length-r words of images[i], or None
        when it has none; read and degree-checked on first use (graded
        frame-checks the image)."""
        key = (i, r)
        if key in self._parts:
            return self._parts[key]
        img = self.images[i]
        num = {w: c for w, c in img.num.items() if len(w) == r}
        gens = self.source_gens
        for w in num:
            d = self.target_gens.degree_of_word(w)
            if d != gens.degrees[i]:
                raise DomainError(
                    "image of %s changes degree (%d -> %d); substitution "
                    "needs degree-preserving images"
                    % (gens.names[i], gens.degrees[i], d))
        part = self._parts[key] = (num, img.den) if num else None
        return part

    def _product(self, w, r, table):
        """(numerators, den) of the length-r part of the product of the
        images of w's letters, or None when it is 0; entries for words of
        two or more letters are kept in table."""
        if len(w) == 1:
            return self._part(w[0], r)
        key = (w, r)
        if key in table:
            return table[key]
        head, last = w[:-1], w[-1]
        terms = []
        for s in range(len(head), r):
            a = self._product(head, s, table)
            if a is not None:
                b = self._part(last, r - s)
                if b is not None:
                    terms.append((a, b))
        out = {}
        D = lcm(*[a[1] * b[1] for a, b in terms]) if terms else 1
        get = out.get
        for (a, da), (b, db) in terms:
            scale = D // (da * db)
            for u, cu in a.items():
                cu *= scale
                for v, cv in b.items():
                    uv = u + v
                    out[uv] = get(uv, 0) + cu * cv
        out = {v: c for v, c in out.items() if c}
        entry = table[key] = (out, D) if out else None
        return entry

    def __call__(self, x):
        return self.graded(x, range(1, self.N + 1), {})

    def graded(self, x, lengths, table):
        """The parts of the given lengths (each 1..N) of x under the map,
        as one Elt at truncation N, with every product read from or added
        to the caller's (prefix, length) table.  The image of each letter
        of x is frame-checked here, before a zero image is skipped."""
        _check_frame(x, self.source_gens)
        images = self.images
        zero = set()
        for i in sorted(x.letters()):
            img = images.get(i)
            if img is None:
                raise StructError("no image for generator %r"
                                  % self.source_gens.names[i])
            _check_frame(img, self.target_gens, self.N)
            if not img.num:
                zero.add(i)
        top = max(lengths)
        parts = []
        for w, c in x.num.items():
            n = len(w)
            if n > top or zero and not zero.isdisjoint(w):
                continue
            for r in lengths:
                if r >= n:
                    prod = self._product(w, r, table)
                    if prod is not None:
                        parts.append((c, x.den * prod[1], prod[0]))
        return _combine(self.target_gens, self.N, parts)


def substitute(x, target_gens, target_N, images):
    """x under the Substitution(x.gens, target_gens, target_N, images),
    prepared for this one call."""
    return Substitution(x.gens, target_gens, target_N, images)(x)


class DGLMap:
    """A morphism of free DGLs given by generator images, applied through
    one prepared Substitution, or through apply when the caller has a
    faster map on elements with the same images."""

    __slots__ = ("source", "target", "images", "_map")

    def __init__(self, source, target, images, apply=None):
        self.source = source
        self.target = target
        self.images = images
        self._map = apply or Substitution(source.gens, target.gens, target.N,
                                          images)

    def __call__(self, x):
        return self._map(x)

    def chain_residues(self):
        """(name, residue) for every source generator, residue = f(dg) -
        d(f g): dg is read off the source's differential table and f g off
        images.  An image that is missing, of another degree or over
        another frame than the target's is read through the map instead,
        which raises on each as it would on any argument.  When
        f g is a combination of letters (a vertex map's image is a signed
        letter or 0), d(f g) is the same combination of the target's table
        images, so the residue is one _combine and no derivation runs."""
        src, tgt = self.source, self.target
        gens = src.gens
        table = src.diff.images
        target_table = tgt.diff.images
        zero = zero_elt(gens, src.N)
        out = []
        for i, name in enumerate(gens.names):
            fg = self.images.get(i)
            if (fg is None or fg.gens is not tgt.gens or fg.N != tgt.N
                    or not fg.has_degree(gens.degrees[i])):
                fg = self(Elt._from_num(gens, src.N, {(i,): 1}, 1))
            fdg = self(table.get(i, zero))
            if all(len(w) == 1 for w in fg.num):
                items = [(1, fdg.den, fdg.num)]
                for (j,), c in fg.num.items():
                    img = target_table.get(j)
                    if img is not None:
                        items.append((-c, fg.den * img.den, img.num))
                residue = _combine(tgt.gens, tgt.N, items)
            else:
                residue = fdg - tgt.d(fg)
            out.append((name, residue))
        return out

    def is_chain_map(self):
        return all(r.is_zero() for _, r in self.chain_residues())


class FreeDGL:
    """A free complete DGL presented by generators, a differential table and
    a truncation N.  The differential is the degree -1 derivation extending
    the table; d^2 = 0 is checked by check_d_squared, not assumed.
    """

    __slots__ = ("gens", "N", "diff", "_d1")

    def __init__(self, gens, N, images):
        _check_truncation(N)
        self.gens = gens
        self.N = N
        for i in images:
            if not 0 <= i < len(gens):
                raise StructError("differential table has a bad generator index")
        self.diff = Derivation(gens, N, images, -1)
        self._d1 = None   # the linear part, built on first use

    @classmethod
    def _trusted(cls, gens, N, images):
        """The free DGL on a differential table that the package built from
        checked differentials: no check is run again."""
        L = object.__new__(cls)
        L.gens, L.N, L._d1 = gens, N, None
        L.diff = Derivation._trusted(gens, N, images, -1)
        return L

    def gen(self, name):
        return generator_elt(self.gens, self.N, name)

    def zero(self):
        return zero_elt(self.gens, self.N)

    def d(self, x):
        return self.diff(x)

    def linear_part(self):
        """The derivation d1 extending the length-1 parts of the generator
        images, built on first use."""
        if self._d1 is None:
            ones = {i: img.length_part(1) for i, img in self.diff.images.items()}
            self._d1 = Derivation._trusted(self.gens, self.N, ones, -1)
        return self._d1

    def d1(self, x):
        """Linear (length-preserving) part of the differential."""
        return self.linear_part()(x)

    def check_d_squared(self):
        """Apply d once to every image of the differential table (d(dg) for
        each generator g); returns the nonzero residues as a list of
        (generator name, residue Elt).  Empty list = valid DGL."""
        images = self.diff.images
        out = []
        for i, name in enumerate(self.gens.names):
            if i in images:
                r = self.d(images[i])
                if not r.is_zero():
                    out.append((name, r))
        return out

    def truncated(self, M):
        """The same presentation at a lower truncation."""
        if M > self.N:
            raise ConfigError("cannot raise truncation from %d to %d" % (self.N, M))
        images = {i: img.truncated(M) for i, img in self.diff.images.items()}
        return FreeDGL(self.gens, M, images)
