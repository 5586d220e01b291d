"""Independent oracles used by the test suite.

Nothing here imports the package under test.  Dimension counts come from the
graded Witt recursion; simplicial homology comes from a plain dense boundary
matrix elimination over Fraction; the BCH product comes from exp and log
power series over word->Fraction dicts.  The exact solve, derivation and
substitution oracles are plain Fraction loops over dicts: a dense row-reduced
echelon form, and the word-by-word derivation and substitution rules; the
Dynkin map folds each word with the word-by-word bracket, or walks a suffix
trie of tuple words (oracle_theta_words), and the adjoint series sum its
powers, with the Bernoulli coefficients from inverting the
power series (e^t - 1)/t.  The span
reference is incremental Gauss-Jordan on Fractions that tracks the
combination behind every row; its kernel basis, made primitive, is what the
package's null space must give; on it, the marker route picks degree-0
homology representatives and reads classes off their combinations.  Lower central series ranks of surface groups
come from Labute's closed formula, the components and spanning forest of a
graph from a union-find and a breadth-first search, element tokens from a plain
character-by-character scan, and element text from a word-by-word writer.
"""

from fractions import Fraction
from math import comb, factorial, gcd
from functools import lru_cache
from itertools import combinations


# ---------------------------------------------------------------------------
# Graded Witt dimension counts
#
# For a multidegree beta (occurrence counts per generator) over generators of
# degrees d_i, write |beta| = sum(beta) and parity(beta) = sum(beta_i d_i)
# mod 2.  The number l(beta) of basis elements of the free graded Lie algebra
# in multidegree beta satisfies
#
#   sum over d | gcd(beta) of  eps(beta/d, d)/d * l(beta/d)
#       = (|beta| - 1)! / prod(beta_i!)
#
# where eps(alpha, d) = 1 when parity(alpha) is even, else +1 for odd d and
# -1 for even d.  Solving top-down gives l; the slice dimension for a fixed
# (degree, word length) sums l over the matching multidegrees.


def _necklace_rhs(beta):
    n = sum(beta)
    denom = 1
    for b in beta:
        denom *= factorial(b)
    return Fraction(factorial(n - 1), denom)


def _witt_l(beta, degrees, cache):
    if beta in cache:
        return cache[beta]
    g = 0
    for b in beta:
        g = gcd(g, b)
    total = _necklace_rhs(beta)
    for d in range(2, g + 1):
        if g % d:
            continue
        alpha = tuple(b // d for b in beta)
        parity = sum(a * deg for a, deg in zip(alpha, degrees)) % 2
        eps = 1 if parity == 0 else (1 if d % 2 else -1)
        total -= Fraction(eps, d) * _witt_l(alpha, degrees, cache)
    cache[beta] = total
    return total


def _multidegrees(m, k):
    """All tuples of m nonnegative ints summing to k."""
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _multidegrees(m - 1, k - first):
            yield (first,) + rest


def free_lie_slice_dim(degrees, degree, length):
    """Dimension of the (degree, word length) slice of the free graded Lie
    algebra on generators of the given degrees."""
    cache = {}
    total = Fraction(0)
    for beta in _multidegrees(len(degrees), length):
        if sum(b * d for b, d in zip(beta, degrees)) != degree:
            continue
        total += _witt_l(beta, tuple(degrees), cache)
    if total.denominator != 1 or total < 0:
        raise AssertionError("Witt recursion gave a non-integer: %s" % total)
    return int(total)


# ---------------------------------------------------------------------------
# Simplicial homology over Q from a list of maximal faces


def close_faces(maximal):
    """All nonempty faces of the complex generated by the maximal faces."""
    faces = set()
    for f in maximal:
        f = tuple(sorted(set(f)))
        for r in range(1, len(f) + 1):
            faces.update(combinations(f, r))
    return sorted(faces, key=lambda f: (len(f), f))

def dense_rank(rows, ncols):
    """Rank of a list-of-dict-rows matrix over Fraction."""
    rows = [dict(r) for r in rows if r]
    rank = 0
    for col in range(ncols):
        piv = None
        for i, r in enumerate(rows):
            if r.get(col):
                piv = i
                break
        if piv is None:
            continue
        prow = rows.pop(piv)
        pval = prow[col]
        rank += 1
        reduced = []
        for r in rows:
            v = r.get(col)
            if v:
                factor = v / pval
                for c, pc in prow.items():
                    acc = r.get(c, Fraction(0)) - factor * pc
                    if acc == 0:
                        r.pop(c, None)
                    else:
                        r[c] = acc
            if r:
                reduced.append(r)
        rows = reduced
    return rank


def simplicial_betti(maximal):
    """Unreduced rational Betti numbers, as a dict dim -> rank."""
    faces = close_faces(maximal)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    index = {}
    for dim, fl in by_dim.items():
        for i, f in enumerate(sorted(fl)):
            index[f] = i
    top = max(by_dim)
    ranks = {}
    for q in range(1, top + 1):
        rows = []
        for f in sorted(by_dim.get(q, [])):
            row = {}
            for j in range(len(f)):
                sub = f[:j] + f[j + 1:]
                row[index[sub]] = Fraction((-1) ** j)
            rows.append(row)
        ranks[q] = dense_rank(rows, len(by_dim.get(q - 1, [])))
    betti = {}
    for q in range(0, top + 1):
        betti[q] = len(by_dim.get(q, [])) - ranks.get(q, 0) - ranks.get(q + 1, 0)
    return betti


def union_find_components(n_vertices, edges):
    """Vertex sets of the connected components of the graph on vertices
    0..n_vertices-1 with the given edges, by union-find, each sorted and
    ordered by smallest vertex."""
    parent = list(range(n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups = {}
    for v in range(n_vertices):
        groups.setdefault(find(v), []).append(v)
    return [tuple(groups[r]) for r in sorted(groups)]


def bfs_spanning_tree(n_vertices, edges, basepoint):
    """Sorted edges of the breadth-first spanning forest of the graph: the
    search starts at the basepoint, then at each unreached vertex in
    increasing order, and visits neighbors in increasing order."""
    adj = {v: [] for v in range(n_vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    seen = set()
    tree = []

    def bfs(root):
        seen.add(root)
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    tree.append(tuple(sorted((u, v))))
                    queue.append(v)

    bfs(basepoint)
    for v in range(n_vertices):
        if v not in seen:
            bfs(v)
    return tuple(sorted(tree))


# ---------------------------------------------------------------------------
# BCH product in the truncated tensor algebra over Q
#
# Elements are dicts from words (tuples of letters) to nonzero Fractions; the
# empty word is the unit.  log(exp(a_1) ... exp(a_k)) is computed from the
# power series of exp and log, every coefficient a Fraction, words longer
# than N dropped.


def _concat(a, b, N, scale=Fraction(1)):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) > N:
                continue
            w = u + v
            acc = out.get(w, Fraction(0)) + cu * cv * scale
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
    return out


def _accumulate(out, terms, scale):
    for w, c in terms.items():
        acc = out.get(w, Fraction(0)) + scale * c
        if acc == 0:
            out.pop(w, None)
        else:
            out[w] = acc


def tensor_exp(terms, N):
    """exp of a word->Fraction dict without unit word, truncated at N."""
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for k in range(1, N + 1):
        power = _concat(power, terms, N, Fraction(1, k))
        if not power:
            break
        _accumulate(out, power, Fraction(1))
    return out


def tensor_log(terms, N):
    """log of a word->Fraction dict with unit part 1, truncated at N."""
    u = dict(terms)
    if u.pop((), Fraction(0)) != 1:
        raise ValueError("log needs unit part 1")
    out = {}
    power = {(): Fraction(1)}
    for k in range(1, N + 1):
        power = _concat(power, u, N)
        if not power:
            break
        _accumulate(out, power, Fraction((-1) ** (k + 1), k))
    return out


def bch_terms(args, N):
    """log(exp(a_1) ... exp(a_k)) for word->Fraction dicts, truncated at N."""
    prod = {(): Fraction(1)}
    for a in args:
        prod = _concat(prod, tensor_exp(a, N), N)
    return tensor_log(prod, N)


# ---------------------------------------------------------------------------
# Canonical exact solve from dense reduced row echelon forms
#
# Columns and right-hand sides are dicts index -> Fraction.  The solution of
# sum_j x_j * columns[j] = b puts the free variables at 0, so it lives on the
# pivot columns of rref(A), which are the greedy (leftmost) independent
# columns.  An infeasible b has one residual b - A y with no support on the
# greedy independent rows of A, the pivot columns of rref(A^T).


def _rref(rows, ncols):
    """Reduced row echelon form of a dense list of Fraction rows, in place;
    returns the pivot columns in order."""
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [c / lead for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [c - f * p for c, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def oracle_solve_columns(columns, b):
    """(x, None) with free variables 0, or (None, residual)."""
    coords = sorted(set(b).union(*columns))
    n = len(columns)
    aug = [[col.get(i, Fraction(0)) for col in columns] + [b.get(i, Fraction(0))]
           for i in coords]
    pivots = _rref(aug, n + 1)
    if n not in pivots:
        return {j: aug[r][n] for r, j in enumerate(pivots) if aug[r][n]}, None
    tr = [[col.get(i, Fraction(0)) for i in coords] for col in columns]
    independent = [coords[i] for i in _rref(tr, len(coords))]
    # A_P y = b_P is solvable for the independent rows P; r = b - A y
    sub = [[col.get(i, Fraction(0)) for col in columns] + [b.get(i, Fraction(0))]
           for i in independent]
    y = {j: sub[r][n] for r, j in enumerate(_rref(sub, n))}
    residual = {}
    for i in coords:
        c = b.get(i, Fraction(0)) - sum(
            (y[j] * columns[j].get(i, Fraction(0)) for j in y), Fraction(0))
        if c:
            residual[i] = c
    return None, residual


# ---------------------------------------------------------------------------
# Element arithmetic on word->Fraction dicts


def oracle_combine(a, b, scale=Fraction(1)):
    """a + scale * b for word->Fraction dicts, zeros dropped."""
    out = dict(a)
    _accumulate(out, b, Fraction(scale))
    return out


def oracle_bracket(a, b, degrees, N):
    """[a, b] = ab - (-1)^{|u||v|} ba word by word, for word->Fraction dicts
    over letters of the given degrees, truncated at N."""
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) > N:
                continue
            odd = sum(degrees[i] for i in u) % 2 and sum(degrees[i] for i in v) % 2
            _accumulate(out, {u + v: cu * cv}, Fraction(1))
            _accumulate(out, {v + u: cu * cv}, Fraction(1 if odd else -1))
    return out


def oracle_dynkin_theta(terms, degrees, N):
    """The Dynkin map g1 g2 ... gk -> [...[[g1, g2], g3]..., gk] of a
    word->Fraction dict: each word folded left to right with oracle_bracket,
    one word at a time, and the folds summed, zeros dropped."""
    out = {}
    for w, c in terms.items():
        acc = {w[:1]: Fraction(1)}
        for g in w[1:]:
            acc = oracle_bracket(acc, {(g,): Fraction(1)}, degrees, N)
        _accumulate(out, acc, Fraction(c))
    return out


def _theta_split(words):
    """(letters, groups) of a word->coefficient dict: the length-1 words as
    their own dict, and for each last letter a the merged prefix sum
    sum_u c_{ua} u, as a list of (a, prefix dict) pairs."""
    letters = {}
    groups = {}
    for w, c in words.items():
        if len(w) == 1:
            letters[w] = c
        else:
            groups.setdefault(w[-1], {})[w[:-1]] = c
    return letters, list(groups.items())


def oracle_theta_words(terms, degrees):
    """The Dynkin map of a word->coefficient dict on a trie of tuple words,
    zeros dropped.  theta is linear with theta(a) = a and theta(u.a) =
    [theta(u), a], so the words are grouped by last letter a, theta of each
    group's merged prefix sum is bracketed with a, and the groups nest as a
    trie of suffixes walked with an explicit stack; every word stays a tuple
    and the degree of each prefix is summed where its sign is read."""
    out, todo = _theta_split(terms)
    stack = [(None, out, todo)]
    while True:
        a, out, todo = stack[-1]
        if todo:
            b, sub = todo.pop()
            stack.append((b,) + _theta_split(sub))
            continue
        stack.pop()
        if not stack:
            return {w: c for w, c in out.items() if c}
        # the parent gains [out, a] = out.a - (-1)^{|v||a|} a.out
        parent = stack[-1][1]
        odd = degrees[a] % 2
        for v, c in out.items():
            if c:
                parent[v + (a,)] = parent.get(v + (a,), 0) + c
                sign = 1 if odd and sum(degrees[i] for i in v) % 2 else -1
                parent[(a,) + v] = parent.get((a,) + v, 0) + sign * c


def series_coefficients(kind, n):
    """c_0..c_n of the adjoint series: "exp" 1/k!, "bernoulli_inverse"
    (e^t - 1)/t = sum t^k/(k+1)!, and "bernoulli" its reciprocal t/(e^t - 1),
    found by inverting that power series term by term."""
    inverse = [Fraction(1, factorial(k + 1)) for k in range(n + 1)]
    if kind == "exp":
        return [Fraction(1, factorial(k)) for k in range(n + 1)]
    if kind == "bernoulli_inverse":
        return inverse
    out = []
    for k in range(n + 1):
        acc = Fraction(1 if k == 0 else 0)
        for j in range(k):
            acc -= out[j] * inverse[k - j]
        out.append(acc)
    return out


def oracle_ad_series(x, v, coeffs, degrees, N):
    """sum of coeffs[k] * ad_x^k(v) for word->Fraction dicts x and v: each
    power is oracle_bracket of x with the last, scaled by its Fraction and
    summed, zeros dropped."""
    out = {}
    power = dict(v)
    for c in coeffs:
        _accumulate(out, power, c)
        power = oracle_bracket(x, power, degrees, N)
    return out


# ---------------------------------------------------------------------------
# Derivations and substitutions on word->Fraction dicts


def oracle_derivation(terms, images, degrees, shift, N):
    """The derivation of the given shift sending letter g to images[g] (a
    word->Fraction dict; missing letters go to 0), applied to terms word by
    word with the Koszul sign (-1)^(shift * degree of the prefix); words
    longer than N are dropped."""
    out = {}
    for w, c in terms.items():
        sign = 1
        for i, g in enumerate(w):
            for v, cv in images.get(g, {}).items():
                word = w[:i] + v + w[i + 1:]
                if len(word) <= N:
                    out[word] = out.get(word, Fraction(0)) + sign * c * cv
            if shift % 2 and degrees[g] % 2:
                sign = -sign
    return {w: c for w, c in out.items() if c}


def oracle_substitute(terms, images, N):
    """Replace every letter g of every word by the word->Fraction dict
    images[g] and expand the products, dropping words longer than N."""
    out = {}
    for w, c in terms.items():
        partial = {(): c}
        for g in w:
            partial = _concat(partial, images[g], N)
        for v, cv in partial.items():
            out[v] = out.get(v, Fraction(0)) + cv
    return {v: c for v, c in out.items() if c}


# ---------------------------------------------------------------------------
# Incremental Gauss-Jordan with combination tracking
#
# Vectors are dicts index -> Fraction with no stored zeros; a combination is
# a dict tag -> Fraction over the tags of the vectors that added a pivot.


def vec_add(a, b, scale=Fraction(1)):
    """a + scale*b as a fresh dict."""
    out = dict(a)
    for i, c in b.items():
        acc = out.get(i, Fraction(0)) + scale * c
        if acc == 0:
            out.pop(i, None)
        else:
            out[i] = acc
    return out


def vec_scale(a, scale):
    if scale == 0:
        return {}
    return {i: c * scale for i, c in a.items()}


class GaussJordanReducer:
    """Incremental row-reduced span with combination tracking.

    rows: pivot index -> fully reduced row (row[pivot] == 1)
    combs: pivot index -> dict tag -> Fraction expressing the row as a
           combination of the inserted vectors
    """

    def __init__(self):
        self.rows = {}
        self.combs = {}

    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """(residual, comb) with v = sum(comb[tag] * inserted[tag]) +
        residual and the residual off every pivot."""
        v = dict(v)
        comb = {}
        while True:
            hit = None
            for i in v:
                if i in self.rows and (hit is None or i < hit):
                    hit = i
            if hit is None:
                return v, comb
            c = v[hit]
            v = vec_add(v, self.rows[hit], -c)
            comb = vec_add(comb, self.combs[hit], c)

    def insert(self, v, tag):
        """(None, comb) when v is already in the span, else (pivot, None)
        after installing the new normalized row."""
        residual, comb = self.reduce(v)
        if not residual:
            return None, comb
        pivot = min(residual)
        lead = residual[pivot]
        row = vec_scale(residual, 1 / lead)
        rcomb = vec_scale(comb, -1 / lead)
        rcomb = vec_add(rcomb, {tag: Fraction(1)}, Fraction(1) / lead)
        for p, other in self.rows.items():
            c = other.get(pivot)
            if c:
                self.rows[p] = vec_add(other, row, -c)
                self.combs[p] = vec_add(self.combs[p], rcomb, -c)
        self.rows[pivot] = row
        self.combs[pivot] = rcomb
        return pivot, None


def kernel_columns(columns):
    """Kernel basis of the map sending e_j to columns[j]: one vector per
    dependent column j, e_j minus the combination of earlier independent
    columns that matches it."""
    red = GaussJordanReducer()
    out = []
    for j, col in enumerate(columns):
        pivot, comb = red.insert(col, j)
        if pivot is None:
            k = vec_scale(comb, Fraction(-1))
            k[j] = Fraction(1)
            out.append(k)
    return out


def primitive(v):
    """The nonzero Fraction dict v scaled to a primitive integer dict whose
    lowest-index entry is positive."""
    D = 1
    for c in v.values():
        D = D * c.denominator // gcd(D, c.denominator)
    num = {i: int(c * D) for i, c in v.items()}
    g = gcd(*num.values())
    if num[min(num)] < 0:
        g = -g
    return {i: c // g for i, c in num.items()}


def marker_h0(kernels, boundaries):
    """Degree-0 homology by the marker route, over plain coordinate dicts.

    The boundaries go into one GaussJordanReducer under ("im", j), then each
    kernel vector, in order, under ("rep", k), k counting the ones kept; a
    kernel vector is kept as a representative when it adds a pivot.
    Returns (reps, classes): classes(v) is the tuple of v's coefficients on
    the representatives in the one decomposition v = boundary + combination
    of reps, or None when there is none (v is not a cycle mod boundaries).
    """
    red = GaussJordanReducer()
    for j, b in enumerate(boundaries):
        red.insert({i: Fraction(c) for i, c in b.items()}, ("im", j))
    reps = []
    for kv in kernels:
        kv = {i: Fraction(c) for i, c in kv.items()}
        if red.insert(kv, ("rep", len(reps)))[0] is not None:
            reps.append(kv)

    def classes(v):
        residual, comb = red.reduce(v)
        if residual:
            return None
        return tuple(comb.get(("rep", k), Fraction(0))
                     for k in range(len(reps)))

    return reps, classes


def over(num, den):
    """The Fraction dict of integer numerators over one denominator."""
    return {i: Fraction(c, den) for i, c in num.items()}


def transpose(columns):
    """Row dicts of the matrix whose j-th column is columns[j]."""
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return [rows[i] for i in sorted(rows)]


# ---------------------------------------------------------------------------
# Lower central series of surface groups
#
# Labute (J. Algebra 14, 1970): for the fundamental group of the closed
# orientable surface of genus g, the n-th quotient of the lower central
# series has rank phi_n = (1/n) sum_{d | n} mu(n/d) a_d, with
# a_d = sum_i (-1)^i d/(d-i) C(d-i, i) (2g)^(d-2i).


def _mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def surface_lcs_ranks(g, n_max):
    """[phi_1, ..., phi_n_max] for the genus-g surface group."""
    def a(d):
        return sum(Fraction((-1) ** i * d, d - i) * comb(d - i, i)
                   * (2 * g) ** (d - 2 * i) for i in range(d // 2 + 1))

    out = []
    for n in range(1, n_max + 1):
        phi = sum(_mobius(n // d) * a(d) for d in range(1, n + 1)
                  if n % d == 0) / n
        if phi.denominator != 1:
            raise AssertionError("Labute's formula gave a non-integer: %s"
                                 % phi)
        out.append(int(phi))
    return out


# ---------------------------------------------------------------------------
# Element tokens
#
# The character-by-character scan of element text: whitespace is skipped,
# each of "[],+-*" is a token, a number is a str.isdigit character followed
# by digits and '/', and an identifier is a letter or '_' followed by
# str.isalnum characters and '_'.


def scan_tokens(text):
    """(tokens, None), or (None, c) for the first character c that starts
    no token."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[],+-*":
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            toks.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            return None, ch
    return toks, None


def emit_terms(terms, names):
    """The text of the Lie element with the tensor terms {word: Fraction}
    over the generator names: word by word, in order of length and then
    word, the sign, c_w / len(w) in lowest terms and the left-normed
    bracket [[...[w1,w2],...],wn]; "0" when there are no terms."""
    text = ""
    for w in sorted(terms, key=lambda w: (len(w), w)):
        c = terms[w] / len(w)
        bracket = names[w[0]]
        for i in w[1:]:
            bracket = "[%s,%s]" % (bracket, names[i])
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += "%s %s" % (abs(c), bracket)
    return text or "0"
