"""The benchmark's workloads: tower, build, series and cli.

Each workload imports freedgl afresh in its set-up, makes its inputs from the
seed, and hands the runner a fixed list of jobs.  A job is a callable that
returns None when its answer checks and raises otherwise.  Every answer is
checked against a value known independently of the code under test: Witt
necklace counts, rational homotopy of small spaces, simplicial boundaries,
closed BCH terms, byte-identical round trips and pinned CLI output.

The seed picks inputs, never sizes, so a pass costs the same for every seed.
Vertex relabelings preserve the numeric order of the vertices, and face
lines and the vertices inside them are shuffled.  An arbitrary permutation
would change the generator order, and with it the elimination order: on
the figure-eight at N=4 that alone moves the tower's cost by up to 2x.
"""

import contextlib
import importlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"


class Mismatch(Exception):
    """A job's answer differs from its independently known value."""


def expect(got, want, what):
    if got != want:
        raise Mismatch("%s: got %r, expected %r" % (what, got, want))


def import_freedgl():
    """Import the freedgl package from scratch, dropping any earlier copy,
    so that module caches start empty."""
    for name in [n for n in sys.modules
                 if n == "freedgl" or n.startswith("freedgl.")]:
        del sys.modules[name]
    return importlib.import_module("freedgl")


# ---------------------------------------------------------------------------
# Independent answers


def mobius(n):
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


def witt(k, n):
    """Dimension of the length-n part of the free Lie algebra on k letters
    (Witt's necklace formula)."""
    total = sum(mobius(d) * k ** (n // d)
                for d in range(1, n + 1) if n % d == 0)
    return total // n


# ---------------------------------------------------------------------------
# Complexes


def bouquet(loops):
    """Wedge of subdivided circles at vertex 0; loop j is 0, 2j+1, 2j+2."""
    lines = []
    for j in range(loops):
        a, b = 2 * j + 1, 2 * j + 2
        lines += ["0 %d" % a, "%d %d" % (a, b), "0 %d" % b]
    return "\n".join(lines) + "\n"


SPHERE = "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
WEDGE = "0 1\n1 2\n0 2\n0 3 4\n0 3 5\n0 4 5\n3 4 5\n"
TORUS = "".join("%d %d %d\n%d %d %d\n" % (i, (i + 1) % 7, (i + 3) % 7,
                                          i, (i + 2) % 7, (i + 3) % 7)
                for i in range(7))


def relabel(text, rng):
    """Order-preserving relabeling with random gaps, faces and the vertices
    inside them shuffled.  Vertex 0 stays the smallest label, so it is
    vertex 0 again after parse_complex renumbers."""
    faces = [line.split() for line in text.splitlines() if line.strip()]
    label = {}
    nxt = 0
    for v in sorted({int(v) for f in faces for v in f}):
        nxt += rng.randint(1, 9)
        label[v] = nxt
    lines = []
    for f in faces:
        f = [str(label[int(v)]) for v in f]
        rng.shuffle(f)
        lines.append(" ".join(f))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Base class: subclasses define setup, jobs and optionally probes.

    Every in-process job takes at most about 0.3 s, and a pass 1-2 s.  The
    host's speed then changes little within a pass, whose calibration
    kernel timings scale it (run.py), and a run holds 16-28 passes.  Larger
    sizes of the same jobs are left out for that reason.
    """

    name = None
    # turns --seconds into a pass count that does not depend on speed, so
    # both sides of a comparison do the same work; it is about the median
    # pass on the 2-vCPU host the benchmark was written on, which gives
    # tower 18, build 16, series 28 and cli 10 passes at 25 s.
    nominal_pass_s = None
    setup_repeats = 15
    # peak RSS comes from the child processes instead of this one
    rss_of_children = False

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.fd = None

    def setup(self):
        """Import freedgl afresh, make the seeded inputs and run one small
        warm-up job of each kind."""
        raise NotImplementedError

    def jobs(self, in_process=False):
        """[(label, job)] for one pass over the workload."""
        raise NotImplementedError

    def probes(self):
        """[(label, job)] answered wrongly at the time the benchmark was
        written; run once per run, outside the timed passes (README.md)."""
        return []


class Tower(Workload):
    """pi_1 invariants of complexes: Malcev towers of graphs, their group
    law, and homotopy groups through minimal models."""

    name = "tower"
    nominal_pass_s = 1.4
    # the figure-eight at N=4 (1.1 s) is left out: see Workload
    GRAPHS = ((1, 5), (1, 3), (2, 3), (3, 3))
    # a few group-law checks on the figure-eight at N=3; a product at N=4
    # costs 0.1-0.7 s, depending on the classes, and would dominate.  Every
    # element has all five classes in its support, so that the seed does
    # not change the cost.
    TRIPLES = 2

    def setup(self):
        fd = self.fd = import_freedgl()
        rng = random.Random(self.seed)
        self.graph = {k: relabel(bouquet(k), rng) for k in (1, 2, 3)}
        self.torus = relabel(TORUS, rng)
        self.sphere = relabel(SPHERE, rng)
        self.wedge = relabel(WEDGE, rng)
        dim3 = sum(witt(2, n) for n in range(1, 4))
        self.triples = [
            tuple(tuple(Fraction(rng.choice((1, -1, 2, -2)))
                        for _ in range(dim3)) for _ in range(3))
            for _ in range(self.TRIPLES)]
        self._quotient = None
        circle = fd.parse_complex(bouquet(1))
        q = fd.malcev_tower(circle, 0, 2)[-1]
        q.product(q.basis_coords(0), q.basis_coords(0))
        fd.pi_n(fd.minimal_model(circle, 0, 2), 1)

    def _graph_tower(self, loops, N):
        fd = self.fd
        quotients = fd.malcev_tower(fd.parse_complex(self.graph[loops]), 0, N)
        expect(fd.tower_layers(quotients),
               [witt(loops, n) for n in range(1, N + 1)],
               "tower layers of a %d-loop bouquet" % loops)
        if (loops, N) == (2, 3):
            self._quotient = quotients[-1]

    def _triple(self, a, b, c):
        q = self._quotient
        if q is None:
            raise Mismatch("the figure-eight N=3 quotient was not computed")
        expect(q.product(q.product(a, b), c), q.product(a, q.product(b, c)),
               "associativity")

    def _pi1_sphere(self):
        fd = self.fd
        g = fd.pi_n(fd.minimal_model(fd.parse_complex(self.sphere), 0, 3), 1)
        expect(g.dim, 0, "pi_1(S^2) at N=3")

    def _pi1_torus(self):
        fd = self.fd
        g = fd.pi_n(fd.minimal_model(fd.parse_complex(self.torus), 0, 3), 1)
        expect((g.dim, g.is_abelian()), (2, True), "pi_1(torus) at N=3")

    def _pi1_figure_eight(self):
        fd = self.fd
        g = fd.pi_n(fd.minimal_model(fd.parse_complex(self.graph[2]), 0, 5), 1)
        expect(g.dim, sum(witt(2, n) for n in range(1, 6)),
               "pi_1(figure-eight) at N=5")

    def _pi2_wedge(self):
        fd = self.fd
        entry = fd.pi_n(fd.minimal_model(fd.parse_complex(self.wedge), 0, 4), 2)
        # ad_u^k v for k = 0..3, with u the circle and v the sphere
        expect(entry["h"], 4, "pi_2(S^1 v S^2) at N=4")

    def _two_complex_tower(self, text, want):
        fd = self.fd
        quotients = fd.malcev_tower(fd.parse_complex(text), 0, len(want))
        expect(fd.tower_layers(quotients), want, "tower layers")

    def jobs(self, in_process=False):
        out = []
        for loops, N in self.GRAPHS:
            out.append(("malcev_tower bouquet-%d N=%d" % (loops, N),
                        lambda loops=loops, N=N: self._graph_tower(loops, N)))
            if (loops, N) == (2, 3):
                for i, t in enumerate(self.triples):
                    out.append(("product triple %d" % i,
                                lambda t=t: self._triple(*t)))
        out += [("pi_1 S^2 N=3", self._pi1_sphere),
                ("pi_1 torus N=3", self._pi1_torus),
                ("pi_1 figure-eight N=5", self._pi1_figure_eight),
                ("pi_2 S^1vS^2 N=4", self._pi2_wedge)]
        return out

    def probes(self):
        # rational pi_1 of S^2, the torus and S^1 v S^2 is 0, Q^2 and Q
        return [
            ("malcev_tower S^2 N=2",
             lambda: self._two_complex_tower(self.sphere, [0, 0])),
            ("malcev_tower torus N=2",
             lambda: self._two_complex_tower(self.torus, [2, 0])),
            ("malcev_tower S^1vS^2 N=2",
             lambda: self._two_complex_tower(self.wedge, [1, 0])),
        ]


class Build(Workload):
    """Simplex models through their axiom checks, the subdivision chain map,
    and DGL text round trips."""

    name = "build"
    nominal_pass_s = 1.6
    MODELS = (
        ("tetra_model(3)", lambda fd: fd.tetra_model(3)),
        ("build_model(3,3)", lambda fd: fd.build_model(3, 3)),
        ("build_model(4,2)", lambda fd: fd.build_model(4, 2)),
        ("symmetric n=2 N=4",
         lambda fd: fd.ModelFamily(2, "symmetric").model(4)),
        ("triangle_model(5)", lambda fd: fd.triangle_model(5)),
    )

    def setup(self):
        fd = self.fd = import_freedgl()
        rng = random.Random(self.seed)
        self.order = list(range(len(self.MODELS) + 1))
        rng.shuffle(self.order)
        self.picks = [rng.randrange(1 << 30) for _ in self.MODELS]
        self._built = {}
        for model in (fd.triangle_model(2), fd.build_model(3, 2),
                      fd.ModelFamily(2, "symmetric").model(2)):
            fd.check_model_axioms(model)
        self._round_trip_of(fd.triangle_model(2), 0)
        list(fd.subdivision_morphism(2).chain_residues())

    def _round_trip_of(self, model, pick):
        fd = self.fd
        text = fd.emit_dgl(model.dgl)
        expect(fd.emit_dgl(fd.parse_dgl(text)) == text, True,
               "byte-identical DGL round trip")
        # the seed picks a codimension-1 face: their differentials cost the
        # same, while the top face's can cost far more (0.4 s in
        # tetra_model(4), against 0.01 s for a codimension-1 face)
        gens = model.gens
        faces = [n for n, deg in zip(gens.names, gens.degrees)
                 if deg == max(gens.degrees) - 1]
        name = faces[pick % len(faces)]
        x = model.dgl.d(fd.generator_elt(model.gens, model.N, name))
        line = fd.emit_element(x)
        y = fd.parse_element(line, model.gens, model.N)
        expect((y == x, fd.emit_element(y) == line), (True, True),
               "element round trip of d %s" % name)

    def _build(self, i):
        label, make = self.MODELS[i]
        model = make(self.fd)
        report = self.fd.check_model_axioms(model)
        bad = sorted(k for k, v in report.items() if k != "ok" and v)
        expect((report["ok"], bad), (True, []), "axioms of %s" % label)
        self._built[i] = model

    def _round_trip(self, i):
        model = self._built.pop(i, None)
        if model is None:
            raise Mismatch("%s was not built" % self.MODELS[i][0])
        self._round_trip_of(model, self.picks[i])

    def _subdivision(self):
        residues = [name for name, r in
                    self.fd.subdivision_morphism(6).chain_residues()
                    if not r.is_zero()]
        expect(residues, [], "subdivision chain-map residues")

    def jobs(self, in_process=False):
        out = []
        for i in self.order:
            if i == len(self.MODELS):
                out.append(("subdivision_morphism(6)", self._subdivision))
                continue
            label = self.MODELS[i][0]
            out.append((label, lambda i=i: self._build(i)))
            out.append(("round trip " + label, lambda i=i: self._round_trip(i)))
        return out


COEFFS = tuple(Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3))


class Series(Workload):
    """BCH algebra on three degree-0 generators."""

    name = "series"
    nominal_pass_s = 0.9
    N = 5
    CONJUGATIONS = 3
    # associativity at N=5 costs 0.4-0.5 s a triple: see Workload
    TRIPLE_N = 4
    TRIPLES = 4
    FREE_N = 5

    def setup(self):
        fd = self.fd = import_freedgl()
        rng = random.Random(self.seed)
        gens = fd.GenSet([("x", 0), ("y", 0), ("z", 0)])

        def element(i, N):
            # element i has the same support for every seed, because the
            # cost of bch follows the support: with seeded supports an
            # associativity job at N=5 cost 0.30-0.43 s from seed to seed
            support = random.Random(i)
            out = fd.Elt(gens, N, {})
            for k in range(1, N + 1):
                basis = fd.lie.lyndon_slice_basis(gens, 0, k)
                for rec in support.sample(basis, 2):
                    term = fd.Elt(gens, N, rec[1])
                    out = out + rng.choice(COEFFS) * term
            return out

        ids = iter(range(2 * self.CONJUGATIONS + 3 * self.TRIPLES))
        self.pairs = [tuple(element(next(ids), self.N) for _ in range(2))
                      for _ in range(self.CONJUGATIONS)]
        self.triples = [tuple(element(next(ids), self.TRIPLE_N)
                              for _ in range(3))
                        for _ in range(self.TRIPLES)]
        self.free = fd.GenSet([("x", 0), ("y", 0), ("z", 0)])
        small = fd.GenSet([("x", 0), ("y", 0)])
        x, y = (fd.generator_elt(small, 3, n) for n in ("x", "y"))
        fd.exp_ad(x, y)
        fd.parse_element(fd.emit_element(fd.bch(x, y)), small, 3)
        fd.barycentric_mc(fd.seed_family(2).model(1))

    def _conjugation(self, x, y):
        fd = self.fd
        expect(fd.bch(x, y, -x) == fd.exp_ad(x, y), True,
               "bch(x, y, -x) == exp_ad(x, y)")

    def _associativity(self, x, y, z):
        fd = self.fd
        expect(fd.bch(fd.bch(x, y), z) == fd.bch(x, fd.bch(y, z)), True,
               "bch associativity")

    def _free(self):
        fd = self.fd
        gens = self.free
        N = self.FREE_N
        x, y, z = (fd.generator_elt(gens, N, n) for n in ("x", "y", "z"))
        b = fd.bch(x, y, z)
        half = Fraction(1, 2)
        want2 = half * (fd.bracket(x, y) + fd.bracket(x, z) + fd.bracket(y, z))
        expect((b.length_part(1) == x + y + z, b.length_part(2) == want2),
               (True, True), "low-order terms of bch(x, y, z)")
        line = fd.emit_element(b)
        back = fd.parse_element(line, gens, N)
        expect((back == b, fd.emit_element(back) == line), (True, True),
               "element round trip of bch(x, y, z)")

    def _barycentric(self, n):
        fd = self.fd
        model = fd.seed_family(4).model(n)
        x = fd.barycentric_mc(model)
        bary = fd.zero_elt(model.gens, 4)
        for i in range(n + 1):
            bary = bary + Fraction(1, n + 1) * model.gen((i,))
        expect((fd.is_mc(model.dgl, x), x.length_part(1) == bary),
               (True, True), "barycentric MC element of the %d-simplex" % n)

    def jobs(self, in_process=False):
        out = [("conjugation %d" % i, lambda p=p: self._conjugation(*p))
               for i, p in enumerate(self.pairs)]
        out += [("associativity %d" % i, lambda t=t: self._associativity(*t))
                for i, t in enumerate(self.triples)]
        out.append(("bch of 3 free generators N=%d" % self.FREE_N, self._free))
        out += [("barycentric_mc n=%d N=4" % n,
                 lambda n=n: self._barycentric(n)) for n in (1, 2)]
        return out


class Cli(Workload):
    """The freedgl command as users run it: one subprocess per job."""

    name = "cli"
    nominal_pass_s = 2.5
    setup_repeats = 9
    rss_of_children = True
    # (label, argv, pinned stdout file); the first five are the c16 list
    COMMANDS = (
        ("build-model", ["build-model", "--n", "2", "--trunc", "3"]),
        ("model-of-complex", ["model-of-complex", "--complex", "{fig8}",
                              "--trunc", "3"]),
        ("homology-complex", ["homology", "--complex", "{fig8}",
                              "--trunc", "2"]),
        ("malcev-fig8", ["malcev", "--complex", "{fig8}", "--trunc", "3"]),
        ("check-seed", ["check", "--n", "2", "--trunc", "3"]),
        ("pi-torus", ["pi", "--complex", "{torus}", "--n", "1",
                      "--trunc", "3"]),
        ("bch", ["bch", "--trunc", "5", "--count", "3"]),
        ("whitney", ["whitney", "--n", "3", "--check"]),
        ("check-symmetric", ["check", "--n", "2", "--trunc", "4",
                             "--flavor", "symmetric"]),
        ("homology-model", ["homology", "--model", "{model}"]),
        ("check-model", ["check", "--model", "{model}"]),
    )
    # S^2 is simply connected: every stage of its tower is trivial
    SPHERE_TOWER = (b"malcev\ntrunc 3\nstage 1: dim 0 new 0\n"
                    b"stage 2: dim 0 new 0\nstage 3: dim 0 new 0\n")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.root = HERE.parent
        self.files = {k: self.work_dir / ("%s.%s" % (k, ext)) for k, ext in
                      (("fig8", "cpx"), ("torus", "cpx"), ("sphere", "cpx"),
                       ("model", "dgl"))}
        self.expected = {label: (EXPECTED / (label + ".out")).read_bytes()
                         for label, _ in self.COMMANDS}

    def _argv(self, argv):
        return [a.format(**{k: str(p) for k, p in self.files.items()})
                for a in argv]

    def _subprocess(self, argv, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-m", "freedgl.cli"] + argv,
                              capture_output=True, env=env, cwd=str(self.root),
                              timeout=150)

    def setup(self):
        rng = random.Random(self.seed)
        self.hash_seeds = (rng.randrange(1, 1 << 31), rng.randrange(1, 1 << 31))
        self.work_dir.mkdir(parents=True, exist_ok=True)
        # the complexes are the fixed c16 inputs: their text is not in the
        # pinned output, but a relabeling would change model-of-complex
        self.files["fig8"].write_text(bouquet(2))
        self.files["torus"].write_text(TORUS)
        self.files["sphere"].write_text(SPHERE)
        proc = self._subprocess(["build-model", "--n", "2", "--trunc", "3",
                                 "--out", str(self.files["model"])],
                                self.hash_seeds[0])
        expect(proc.returncode, 0, "build-model --out exit code")

    def _run_subprocess(self, argv, want, hash_seed):
        proc = self._subprocess(self._argv(argv), hash_seed)
        what = " ".join(argv)
        if proc.stderr:
            what += " (stderr: %s)" % proc.stderr.decode().strip()
        expect((proc.returncode, proc.stdout), (0, want), what)

    def _run_in_process(self, argv, want):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.fd.cli.run(self._argv(argv))
        expect((code, out.getvalue().encode()), (0, want), " ".join(argv))

    def jobs(self, in_process=False):
        out = []
        for i, (label, argv) in enumerate(self.COMMANDS):
            want = self.expected[label]
            if in_process:
                job = (lambda argv=argv, want=want:
                       self._run_in_process(argv, want))
            else:
                seed = self.hash_seeds[i % 2]
                job = (lambda argv=argv, want=want, seed=seed:
                       self._run_subprocess(argv, want, seed))
            out.append((label, job))
        return out

    def probes(self):
        argv = ["malcev", "--complex", "{sphere}", "--trunc", "3"]
        return [("freedgl malcev S^2 --trunc 3",
                 lambda: self._run_subprocess(argv, self.SPHERE_TOWER,
                                              self.hash_seeds[0]))]


WORKLOADS = {cls.name: cls for cls in (Tower, Build, Series, Cli)}
