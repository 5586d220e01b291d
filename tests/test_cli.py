"""Command-line surface: subcommands, exit codes, deterministic output."""

import hashlib
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from freedgl import cli
from freedgl.cli import run
from freedgl.serialize import parse_dgl

from test_complexes import LINE_SOUP

CIRCLE = "0 1\n1 2\n0 2\n"
FIG8 = "0 1\n1 2\n0 2\n0 3\n3 4\n0 4\n"
S2 = "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"


def go(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bch_pinned_prefix(capsys):
    code, out, _ = go(capsys, ["bch", "--trunc", "3"])
    assert code == 0
    assert out.startswith("1 x1 + 1 x2 + 1/4 [x1,x2] - 1/4 [x2,x1]")


def test_build_model_interval_values(capsys):
    code, out, _ = go(capsys, ["build-model", "--n", "1", "--trunc", "6"])
    assert code == 0
    edge = [l for l in out.splitlines() if l.startswith("d a01")][0]
    assert "-1 a0 + 1 a1" in edge
    assert "- 1/4 [a0,a01] - 1/4 [a1,a01] + 1/4 [a01,a0] + 1/4 [a01,a1]" in edge


def test_build_model_out_file(tmp_path, capsys):
    path = tmp_path / "tri.dgl"
    code, out, _ = go(capsys, ["build-model", "--n", "2", "--trunc", "3",
                               "--out", str(path)])
    assert code == 0 and out == ""
    L = parse_dgl(path.read_text())
    assert not list(L.check_d_squared())


def test_unwritable_out_is_refused_before_any_build(tmp_path, capsys,
                                                   monkeypatch):
    # the probe of a writable path leaves no file behind when the command
    # then fails
    complex_path = tmp_path / "bad.cpx"
    complex_path.write_text("0 1\n0 x\n")
    target = tmp_path / "m.dgl"
    code, _, err = go(capsys, ["model-of-complex", "--complex",
                               str(complex_path), "--out", str(target)])
    assert code == 2 and "line 2" in err
    assert not target.exists()

    def no_build(*args):
        raise AssertionError("a builder ran")

    monkeypatch.setattr(cli, "ModelFamily", no_build)
    path = "/nonexistent/dir/m.dgl"
    code, out, err = go(capsys, ["build-model", "--n", "4", "--trunc", "3",
                                 "--out", path])
    assert code == 2 and out == ""
    assert err == ("usage error: cannot write %s: [Errno 2] No such file or "
                   "directory: %r\n" % (path, path))


def test_model_of_complex_roundtrip(tmp_path, capsys):
    path = tmp_path / "circle.cpx"
    path.write_text(CIRCLE)
    code, out, _ = go(capsys, ["model-of-complex", "--complex", str(path),
                               "--trunc", "2"])
    assert code == 0
    L = parse_dgl(out)
    assert len(L.gens) == 6
    assert not list(L.check_d_squared())


def test_homology_of_complex(tmp_path, capsys):
    path = tmp_path / "circle.cpx"
    path.write_text(CIRCLE)
    code, out, _ = go(capsys, ["homology", "--complex", str(path),
                               "--trunc", "2"])
    assert code == 0
    assert "H[-1] = 1" in out and "H[0] = 1" in out

    # the degree window belongs to the model route only
    code, out, err = go(capsys, ["homology", "--complex", str(path),
                                 "--degrees=0:1"])
    assert code == 2 and out == ""
    assert "--degrees" in err


def test_homology_of_model_file(tmp_path, capsys):
    path = tmp_path / "tri.dgl"
    go(capsys, ["build-model", "--n", "2", "--trunc", "3",
                "--out", str(path)])
    code, out, _ = go(capsys, ["homology", "--model", str(path),
                               "--degrees=-2:0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "homology"
    assert "H[-2] = 0" in lines and "H[-1] = 0" in lines and "H[0] = 0" in lines

    # d(d a) = c != 0: rejected before any homology is computed
    bad = tmp_path / "bad.dgl"
    bad.write_text("dgl\ngens a:1 b:0 c:-1\ntrunc 2\n"
                   "d a = 1 b\nd b = 1 c\nd c = 0\n")
    code, out, err = go(capsys, ["homology", "--model", str(bad)])
    assert code == 2 and out == ""
    assert "d^2 is not zero on a" in err

    # a generator name the element syntax cannot read is refused on its line
    odd = tmp_path / "odd.dgl"
    odd.write_text("dgl\ngens 1a:-1 b-c:0\ntrunc 2\n")
    code, out, err = go(capsys, ["homology", "--model", str(odd)])
    assert code == 2 and out == ""
    assert "line 2" in err and "'1a'" in err


def test_malcev_stages(tmp_path, capsys):
    path = tmp_path / "fig8.cpx"
    path.write_text(FIG8)
    code, out, _ = go(capsys, ["malcev", "--complex", str(path),
                               "--trunc", "3"])
    assert code == 0
    assert "stage 1: dim 2 new 2" in out
    assert "stage 2: dim 3 new 1" in out
    assert "stage 3: dim 5 new 2" in out
    sphere = tmp_path / "s2.cpx"
    sphere.write_text(S2)
    code, out, _ = go(capsys, ["malcev", "--complex", str(sphere),
                               "--trunc", "3"])
    assert code == 0
    for k in (1, 2, 3):
        assert "stage %d: dim 0 new 0" % k in out


def test_pi_subcommand(tmp_path, capsys):
    fig8 = tmp_path / "fig8.cpx"
    fig8.write_text(FIG8)
    code, out, _ = go(capsys, ["pi", "--complex", str(fig8), "--n", "1",
                               "--trunc", "2"])
    assert code == 0
    assert "pi_1 dim 3" in out and "abelian no" in out

    circle = tmp_path / "circle.cpx"
    circle.write_text(CIRCLE)
    code, out, _ = go(capsys, ["pi", "--complex", str(circle), "--n", "1",
                               "--trunc", "3"])
    assert code == 0
    assert "pi_1 dim 1" in out and "abelian yes" in out
    code, out, _ = go(capsys, ["pi", "--complex", str(circle), "--n", "2",
                               "--trunc", "3"])
    assert code == 0
    assert "pi_2 dim 0" in out

    tri = tmp_path / "tri.cpx"
    tri.write_text("0 1 2\n")
    code, out, _ = go(capsys, ["pi", "--complex", str(tri), "--n", "1"])
    assert code == 0
    assert "pi_1 dim 0" in out and "abelian yes" in out


def test_basepoint_is_a_vertex_id_of_the_file(tmp_path, capsys):
    path = tmp_path / "shifted.cpx"
    path.write_text("10 11\n11 12\n10 12\n")
    for cmd, line in ((["pi", "--n", "1"], "pi_1 dim 1"),
                      (["malcev"], "stage 2: dim 1 new 0")):
        argv = cmd + ["--complex", str(path), "--trunc", "2"]
        for extra in ([], ["--basepoint", "10"], ["--basepoint", "12"]):
            code, out, _ = go(capsys, argv + extra)
            assert code == 0 and line in out, (cmd, extra)
        code, out, err = go(capsys, argv + ["--basepoint", "0"])
        assert code == 2 and out == "", cmd
        assert "basepoint 0 is not a vertex" in err


def test_whitney_listing_and_suite(capsys):
    code, out, _ = go(capsys, ["whitney", "--n", "1"])
    assert code == 0
    assert "w_01 = dt1" in out
    code, out, _ = go(capsys, ["whitney", "--n", "2", "--check"])
    assert code == 0
    assert "FAIL" not in out
    assert "projection_splits_inclusion ok" in out


@pytest.mark.parametrize("n,digest", [
    (1, "01c629ced31261050381a9647807d99bca8511c3710544546765ff647725843d"),
    (2, "de8db22673128e03f467de1c5354a71e2e87e0ff321ca8cb004ec1a4b745a2fb"),
    (3, "ac5a504e19d354a9feae71fa1f4277e97a2f7f20d2a22ec1c30afe2f04f54396"),
])
def test_whitney_listing_is_pinned(capsys, n, digest):
    # sha256 of the stdout of `freedgl whitney --n N`, the elementary form
    # of every face
    code, out, _ = go(capsys, ["whitney", "--n", str(n)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_clean_and_corrupted(tmp_path, capsys):
    path = tmp_path / "tri.dgl"
    go(capsys, ["build-model", "--n", "2", "--trunc", "4",
                "--out", str(path)])
    code, out, _ = go(capsys, ["check", "--model", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "ok"

    bad = tmp_path / "bad.dgl"
    bad.write_text(path.read_text().replace(
        "d a01 = -1 a0 + 1 a1", "d a01 = -1 a0 + 2 a1"))
    code, out, _ = go(capsys, ["check", "--model", str(bad)])
    assert code == 1
    assert "d_squared FAIL a01:" in out
    assert out.splitlines()[-1] == "FAIL"


def test_check_built_model_axioms(capsys):
    code, out, _ = go(capsys, ["check", "--n", "2", "--trunc", "3",
                               "--flavor", "symmetric"])
    assert code == 0
    for key in ("d_squared", "vertices_mc", "linear_part", "cofaces"):
        assert "%s ok" % key in out


def test_usage_errors_exit_two(tmp_path, capsys):
    # a readable model file, so the --model flag errors below are not
    # read errors
    model = tmp_path / "tri.dgl"
    assert go(capsys, ["build-model", "--n", "2", "--trunc", "3",
                       "--out", str(model)])[0] == 0
    model = str(model)
    for argv in (
        [],
        ["no-such-command"],
        ["bch", "--trunc", "0"],
        ["bch", "--count", "1"],
        ["build-model", "--n", "1", "--flavor", "fancy"],
        ["homology"],
        ["pi", "--complex", "x.cpx", "--n", "0"],
        ["check"],
        ["check", "--model", "/nonexistent/path.dgl"],
        ["check", "--model", ""],
        ["homology", "--model", ""],
        ["build-model", "--n", "1", "--out", "/nonexistent/dir/m.dgl"],
        ["build-model", "--n", "1", "--out", "/"],
        ["whitney", "--n", "-1"],
        ["homology", "--model", model, "--trunc", "2"],
        ["check", "--model", model, "--trunc", "9"],
        ["check", "--model", model, "--flavor", "symmetric"],
    ):
        code, out, err = go(capsys, argv)
        assert code == 2, argv
        assert err.strip() and not out, argv


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.cpx"
    bad.write_text("0 1\n0 x\n")
    code, _, err = go(capsys, ["homology", "--complex", str(bad)])
    assert code == 2
    assert "line 2" in err

    # a coefficient that is no rational, in a model file
    model = tmp_path / "bad.dgl"
    for coeff in ("1/0", "1/2/3", "1\u00b2"):
        model.write_text("dgl\ngens a:-1 x:0\ntrunc 2\nd x = %s a\n" % coeff)
        code, out, err = go(capsys, ["homology", "--model", str(model)])
        assert code == 2 and not out
        assert err == "parse error: line 4: bad rational %r\n" % coeff

    disconnected = tmp_path / "two.cpx"
    disconnected.write_text("0\n1\n")
    code, _, err = go(capsys, ["malcev", "--complex", str(disconnected),
                               "--trunc", "2"])
    assert code == 2
    assert "components" in err


def test_deeply_nested_model_file(tmp_path, capsys):
    # a bracket word nested 5000 deep has 5001 letters, so it is 0 at trunc 3
    word = "[" * 5000 + "a" + ",a]" * 5000
    head = "dgl\ngens a:-1 x:0\ntrunc 3\n"
    files = {}
    for name, line in (("deep", "d x = 1 " + word), ("zero", "d x = 0"),
                       ("unbalanced", "d x = 1 " + word[:-1])):
        files[name] = tmp_path / (name + ".dgl")
        files[name].write_text(head + line + "\n")
    code, out, err = go(capsys, ["homology", "--model", str(files["deep"])])
    assert code == 0 and "Traceback" not in err
    _, zero_out, _ = go(capsys, ["homology", "--model", str(files["zero"])])
    assert out == zero_out and out
    code, out, err = go(capsys, ["homology", "--model",
                                 str(files["unbalanced"])])
    assert code == 2 and out == ""
    assert "line 4" in err and "Traceback" not in err


def test_repeat_runs_are_identical(tmp_path, capsys):
    path = tmp_path / "fig8.cpx"
    path.write_text(FIG8)
    argv = ["model-of-complex", "--complex", str(path), "--trunc", "3"]
    _, first, _ = go(capsys, argv)
    _, second, _ = go(capsys, argv)
    assert first == second and first


@pytest.mark.parametrize("window, message", [
    ("3", "--degrees wants LO:HI"),
    ("a:1", "--degrees wants integers"),
    ("-1:x", "--degrees wants integers"),
    ("2:1", "--degrees window is empty"),
])
def test_homology_degrees_refusals(tmp_path, capsys, window, message):
    model = tmp_path / "m.dgl"
    model.write_text("dgl\ngens a:-1 x:0\ntrunc 2\nd x = 1 a\n")
    code, out, err = go(capsys, ["homology", "--model", str(model),
                                 "--degrees=" + window])
    assert code == 2 and out == ""
    assert err == "usage error: %s\n" % message


@pytest.mark.parametrize("kind", ["malformed", "missing", "valid"])
def test_empty_degree_window_is_refused_before_the_model_is_read(
        tmp_path, capsys, kind):
    # the window is an argument, so its refusal neither waits for the file
    # to be read and d^2-checked nor hides behind the file's own errors
    model = tmp_path / "m.dgl"
    if kind != "missing":
        coeff = "1/0" if kind == "malformed" else "1"
        model.write_text("dgl\ngens a:-1 x:0\ntrunc 2\nd x = %s a\n" % coeff)
    code, out, err = go(capsys, ["homology", "--model", str(model),
                                 "--degrees=2:1"])
    assert code == 2 and out == ""
    assert err == "usage error: --degrees window is empty\n"


@pytest.mark.parametrize("argv", [
    ["build-model", "--n", "2", "--trunc", "3"],
    ["model-of-complex", "--complex", "FIG8", "--trunc", "3"],
])
def test_out_file_holds_the_stdout_report(tmp_path, capsys, argv):
    fig8 = tmp_path / "fig8.cpx"
    fig8.write_text(FIG8)
    argv = [str(fig8) if a == "FIG8" else a for a in argv]
    code, printed, _ = go(capsys, argv)
    assert code == 0 and printed
    path = tmp_path / "report.dgl"
    code, out, err = go(capsys, argv + ["--out", str(path)])
    assert code == 0 and out == "" and err == ""
    assert path.read_bytes() == printed.encode()


# complex files for the fuzzed command lines: mostly distinct faces of up
# to three of six vertices (so disconnected complexes and faces inside
# others occur), else line soup, and one in four ending in a byte that is
# not UTF-8
_FACES = st.lists(st.frozensets(st.integers(min_value=0, max_value=5),
                                min_size=1, max_size=3),
                  min_size=1, max_size=6, unique=True).map(
    lambda faces: "\n".join(" ".join(map(str, sorted(f))) for f in faces))
_COMPLEX_FILES = st.tuples(st.one_of(_FACES, _FACES, LINE_SOUP),
                           st.sampled_from([b"", b"", b"", b"\n0 \xff\n"])
                           ).map(lambda t: t[0].encode() + t[1])
_FUZZED_COMMANDS = (["pi", "--n", "1"], ["pi", "--n", "2"], ["malcev"],
                    ["homology"], ["model-of-complex"])


@given(_COMPLEX_FILES)
@settings(max_examples=60, deadline=None)
def test_complex_files_exit_0_or_2_and_raise_nothing(data):
    # every command reads the file through the one input boundary; a
    # malformed file is refused with exit 2 and one message on stderr,
    # never a traceback
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "k.cpx")
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in _FUZZED_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv + ["--complex", path, "--trunc", "2"])
            assert code in (0, 2), (argv, data)
            if code == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith(
                    ("usage error: ", "parse error: ", "error: "))
            else:
                assert out.getvalue() and err.getvalue() == ""
