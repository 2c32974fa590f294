import atexit
import contextlib
import copy
import functools
import gc
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import serialize
from starweyl.fuchsian import sample_system, signature
from starweyl.ratlin import format_rational
from starweyl.tolerances import MAX_TOL, SIG_LEN_MAX, STEPS_MAX


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "starweyl.cli", *args],
                          capture_output=True, text=True)


def test_roots_counts():
    out = run_cli("roots", "--type", "E8")
    assert out.returncode == 0
    assert "240 roots / 120 hyperplanes" in out.stdout
    out = run_cli("roots", "--type", "D4")
    assert "24 roots / 12 hyperplanes" in out.stdout
    doc = json.loads(run_cli("roots", "--type", "E6", "--format", "json").stdout)
    assert doc["count"] == 72 and doc["hyperplanes"] == 36


# sha256 of the `roots --format json` bytes: the root order and the
# document layout are pinned, not only the counts
_ROOTS_JSON_SHA256 = {
    "D4": "031b088c264329313b483d97af1258dd8658ab2ad3fd0c0ae5f0a64cb675ddc5",
    "E6": "76f62ca421f904d569fb2d35654477d4fe4df9178ad75332610edf6548b93b75",
    "E7": "ed7424177642c662b57d94e513b49b26ab7f0c0a8d77f21af942393a33cf73be",
    "E8": "c59d3230dd104382a976b396d06da292449330b40a191040202b69630ea9d45b",
}


@pytest.mark.parametrize("name", sorted(_ROOTS_JSON_SHA256))
def test_roots_json_bytes(capsys, name):
    from starweyl import cli
    assert cli.main(["roots", "--type", name, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _ROOTS_JSON_SHA256[name]


# level-zero lams on root hyperplanes, one of them over Q(i), and the
# sha256 of their `regular` report bytes (digests taken before the
# pairing kernel moved off numpy): the violated roots and their order are
# pinned
_REGULAR_WALL_LAMS = {
    "D4": ["1", "-1", "1/2", "-1/2", "-1"],
    "E6": ["0", "1/3", "-1/3", "2", "-1", "5/2", "-25/3"],
    "E7": ["1/2+1i", "-1/2-1i", "0", "1", "-1", "3/7", "-3/7", "-17/7-2i"],
    "E8": ["0", "1", "-1", "2/5", "-2/5", "3", "0", "-3", "-19/5"],
}
_REGULAR_JSON_SHA256 = {
    "D4": "d7421bbd245aa6452046b03c14176baa6708b1029147b6d12b1a744b1e2bb7fa",
    "E6": "d334e6a983ea4792a9034dd52b0755ba7b813ca2f4acb674b2ce970fba715a23",
    "E7": "a235cdfbd03dc99cecb4d29cf699b7c0133deca94312a977e696b0e0a47f47c1",
    "E8": "c9122c3998d6405079b7966db3992a981569ad858a057b188f5cbda65cb6956b",
}


def _write_lam(path, values):
    path.write_text(json.dumps({"schema": serialize.LAM_SCHEMA,
                                "values": values}))
    return str(path)


@pytest.mark.parametrize("name", sorted(_REGULAR_JSON_SHA256))
def test_regular_json_bytes(capsys, tmp_path, name):
    from starweyl import cli
    lam_file = _write_lam(tmp_path / "lam.json", _REGULAR_WALL_LAMS[name])
    assert cli.main(["regular", "--type", name, "--lam-file", lam_file]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["regular"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == _REGULAR_JSON_SHA256[name]


def test_sample_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ra = run_cli("sample", "--type", "E6", "--seed", "9", "--out", str(a))
    rb = run_cli("sample", "--type", "E6", "--seed", "9", "--out", str(b))
    assert ra.returncode == rb.returncode == 0
    assert "sum check: OK" in ra.stderr
    assert a.read_bytes() == b.read_bytes()


def test_regular_report(tmp_path):
    sysfile = tmp_path / "sys.json"
    run_cli("sample", "--type", "D4", "--seed", "2", "--out", str(sysfile))
    doc = json.loads(sysfile.read_text())
    lamfile = tmp_path / "lam.json"
    lamfile.write_text(json.dumps(doc["lam"]))
    rep = json.loads(run_cli("regular", "--type", "D4", "--lam-file",
                             str(lamfile)).stdout)
    assert rep["regular"] is True and rep["violated"] == []
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"schema": serialize.LAM_SCHEMA,
                                "values": ["0"] * 5}))
    rep = json.loads(run_cli("regular", "--type", "D4", "--lam-file",
                             str(zero)).stdout)
    assert rep["regular"] is False and len(rep["violated"]) == 24


def test_apply_involution_reports_signature(tmp_path):
    sysfile = tmp_path / "sys.json"
    run_cli("sample", "--type", "E6", "--seed", "3", "--out", str(sysfile))
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"schema": serialize.WORD_SCHEMA,
                                "tags": [["central"]]}))
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert run_cli("apply", "--system", str(sysfile), "--word", str(word),
                   "--out", str(once)).returncode == 0
    assert run_cli("apply", "--system", str(once), "--word", str(word),
                   "--out", str(twice)).returncode == 0
    base = serialize.system_in(json.loads(sysfile.read_text()))
    doc = json.loads(twice.read_text())
    assert "signature" in doc
    back = serialize.system_in(doc)
    assert signature(back, 4).distance(signature(base, 4)) < 1e-6


def test_orbit_csv_constant_when_mu_zero(tmp_path):
    sysfile = tmp_path / "sys.json"
    run_cli("sample", "--type", "D4", "--seed", "4", "--out", str(sysfile))
    mu = "[0, 0, 0, 0, 0]"
    out = run_cli("orbit", "--system", str(sysfile), "--mu", mu,
                  "--steps", "3")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("step,lam_0")
    lam_cols = [line.split(",")[1:6] for line in lines[1:]]
    assert all(c == lam_cols[0] for c in lam_cols)


def test_orbit_csv_marches_exactly(tmp_path):
    sysfile = tmp_path / "sys.json"
    run_cli("sample", "--type", "D4", "--seed", "4", "--out", str(sysfile))
    out = run_cli("orbit", "--system", str(sysfile), "--mu", "[0, 1, -1, 0]",
                  "--steps", "4")
    assert out.returncode == 0, out.stderr
    from fractions import Fraction
    lines = out.stdout.strip().splitlines()
    col = [Fraction(line.split(",")[2]) for line in lines[1:]]
    assert all(b - a == 1 for a, b in zip(col, col[1:]))


def test_sakai_csv_and_walls(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": serialize.CONFIG_SCHEMA,
        "points": ["1/2", "1/3", "1/5", "1/7", "2/3", "3/5", "5/7", "7/9", "1/9"]}))
    out = run_cli("sakai", "--config", str(cfg), "--mu",
                  "[1,0,0,0,0,0,0,0]", "--steps", "3")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "step," + ",".join(f"u_{i}" for i in range(1, 10)) + ",walls"
    assert len(lines) == 5


def test_integer_points_read_like_their_string_spelling(tmp_path):
    points = [1, -2, 3, 5, 7, 11]
    outs = []
    for spelled in (points, [str(p) for p in points]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": serialize.CONFIG_SCHEMA,
                                   "points": spelled}))
        out = run_cli("sakai", "--config", str(cfg), "--mu", "[1,0,0,0,0,0]",
                      "--steps", "2")
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0] == outs[1]


def test_sakai_refuses_rows_too_long_to_print(tmp_path):
    """A row past Python's int-to-str digit limit is refused before any
    row is written; a 4,300-digit point at step 0 still prints."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": serialize.CONFIG_SCHEMA,
        "points": ["9" * 4300, "7/4", "13/5", "10/3", "-3", "5/2", "1", "2",
                   "3"]}))
    argv = ["sakai", "--config", str(cfg), "--mu", "[1,0,0,0,0,0,0,0]"]
    out = run_cli(*argv, "--steps", "2")
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("input error: ")
    assert len(out.stderr.splitlines()) == 1 and out.stdout == ""
    out = run_cli(*argv, "--steps", "0")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[1].startswith("0," + "9" * 4300 + ",")


def test_option_bounds_are_inclusive(tmp_path):
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(serialize.dumps(_d4_document()))
    for sig_len in (1, SIG_LEN_MAX):
        out = run_cli("orbit", "--system", str(sysfile), "--mu", "[0,0,0,0]",
                      "--steps", "0", "--sig-len", str(sig_len))
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.splitlines()) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_SIX_POINTS))
    out = run_cli("sakai", "--config", str(cfg), "--mu", "[1,0,0,0,0,0]",
                  "--steps", "0")
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 2


def test_exit_codes():
    out = run_cli("apply", "--system", "/nonexistent.json", "--word",
                  "/also-missing.json")
    assert out.returncode == 2
    out = run_cli("roots", "--type", "Z9")
    assert out.returncode == 2  # argparse rejects the choice


def test_unwritable_out_is_input_error(tmp_path):
    path = tmp_path / "missing" / "x.json"
    out = run_cli("sample", "--type", "D4", "--out", str(path))
    assert out.returncode == 2
    assert out.stderr.splitlines()[-1].startswith(f"input error: cannot write {path}")
    assert out.stdout == "" and not path.parent.exists()


def test_orbit_bad_mu_is_input_error(tmp_path):
    sysfile = tmp_path / "sys.json"
    run_cli("sample", "--type", "D4", "--seed", "4", "--out", str(sysfile))
    out = run_cli("orbit", "--system", str(sysfile), "--mu", "[1, 0, 0, 0, 0]",
                  "--steps", "2")
    assert out.returncode == 2
    assert "level zero" in out.stderr


_GOLDEN_SAKAI = ["sakai", "--config",
                 str(Path(__file__).parent / "data" / "sakai_r9_wall.json"),
                 "--mu", "[1,0,-2,0,1,0,0,3]", "--steps", "30"]


def _loaded(code, modules=("numpy",)):
    """Which of modules are loaded after running code in a fresh
    interpreter."""
    out = subprocess.run([sys.executable, "-c", code + "\nimport json, sys\n"
                          f"print(json.dumps([m for m in {modules!r} "
                          "if m in sys.modules]))"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _imports_numpy(code):
    """Whether numpy is loaded after running code in a fresh interpreter."""
    return _loaded(code) == ["numpy"]


def _run_main(commands, absent):
    """Code running each cli command in turn and asserting, after each,
    that no module named in absent is loaded."""
    code = "import contextlib, io, sys\nfrom starweyl.cli import main\n"
    for k, argv in enumerate(commands):
        code += (f"with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert main({argv!r}) == 0\n"
                 f"assert not [m for m in {absent!r} if m in sys.modules], {k}\n")
    return code


def test_package_roots_and_sakai_do_not_import_numpy(tmp_path):
    assert not _imports_numpy("import starweyl")
    assert not _imports_numpy("import starweyl.quiver")
    regular = _write_lam(tmp_path / "regular.json",
                         ["1", "2", "3", "5", "-12"])
    wall = _write_lam(tmp_path / "wall.json", _REGULAR_WALL_LAMS["E8"])
    exact = [["roots", "--type", "E8"],
             ["regular", "--type", "D4", "--lam-file", regular],
             ["regular", "--type", "E8", "--lam-file", wall]]
    # roots and regular load neither numpy nor sakai, and none of the three
    # loads dataclasses or inspect
    assert not _imports_numpy(_run_main(exact, ("numpy", "starweyl.sakai",
                                                "dataclasses", "inspect")))
    assert not _imports_numpy(_run_main([_GOLDEN_SAKAI],
                                        ("numpy", "dataclasses", "inspect")))
    # the probe sees numpy once a matrix module is loaded
    assert _imports_numpy("import starweyl\nstarweyl.translate")


def test_orbit_does_not_import_numpy_random(tmp_path):
    sysfile = tmp_path / "sys.json"
    assert run_cli("sample", "--type", "D4", "--seed", "4", "--out",
                   str(sysfile)).returncode == 0
    argv = ["orbit", "--system", str(sysfile), "--mu", "[0, 1, 0, 0, -1]",
            "--steps", "2"]
    assert _loaded(_run_main([argv], ("numpy.random", "starweyl.sakai")),
                   ("numpy", "numpy.random")) == ["numpy"]


# the public names of the package, by the submodule that defines them
_EXPORTS = {
    "dynkin": ("AFFINE_TYPES", "AffineWeylElement", "ParamVector",
               "RootVector", "StarGraph", "enumerate_roots",
               "hyperplane_count", "is_regular", "lattice_index",
               "reflect_param", "reflect_root", "weight_lattice_basis",
               "weight_lattice_member"),
    "errors": ("DegeneracyError", "InputFormatError", "StarweylError"),
    "fuchsian": ("FuchsianSystem", "OrbitSpec", "Signature", "is_irreducible",
                 "leg_from_orbit", "make_system", "normalize",
                 "orbit_from_leg", "sample_system", "signature"),
    "quiver": ("AlmostAffineQuiver", "DimensionVector", "IncrementedQuiver",
               "QuiverRep", "dim_w", "expected_dim", "moment_map",
               "orbit_dimension", "permute_params", "project_params",
               "shift_params"),
    "sakai": ("PicardLattice", "PointConfig", "chi", "cremona_reflect",
              "reflect_pic", "sakai_orbit", "swap_points", "wall_check"),
    "weylops": ("IncrementedPair", "apply_word", "central_reflection",
                "dp_orbit", "leg_reflection", "lift",
                "light_translation_basis", "project", "scalar_shift",
                "tensor_shift", "translate"),
}


def test_main_leaves_the_callers_gc_state_alone(capsys):
    from starweyl import cli
    state = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
    hooks = atexit._ncallbacks()
    for _ in range(2):
        assert cli.main(["roots", "--type", "D4"]) == 0
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == state
    assert atexit._ncallbacks() <= hooks + 1  # one exit hook, however many calls


def test_command_exits_with_a_frozen_heap():
    # atexit runs the last registered first, so a probe registered before
    # main runs after main's hook
    code = ("import atexit, gc, sys\nfrom starweyl.cli import main\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "sys.exit(main(['roots', '--type', 'D4']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["D4: 24 roots / 12 hyperplanes", "True"]


def test_package_exports_resolve_lazily():
    import importlib

    import starweyl
    names = [n for names in _EXPORTS.values() for n in names]
    assert len(names) == 56
    assert sorted(starweyl.__all__) == sorted(names + ["__version__"])
    for module, exported in _EXPORTS.items():
        mod = importlib.import_module(f"starweyl.{module}")
        for name in exported:
            assert getattr(starweyl, name) is getattr(mod, name), name
    assert set(starweyl.__all__) <= set(dir(starweyl))
    with pytest.raises(AttributeError):
        starweyl.no_such_name
    with pytest.raises(ImportError):
        from starweyl import no_such_name  # noqa: F401


def _word(*tags):
    return {"schema": serialize.WORD_SCHEMA, "tags": list(tags)}


@functools.cache
def _d4_document():
    return serialize.system_out(sample_system("D4", 2)[0])


_SIX_POINTS = {"schema": serialize.CONFIG_SCHEMA,
               "points": ["1", "2", "3", "5", "7", "11"]}
_NAN = float("nan")
_BIG = "9" * 4000  # an option value far longer than an input-error line
_ZERO_2X2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def _set_first(field, change):
    """A mutation of a system document: change applied to its first pole
    (field "poles") or to the first entry of its first residue."""
    def mutate(doc):
        row = doc["poles"] if field == "poles" else doc["residues"][0][0]
        row[0] = change(row[0])
        return doc
    return mutate


@pytest.mark.parametrize("kind, doc", [
    ("word", _word(["leg"])),
    ("word", _word(["leg", 0])),
    ("word", _word(["leg", 99])),
    ("word", {"schema": serialize.WORD_SCHEMA, "tags": 5}),
    ("word", _word(["tensor", [0.5, 0, 0]])),
    ("word", _word(["leg", 1.5])),
    ("word", _word(["leg", True])),
    ("word", _word(["leg", "3"])),
    ("word", _word(["leg", 1, 2])),
    ("word", _word(["central", 5])),
    ("word", _word(["relabel", ["1", "0", "2", "3"]])),
    ("word", _word(["tensor", "100"])),
    ("word", _word(["translate", [0, 0]])),
    ("word", _word(["translate", [1, 0, 0, 0, -2, 0, 0]])),
    ("word", _word(["translate", [11, 0, 0, 0, -22]])),
    ("word", _word(["tensor", [10 ** 400, 1, 1]])),
    ("word", _word(["tensor", [str(10 ** 400), 1, 1]])),
    ("config", {"schema": serialize.CONFIG_SCHEMA, "points": ["1/2", "1/3"]}),
    ("config", {"schema": serialize.CONFIG_SCHEMA, "points": "123456"}),
    ("config", {"schema": serialize.CONFIG_SCHEMA,
                "points": [1, 2, 3, 5, 7, 11.5]}),
    ("config", {"schema": serialize.CONFIG_SCHEMA,
                "points": ["1+1i", "2", "3", "5", "7", "11"]}),
    ("config", {"schema": serialize.CONFIG_SCHEMA}),
    ("lam", {"schema": serialize.LAM_SCHEMA,
             "values": ["1/0", "0", "0", "0", "0"]}),
    ("lam", {"schema": serialize.LAM_SCHEMA,
             "values": ["1", "0", "0", "0", "0"]}),
    ("lam", {"schema": None, "values": ["0"] * 5}),
    ("lam", {"values": ["0"] * 5}),
    ("lam", {"schema": serialize.LAM_SCHEMA, "field": "x",
             "values": ["0"] * 5}),
    ("system", {"lam": {"schema": serialize.LAM_SCHEMA,
                        "values": [[0.5, 0.0]] * 5}}),
    ("system", {"offsets": [[0.0, 0.0]] * 4}),
    ("system", {"lam": {"schema": serialize.LAM_SCHEMA,
                        "values": ["0"] * 4}}),
    ("system", {"offsets": ["0", "0"]}),
    ("system", {"legs": [1, 1]}),
    ("system", {"legs": [2, 2, 2]}),
    ("system", {"legs": [1, 1, 1, 120]}),
    ("system", {"legs": [True, True, True, True]}),
    ("system", {"offsets": "0000"}),
    ("system", {"poles": [[0.0, 0.0]]}),
    ("system", {"poles": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}),
    ("system", {"residues": [[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]] * 4}),
    ("system", {"residues": []}),
    ("system", {"residues": [[[[_NAN, 0.0], [0.0, 0.0]], _ZERO_2X2[1]]]
                + [_ZERO_2X2] * 3}),
    ("system", {"poles": [[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]]}),
    ("system", {"poles": [[1e300, 0.0], [1e-300, 0.0], [0.0, 0.0]]}),
    ("system", {"poles": [[1e-310, 0.0], [0.0, 0.0], [1.0, 0.0]]}),
    ("system", {"tol": -1}),
    ("system", {"tol": 0}),
    ("system", {"tol": 1e300}),
    ("system", {"tol": True}),
    ("system", {"tol": "1e-9"}),
    ("orbit", {"tol": "1e-9"}),
    ("system", {"lam": {"schema": serialize.LAM_SCHEMA,
                        "values": [0.5, -0.25, -0.25, -0.25, -0.25]}}),
    ("system", {"offsets": [0.0] * 4}),
    ("system", _set_first("poles", lambda z: z + [99.0])),
    ("system", _set_first("poles", lambda z: [False, False])),
    ("system", _set_first("residues", lambda z: z + ["junk"])),
    ("system", _set_first("residues", lambda z: [True, 0.0])),
    ("sample", "-1"),
    ("sample", "0"),
    ("sample", "1e300"),
    ("sample-args", ["--seed", "-1"]),
    ("orbit-args", ["--sig-len", "0"]),
    ("orbit-args", ["--sig-len", "-3"]),
    ("orbit-args", ["--sig-len", "1000000000"]),
    ("orbit-args", ["--steps", "-1"]),
    ("orbit-args", ["--steps", str(STEPS_MAX + 1)]),
    ("config-args", ["--steps", "-1"]),
    ("config-args", ["--steps", str(STEPS_MAX + 1)]),
    ("config-args", ["--mu", "[1,2]", "--steps", "0"]),
    ("config-args", ["--mu", "[true,false,0,0,0,0]"]),
    ("orbit-args", ["--mu", "[true,false,false,false]"]),
    ("config-args", ["--steps", _BIG]),
    ("sample-args", ["--seed", "-" + _BIG]),
    ("orbit-args", ["--mu", f"[{_BIG},0,0,-{_BIG}]"]),
    ("orbit-args", ["--sig-len", _BIG]),
    # each entry within Python's 4,300-digit int-to-str limit, their sum not
    ("orbit-args", ["--mu", f"[{'9' * 4300},{'9' * 4300},0,0]"]),
    ("word", _word(["leg", int(_BIG)])),
    ("system", {"legs": [1, 1, 1, int(_BIG)]}),
    # argparse's own errors
    ("sample-args", ["--type", "X"]),
    ("orbit-args", ["--steps", "x" * 5000]),
    ("argv", ["sakai", "--mu", "[1,0,0,0,0,0]"]),
    ("sample-args", ["--no-such-option"]),
], ids=["leg-without-node", "leg-center", "leg-out-of-range", "tags-not-a-list",
        "float-tensor-shift", "float-leg", "boolean-leg", "string-leg",
        "leg-extra-element", "central-extra-element", "string-relabel",
        "string-tensor", "short-translate", "long-translate",
        "translate-sum-33", "tensor-int-overflow", "tensor-string-overflow",
        "two-point-config", "string-points", "float-point", "gaussian-point",
        "no-points", "lam-zero-denominator", "lam-off-level-zero",
        "lam-null-schema", "lam-no-schema", "lam-bad-field",
        "lam-pairs", "offset-pairs", "lam-wrong-length", "offsets-too-short",
        "legs-1-1", "legs-2-2-2", "legs-1-1-1-120", "boolean-legs",
        "string-offsets", "one-pole",
        "duplicate-poles", "non-square-residues", "no-residues", "nan-residue",
        "far-apart-poles", "pole-ratio-overflow", "near-poles",
        "negative-tol", "zero-tol", "huge-tol", "boolean-tol", "string-tol",
        "orbit-string-tol",
        "float-lam", "float-offsets",
        "three-entry-pole", "boolean-pole", "three-entry-residue",
        "boolean-residue",
        "sample-negative-tol", "sample-zero-tol", "sample-huge-tol",
        "sample-negative-seed",
        "orbit-zero-sig-len", "orbit-negative-sig-len", "orbit-huge-sig-len",
        "orbit-negative-steps", "orbit-huge-steps", "sakai-negative-steps",
        "sakai-huge-steps", "sakai-bad-mu-no-steps",
        "sakai-bool-mu", "orbit-bool-mu", "sakai-long-steps",
        "sample-long-seed", "orbit-long-mu-sum", "orbit-long-sig-len",
        "orbit-mu-sum-past-digit-limit", "long-leg", "long-legs-entry",
        "sample-bad-type", "orbit-5000-letter-steps", "sakai-without-config",
        "sample-unknown-option"])
def test_malformed_inputs_are_input_errors(tmp_path, kind, doc):
    args = []
    if kind.endswith("-args"):
        # a valid document with malformed options
        kind, args = kind[:-len("-args")], doc
        doc = {} if kind == "orbit" else _SIX_POINTS
    path = tmp_path / f"{kind}.json"
    if kind in ("system", "orbit"):
        doc = doc(copy.deepcopy(_d4_document())) if callable(doc) \
            else {**_d4_document(), **doc}
    path.write_text(json.dumps(doc))
    if kind in ("word", "system"):
        word = tmp_path / "leg1.json"
        word.write_text(json.dumps(_word(["leg", 1])))
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(serialize.dumps(_d4_document()))
        if kind == "word":
            out = run_cli("apply", "--system", str(sysfile), "--word", str(path))
        else:
            out = run_cli("apply", "--system", str(path), "--word", str(word))
    elif kind == "orbit":
        out = run_cli("orbit", "--system", str(path), "--mu", "[0,0,0,0]",
                      "--steps", "1", *args)
    elif kind == "config":
        out = run_cli("sakai", "--config", str(path), "--mu", "[1,0,0,0,0,0]",
                      *args)
    elif kind == "sample":
        out = run_cli("sample", "--type", "D4", *(args or ["--tol", doc]))
    elif kind == "argv":
        out = run_cli(*doc)
    else:
        out = run_cli("regular", "--type", "D4", "--lam-file", str(path))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("input error: ")
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200 and out.stdout == "", lines


@pytest.mark.parametrize("tag", [["tensor", [10 ** 400, 1, 1]], ["x" * 5000],
                                 ["tensor", ["7/" + "x" * 5000, 0, 0]]],
                         ids=["401-digit-shift", "long-kind", "long-rational"])
def test_input_error_line_echoes_a_bounded_input(tmp_path, tag):
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(serialize.dumps(_d4_document()))
    word = tmp_path / "word.json"
    word.write_text(json.dumps(_word(tag)))
    out = run_cli("apply", "--system", str(sysfile), "--word", str(word))
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, lines


def _last_residue_plus_5(doc):
    doc["residues"][-1] = [[[re + 5, im] for re, im in row]
                           for row in doc["residues"][-1]]


@pytest.mark.parametrize("mutate", [
    _last_residue_plus_5,
    lambda doc: doc.update(nu="7/3"),
    lambda doc: doc.update(type="E6"),
    lambda doc: doc.update(normalization="trace_zero"),
], ids=["last-residue", "nu", "type", "normalization"])
def test_system_fields_must_match_what_they_derive_from(tmp_path, capsys,
                                                        mutate):
    """system_out writes the last residue, nu, type and normalization
    beside the data they derive from; a document whose copy disagrees is
    an input error, not silently rebuilt."""
    from starweyl import cli
    doc = copy.deepcopy(_d4_document())
    mutate(doc)
    sysfile, word = tmp_path / "sys.json", tmp_path / "word.json"
    sysfile.write_text(json.dumps(doc))
    word.write_text(json.dumps(_word(["central"])))
    code = cli.main(["apply", "--system", str(sysfile), "--word", str(word)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error: ") and len(out.err.splitlines()) == 1


def test_translate_tag_accepts_what_mu_accepts(tmp_path, capsys):
    """A translate tag may give the finite coordinates only, as --mu may;
    the extending entry is completed and the word is echoed as given."""
    from starweyl import cli
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(json.dumps(_d4_document()))
    outs = []
    for mu in ([-1, 0, 0, 1], [-1, 0, 0, 1, 1]):
        word = tmp_path / "word.json"
        word.write_text(json.dumps(_word(["translate", mu])))
        assert cli.main(["apply", "--system", str(sysfile),
                         "--word", str(word)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("applied_word") == [["translate", mu]]
        outs.append(doc)
    assert outs[0] == outs[1]


def test_translate_tag_field_does_not_depend_on_the_spelling(tmp_path, capsys):
    """An integer spelled as a Gaussian rational ("-1+0i") is that
    integer: the result is the same system, with field tag Q."""
    from starweyl import cli
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(json.dumps(_d4_document()))
    outs = []
    for first in ("-1", "-1+0i"):
        word = tmp_path / "word.json"
        word.write_text(json.dumps(_word(["translate", [first, 0, 0, 1, 1]])))
        assert cli.main(["apply", "--system", str(sysfile),
                         "--word", str(word)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lam"]["field"] == "Q"
        outs.append(doc)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("tag, echo", [
    (["translate", ["-1+0i", 0, 0, 1, 1]], ["translate", ["-1", 0, 0, 1, 1]]),
    (["tensor", ["2/4", 0, 0]], ["tensor", ["1/2", 0, 0]]),
])
def test_applied_word_echoes_exact_entries_in_canonical_form(tmp_path, capsys,
                                                              tag, echo):
    from starweyl import cli
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(json.dumps(_d4_document()))
    word = tmp_path / "word.json"
    word.write_text(json.dumps(_word(tag)))
    assert cli.main(["apply", "--system", str(sysfile), "--word", str(word)]) == 0
    assert json.loads(capsys.readouterr().out)["applied_word"] == [echo]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
# places in a D4 document: a top-level field, one entry of a list field,
# or one complex entry of one residue
_PLACES = (
    [(key,) for key in ("schema", "type", "legs", "poles", "nu", "lam",
                        "offsets", "normalization", "tol", "residues")]
    + [("legs", 0), ("poles", 1), ("lam", "values"), ("lam", "values", 3),
       ("offsets", 2), ("residues", 1), ("residues", 0, 1), ("residues", 2, 0, 1),
       ("residues", 3, 1, 0, 0)])


def _mutated(doc, place, value):
    """A copy of doc with value at place, a path of keys and indices; the
    empty path replaces the whole document."""
    if not place:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = value
    return doc


def _exits_0_2_or_3(argv):
    """cli.main(argv) in process exits 0, 2 or 3, and a failure writes one
    stderr line of under 200 characters."""
    from starweyl import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200, lines


@settings(max_examples=120, deadline=None)
@given(place=st.sampled_from(_PLACES), value=_JSON)
def test_any_mutated_system_document_exits_0_2_or_3(tmp_path_factory, place,
                                                     value):
    work = tmp_path_factory.mktemp("doc")
    sysfile, word = work / "sys.json", work / "word.json"
    sysfile.write_text(json.dumps(_mutated(_d4_document(), place, value)))
    word.write_text(json.dumps(_word(["leg", 1])))
    _exits_0_2_or_3(["apply", "--system", str(sysfile), "--word", str(word)])


def _places(doc, path=()):
    """Every place in a JSON document: each key and index, nested."""
    for key, value in (doc.items() if isinstance(doc, dict)
                       else enumerate(doc)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


# a valid document of each other kind, and the command that reads it from
# "{doc}" (apply reads the D4 system from "{system}")
_DOCUMENTS = {
    "word": (_word(["leg", 1], ["central"], ["tensor", ["1/2", 0, 0]],
                   ["relabel", [1, 0, 2, 3]], ["translate", [-1, 0, 0, 1]]),
             ["apply", "--system", "{system}", "--word", "{doc}"]),
    "config": (_SIX_POINTS, ["sakai", "--config", "{doc}", "--mu",
                             "[1,0,0,0,0,0]", "--steps", "2"]),
    "lam": ({"schema": serialize.LAM_SCHEMA, "field": "Q",
             "values": ["1", "2", "3", "5", "-12"]},
            ["regular", "--type", "D4", "--lam-file", "{doc}"]),
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The D4 system and six-point configuration files, by the names the
    fuzzed invocations give them."""
    work = tmp_path_factory.mktemp("inputs")
    (work / "d4.json").write_text(serialize.dumps(_d4_document()))
    (work / "cfg.json").write_text(json.dumps(_SIX_POINTS))
    return {"system": str(work / "d4.json"), "config": str(work / "cfg.json")}


@settings(max_examples=200, deadline=None)
@given(where=st.sampled_from([(kind, place) for kind, (doc, _) in
                              _DOCUMENTS.items()
                              for place in [(), *_places(doc)]]),
       value=_JSON)
def test_any_mutated_word_config_or_lam_document_exits_0_2_or_3(
        tmp_path_factory, valid_inputs, where, value):
    kind, place = where
    doc, argv = _DOCUMENTS[kind]
    path = tmp_path_factory.mktemp(kind) / "doc.json"
    path.write_text(json.dumps(_mutated(doc, place, value)))
    _exits_0_2_or_3([a.format(doc=path, **valid_inputs) for a in argv])


def _outside(lo, hi):
    """Integers below lo or above hi, of any size."""
    return st.integers(max_value=lo - 1) | st.integers(min_value=hi + 1)


def _mu(size):
    """--mu text: size (or size - 1) small entries, any integers, or any
    JSON."""
    return (st.lists(st.integers(-2, 2), min_size=size - 1, max_size=size)
            | st.lists(st.integers(), max_size=size + 1) | _JSON).map(json.dumps)


_STEPS = st.integers(0, 3) | _outside(0, STEPS_MAX)
# a valid invocation of each command, and the values drawn for each of its
# options in turn: small valid sizes, so that no example runs a long orbit,
# and out-of-range values of any size
_INVOCATIONS = {
    "orbit": (["--system", "{system}", "--mu", "[0,1,0,0,-1]", "--steps", "2"],
              {"--mu": _mu(5), "--steps": _STEPS,
               "--sig-len": st.integers(1, 4) | _outside(1, SIG_LEN_MAX)}),
    "sakai": (["--config", "{config}", "--mu", "[1,0,0,0,0,0]", "--steps", "2"],
              {"--mu": _mu(6), "--steps": _STEPS}),
    "sample": (["--type", "D4"],
               {"--seed": st.integers(0, 99) | st.integers(max_value=-1),
                "--tol": st.floats(1e-12, MAX_TOL) | st.floats()}),
}


@settings(max_examples=200, deadline=None)
@given(where=st.sampled_from([(command, flag) for command, (_, options)
                              in _INVOCATIONS.items() for flag in options]),
       data=st.data())
def test_any_option_value_exits_0_2_or_3(valid_inputs, where, data):
    command, flag = where
    argv, options = _INVOCATIONS[command]
    # or any text, which argparse may refuse to convert
    value = data.draw(options[flag] | st.text(), label=flag)
    # the value is given last, as --flag=value, which argparse never reads
    # as an option of its own however the value starts
    _exits_0_2_or_3([command] + [a.format(**valid_inputs) for a in argv]
                    + [f"{flag}={value}"])


def test_qi_system_translates_from_the_cli(tmp_path, qi_d4_system):
    from starweyl.dynkin import ParamVector
    mu = [-1, 0, 0, 1, 1]
    sysfile = tmp_path / "qi.json"
    sysfile.write_text(serialize.dumps(serialize.system_out(qi_d4_system)))
    out = run_cli("orbit", "--system", str(sysfile), "--mu", json.dumps(mu),
                  "--steps", "2")
    assert out.returncode == 0, out.stderr
    lam2 = qi_d4_system.lam + ParamVector(tuple(2 * x for x in mu))
    last = out.stdout.strip().splitlines()[-1].split(",")
    assert last[:6] == ["2"] + [format_rational(v) for v in lam2.values]
    word = tmp_path / "word.json"
    word.write_text(json.dumps(_word(["translate", mu])))
    out = run_cli("apply", "--system", str(sysfile), "--word", str(word))
    assert out.returncode == 0, out.stderr
    lam1 = serialize.lam_in(json.loads(out.stdout)["lam"])
    assert lam1.values == (qi_d4_system.lam + ParamVector(tuple(mu))).values


def test_orbit_failure_exits_3_naming_the_step(tmp_path, monkeypatch, capsys):
    from starweyl import cli, weylops
    from starweyl.errors import DegeneracyError

    def wall(*args):
        raise DegeneracyError("eigenvector pairing is degenerate (w.v = 0)")

    sysfile = tmp_path / "sys.json"
    sysfile.write_text(serialize.dumps(
        serialize.system_out(sample_system("E6", 23)[0])))
    monkeypatch.setattr(weylops, "_unit_move", wall)
    code = cli.main(["orbit", "--system", str(sysfile), "--mu",
                     "[-1,0,0,1,0,0]", "--steps", "3"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("degeneracy: orbit step 1 failed (target lam's "
                              "smallest |root pairing| ")


def _orbit_marches(tmp_path, name, seed, mu, steps):
    """Sample a system, run orbit along mu, and check that every row has
    lam_0 + k mu: exit 0 means every step passed verify(), semisimplicity
    included.  Returns lam_0."""
    from starweyl import cli
    from starweyl.dynkin import ParamVector
    sysfile, csv = tmp_path / "sys.json", tmp_path / "orbit.csv"
    assert cli.main(["sample", "--type", name, "--seed", str(seed),
                     "--out", str(sysfile)]) == 0
    assert cli.main(["orbit", "--system", str(sysfile), "--mu", json.dumps(mu),
                     "--steps", str(steps), "--out", str(csv)]) == 0
    sysm = serialize.system_in(json.loads(sysfile.read_text()))
    if len(mu) < sysm.graph.node_count:
        mu = mu + [sysm.graph.extending_entry(mu)]
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == steps + 1
    for k, row in enumerate(rows):
        want = sysm.lam + ParamVector(tuple(F(k * x) for x in mu))
        assert row.split(",")[1:len(mu) + 1] == \
            [format_rational(v) for v in want.values]
    return sysm.lam


def test_e8_seed0_orbit_reproducer_exits_0(tmp_path):
    """Unbalanced, this orbit exited 3 ("gauge residue check failed")."""
    lam0 = _orbit_marches(tmp_path, "E8", 0, [-1, 0, 0, 1, 0, 1, 0, 0, 0], 10)
    # the command writes the golden lam track of sample_system
    golden = json.loads((Path(__file__).parent / "data" / "sample_lam.json")
                        .read_text())
    assert [format_rational(v) for v in lam0.values] == golden["E8"][0]


def test_e8_seed3_orbit_reproducer_exits_0(tmp_path):
    """A heavy unit translate whose first ranked plan fails and whose
    second carries it (test_translate_runs_each_sequence_once counts the
    plans of one step), run for two steps."""
    _orbit_marches(tmp_path, "E8", 3, [0, 0, 0, 0, 1, 0, 0, 0], 2)


def test_overflowing_residues_exit_3(tmp_path, capsys):
    """Residues of size 1e200 overflow every characteristic polynomial
    coefficient to NaN; the orbit test fails them instead of passing a NaN
    distance (apply used to exit 0 and write the system)."""
    import numpy as np

    from starweyl import cli
    doc = serialize.system_out(sample_system("D4", 1)[0])
    rng = np.random.default_rng(1)
    finite = [1e200 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2))) for _ in range(3)]
    doc["residues"] = [serialize.matrix_out(a) for a in finite + [-sum(finite)]]
    sysfile, word = tmp_path / "sys.json", tmp_path / "word.json"
    sysfile.write_text(json.dumps(doc))
    word.write_text(json.dumps(_word(["leg", 1])))
    code = cli.main(["apply", "--system", str(sysfile), "--word", str(word)])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err.startswith("degeneracy: residue is nan away ")


def test_orbit_mu_bound_is_checked_before_reading_the_system(tmp_path, capsys):
    from starweyl import cli
    from starweyl.tolerances import MU_NORM_MAX
    missing = str(tmp_path / "missing.json")
    for mu, message in (([MU_NORM_MAX + 1, 0, 0, 0], "sum |--mu| must be"),
                        ([-MU_NORM_MAX // 2, 0, 0, MU_NORM_MAX // 2 + 1],
                         "sum |--mu| must be"),
                        ([MU_NORM_MAX, 0, 0, 0], "cannot read")):
        code = cli.main(["orbit", "--system", missing, "--mu", json.dumps(mu)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("input error: ") and message in err
