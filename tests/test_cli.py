import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

from matroidkl import checks, cli, kl, matroids, realroot, series
from matroidkl.checks import build_suite
from matroidkl.cli import OutputRecord, main, supported_matrix
from matroidkl.graphs import make_family
from matroidkl.kl import N_MAX
from matroidkl.matroids import graphic_matroid
from matroidkl.poly import T, Poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_fan_closed(capsys):
    code, out, _ = run(capsys, "compute", "--family", "fan", "--n", "5",
                       "--kind", "kl", "--method", "closed")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["coeffs"] == ["1", "6", "2"]
    assert rec["flags"]["real_rooted"] is True
    assert rec["flags"]["all_negative"] is True
    assert rec["flags"]["degree"] == 2 and rec["flags"]["rank"] == 5


def test_compute_whirl_z(capsys):
    code, out, _ = run(capsys, "compute", "--family", "whirl", "--n", "3",
                       "--kind", "z", "--method", "closed")
    assert code == 0
    assert json.loads(out.strip())["coeffs"] == ["1", "9", "9", "1"]


def test_compute_wheel_brute(capsys):
    code, out, _ = run(capsys, "compute", "--family", "wheel", "--n", "4",
                       "--kind", "kl", "--method", "brute")
    assert code == 0
    assert json.loads(out.strip())["coeffs"] == ["1", "5"]


def test_compute_chromatic_and_characteristic(capsys):
    code, out, _ = run(capsys, "compute", "--family", "wheel", "--n", "4",
                       "--kind", "chromatic", "--method", "brute")
    assert code == 0
    brute = json.loads(out.strip())
    code, out, _ = run(capsys, "compute", "--family", "wheel", "--n", "4",
                       "--kind", "chromatic", "--method", "closed")
    assert code == 0
    assert json.loads(out.strip())["coeffs"] == brute["coeffs"]
    code, out, _ = run(capsys, "compute", "--family", "whirl", "--n", "4",
                       "--kind", "characteristic", "--method", "brute")
    assert code == 0
    closed = run(capsys, "compute", "--family", "whirl", "--n", "4",
                 "--kind", "characteristic", "--method", "closed")[1]
    assert json.loads(out.strip())["coeffs"] == json.loads(closed.strip())["coeffs"]


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--family", "fan", "--n", "5",
                       "--kind", "kl", "--method", "closed", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("family,n,kind,method,degree,rank")
    assert row.startswith("fan,5,kl,closed,2,5,true,true,1,6,2")


def test_unsupported_combo_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--family", "whirl", "--n", "9",
                       "--kind", "kl", "--method", "brute")
    assert code == 2
    assert "supported" in err
    code, _, err = run(capsys, "compute", "--family", "whirl", "--n", "4",
                       "--kind", "chromatic", "--method", "brute")
    assert code == 2
    code, _, err = run(capsys, "compute", "--family", "square", "--n", "4",
                       "--kind", "z", "--method", "recurrence")
    assert code == 2
    # every command fails fast past the size bound, before computing anything
    too_big = str(N_MAX + 1)
    for argv in (
        ("compute", "--family", "wheel", "--n", too_big, "--kind", "kl", "--method", "closed"),
        ("compute", "--family", "fan", "--n", too_big, "--kind", "kl", "--method", "recurrence"),
        ("table", "--family", "fan", "--kind", "z", "--max-n", too_big),
        ("verify", "--suite", "roots", "--max-n", too_big),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        bound = f"in 1..{N_MAX}" if argv[0] == "verify" else f"n <= {N_MAX}"
        assert f"{bound}, got {too_big}" in err, err
        # the matrix lists compute/table combinations, which verify errors are not about
        assert ("supported" in err) == (argv[0] != "verify")


def test_every_route_accepts_exactly_its_range(capsys):
    # the matrix printed on a rejection is the table itself
    matrix = supported_matrix()
    for (kind, method), (_, fams) in cli.ROUTES.items():
        for fam, (lo, hi) in fams.items():
            assert f"--family {fam} --kind {kind} --method {method}: n = {lo}..{hi}" in matrix
            code, out, _ = run(capsys, "compute", "--family", fam, "--n", str(lo),
                               "--kind", kind, "--method", method)
            assert code == 0, (kind, method, fam)
            assert json.loads(out)["n"] == lo
            for n in (lo - 1, hi + 1):
                code, out, err = run(capsys, "compute", "--family", fam, "--n", str(n),
                                     "--kind", kind, "--method", method)
                assert code == 2 and out == "", (kind, method, fam, n)
                assert matrix in err


def test_records_assert_theorem_invariants(monkeypatch):
    for name, kind, bad in (
        ("kl_closed", "kl", Poly([1, -1])),  # negative coefficient
        ("kl_closed", "kl", Poly([2, 1])),  # constant term not 1
        ("kl_closed", "kl", Poly([1, 1, 1])),  # degree 2, not below 4/2
        ("z_closed", "z", Poly([1, 2, 2, 2, 2])),  # degree 4, not palindromic
        ("z_closed", "z", Poly([1, 2, 1])),  # palindromic, degree 2, not 4
    ):
        monkeypatch.setattr(kl, name, lambda family, n, bad=bad: bad)
        with pytest.raises(ArithmeticError):
            cli.compute_record("whirl", 4, kind, "closed")
        monkeypatch.undo()
    # and they hold on every KL and Z route
    for (kind, method), (_, fams) in cli.ROUTES.items():
        if kind in ("kl", "z"):
            for fam, (lo, _) in fams.items():
                cli.compute_record(fam, lo + 1, kind, method)


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--family", "torus", "--n", "3", "--kind", "kl"])
    assert exc.value.code == 2


def test_json_roundtrip(capsys):
    _, out, _ = run(capsys, "compute", "--family", "wheel", "--n", "6",
                    "--kind", "kl", "--method", "closed")
    rec = OutputRecord(**json.loads(out.strip()))
    assert rec.to_json() == out.strip()
    assert rec.family == "wheel" and rec.n == 6
    # the JSON keys are the record's fields, in field order
    assert list(json.loads(out)) == ["family", "n", "kind", "method", "coeffs", "flags"]
    assert rec == cli.compute_record("wheel", 6, "kl", "closed")
    with pytest.raises(AttributeError):  # records are immutable
        rec.n = 7


def test_verify_recurrence_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recurrence", "--max-n", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_gf_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gf", "--max-n", "8")
    assert code == 0
    assert "PASS gf/kl_fan/order-8" in out
    assert "PASS gf/kl_wheel/order-8" in out
    # the lowest --max-n the flag check accepts
    code, out, _ = run(capsys, "verify", "--suite", "gf", "--max-n", "1")
    assert code == 0, out
    assert len(pass_names(out)) == 6 and "FAIL" not in out


def run_module(*argv, **kwargs):
    """python -m matroidkl argv, from the same source tree as the tests."""
    import matroidkl

    src = os.path.dirname(os.path.dirname(matroidkl.__file__))
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-m", "matroidkl", *argv], text=True, env=env,
                          timeout=120, **kwargs)


def test_python_m_matroidkl_runs():
    proc = run_module("verify", "--suite", "gf", "--max-n", "2", capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("6/6 checks passed\n")


def test_closed_stdout_keeps_the_outcome():
    # a reader that goes away before the output is written (`| head`) ends the
    # output, not the command: each still exits 0, with nothing on stderr
    for argv in (("verify", "--suite", "identities"),
                 ("table", "--family", "fan", "--kind", "z", "--max-n", "64"),
                 ("compute", "--family", "fan", "--n", "5", "--kind", "kl")):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_module(*argv, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_closed_stderr_keeps_the_usage_exit_code():
    # a usage error exits 2, not 1, when its message has no reader: the
    # error path guards stderr as the output path guards stdout
    for argv in (("compute", "--family", "whirl", "--n", "3", "--kind", "chromatic"),
                 ("table", "--family", "fan", "--kind", "kl", "--max-n", "65"),
                 ("verify", "--suite", "gf", "--max-n", "0")):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_module(*argv, stdout=subprocess.PIPE, stderr=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stdout) == (2, ""), argv


IMPORT_FOOTPRINT = """
import sys
from matroidkl import cli

assert cli.main(["compute", "--family", "fan", "--n", "4", "--kind", "kl",
                 "--method", "brute"]) == 0
assert "matroidkl.checks" not in sys.modules
from matroidkl import checks
for name, check in checks.build_suite("all", max_n=3):
    ok, detail = check()
    assert ok, (name, detail)
loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
assert not loaded, loaded
"""


def test_library_loads_no_dataclasses_or_inspect():
    # every CLI run, verify suite and benchmark repetition is a fresh process
    # that imports the library; the record types are named tuples, so none of
    # them loads dataclasses and, through it, inspect, ast, dis and tokenize;
    # and a compute process does not import the verify suite
    import matroidkl

    src = os.path.dirname(os.path.dirname(matroidkl.__file__))
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_verify_oracle_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "4")
    assert code == 0
    assert "PASS oracle/fan/4" in out
    assert "PASS oracle/whirl/4" in out
    assert "PASS oracle/square/4" in out
    assert "PASS oracle/whirl-flats/4" in out
    assert "FAIL" not in out


def test_oracle_suite_spans_the_brute_ranges():
    # one check per (family, n) of the brute route, then the whirl flats over
    # the whole whirl brute range
    brute = cli.ROUTES["kl", "brute"][1]
    want = [f"oracle/{fam}/{n}" for fam, (lo, hi) in brute.items() for n in range(lo, hi + 1)]
    want += [f"oracle/whirl-flats/{n}" for n in range(brute["whirl"][0], brute["whirl"][1] + 1)]
    # then the chromatic polynomials over the chromatic brute range
    chromatic = cli.ROUTES["chromatic", "brute"][1]
    want += [f"oracle/chromatic/{fam}/{n}" for fam, (lo, hi) in chromatic.items()
             for n in range(lo, hi + 1)]
    assert [name for name, _ in build_suite("oracle")] == want
    assert want[-1] == "oracle/chromatic/wheel/10"
    assert len(build_suite("all")) == 983


# claim -> the (kind, method) routes that each of its checks compares with a
# second route, at the family and n of its name; a gf check compares every n up
# to its order.  The square's chromatic check reads the fan's closed form.
COMPARES = {
    r"oracle/(?P<fam>fan|square|wheel|whirl)/(?P<n>\d+)":
        [(kind, method) for kind in ("kl", "z", "characteristic") for method in ("brute", "closed")],
    r"oracle/chromatic/(?P<fam>fan|wheel)/(?P<n>\d+)": [("chromatic", "brute"),
                                                        ("chromatic", "closed")],
    r"oracle/chromatic/(?P<fam>square)/(?P<n>\d+)": [("chromatic", "brute")],
    r"recurrence/(?P<fam>\w+)/(?P<n>\d+)": [("kl", "recurrence"), ("kl", "closed")],
    r"gf/kl_(?P<fam>\w+)/order-(?P<top>\d+)": [("kl", "closed")],
    r"gf/z_(?P<fam>\w+)/order-(?P<top>\d+)": [("z", "closed")],
}
# (kind, method, family) -> (the n that compute and table serve and no verify
# check compares with a second route, why)
UNCOMPARED = {
    **{(kind, "closed", "square"): (range(9, N_MAX + 1), "the fan's closed form, by the paper's "
                                    "theorem; oracle/square/<n> checks that up to n = 8")
       for kind in ("kl", "z")},
    **{("characteristic", "closed", fam): (range(9, N_MAX + 1), "no second route above the "
                                           "brute range yet")
       for fam in ("fan", "square", "wheel", "whirl")},
    **{("chromatic", "closed", fam): (range(11, N_MAX + 1), "no second route above the "
                                      "brute range yet")
       for fam in ("fan", "wheel")},
    ("kl", "recurrence", "whirl"): (range(1, 3), "below the whirl's closed form; "
                                    "identities/spot-values pins both values"),
}


def test_every_served_route_is_compared_with_a_second_route():
    # a new route or a wider range fails here until a check or an entry of
    # UNCOMPARED covers it, and an entry that a check covers fails too
    served = {(kind, method, fam, n) for (kind, method), (_, fams) in cli.ROUTES.items()
              for fam, (lo, hi) in fams.items() for n in range(lo, hi + 1)}
    compared = set()
    for name, _ in build_suite("all"):
        for pattern, routes in COMPARES.items():
            match = re.fullmatch(pattern, name)
            if match:
                fields = match.groupdict()
                ns = ([int(fields["n"])] if "n" in fields
                      else range(int(fields["top"]) + 1))
                compared |= {(kind, method, fields["fam"], n)
                             for kind, method in routes for n in ns}
    exempt = {(kind, method, fam, n) for (kind, method, fam), (ns, _) in UNCOMPARED.items()
              for n in ns}
    assert exempt <= served, sorted(exempt - served)
    assert served - compared == exempt, (sorted(served - compared - exempt),
                                         sorted(exempt & compared))


def test_build_suite_refuses_non_int_sizes():
    # a bool would pass for 1, a float fail inside range()
    for max_n in (True, 2.5):
        with pytest.raises(TypeError, match="--max-n must be an int"):
            build_suite("all", max_n=max_n)


def test_roots_suite_reads_the_closed_routes(capsys, monkeypatch):
    # one check per closed KL and Z record over each closed route's range,
    # then one fan interlacing check per n from 3 to 25
    for max_n in (None, 1, 2, 5, 30):
        hi = N_MAX if max_n is None else max_n
        want = [f"roots/{kind}-negative/{fam}/{n}" for kind in ("kl", "z")
                for fam, (lo, top) in cli.ROUTES[kind, "closed"][1].items()
                for n in range(lo, min(hi, top) + 1)]
        want += [f"roots/fan-interlacing/{n}" for n in range(3, min(hi, 25) + 1)]
        assert [name for name, _ in build_suite("roots", max_n=max_n)] == want, max_n
    code, out, _ = run(capsys, "verify", "--suite", "roots")
    assert code == 0 and len(pass_names(out)) == 531 and "FAIL" not in out
    assert f"gf/kl_wheel/order-{N_MAX}" in [name for name, _ in build_suite("gf")]
    # each check certifies compute's record: a palindromic whirl Z of rank 2
    # with complex zeros fails its flag, a KL polynomial with constant term 2
    # fails its invariants
    def perturbed(closed, at, poly):
        return lambda fam, n: poly if (fam, n) == at else closed(fam, n)

    monkeypatch.setattr(kl, "z_closed", perturbed(kl.z_closed, ("whirl", 2), Poly([1, 1, 1])))
    monkeypatch.setattr(kl, "kl_closed", perturbed(kl.kl_closed, ("wheel", 3), Poly([2, 1])))
    code, out, _ = run(capsys, "verify", "--suite", "roots", "--max-n", "3")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and len(fails) == 2, fails
    assert re.fullmatch(r"FAIL roots/kl-negative/wheel/3 \(\d+\.\d+s\): exception: "
                        r"ArithmeticError\(.*rank 3.*\)", fails[0]), fails[0]
    assert re.fullmatch(r"FAIL roots/z-negative/whirl/2 \(\d+\.\d+s\): n=2: real_rooted=False, "
                        r"all_negative=False", fails[1]), fails[1]


def test_readme_states_the_check_count():
    # the count README gives, and every concrete check name it quotes, come
    # from build_suite; names with a <placeholder> are skipped
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    counts = re.findall(r"matroidkl verify --suite all +# (\d+) checks", text)
    assert counts == [str(len(build_suite("all")))]
    quoted = set(re.findall(
        r"(?<![\w/])(?:oracle|gf|recurrence|roots|identities)/[\w/.<>-]*\w", text))
    quoted = {name for name in quoted if "<" not in name}
    assert {"oracle/fan/3", "identities/narayana/2"} <= quoted, quoted
    built = {name for max_n in (None, *range(1, N_MAX + 1))
             for name, _ in build_suite("all", max_n=max_n)}
    assert quoted <= built, quoted - built


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    # the "Library quick start" block runs as README prints it, and each
    # print(...) line prints the text of its trailing comment
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        block, = re.findall(r"^## Library quick start\n\n```python\n(.*?)^```$", f.read(),
                            re.M | re.S)
    want = re.findall(r"^print\(.*\) +# (.*)$", block, re.M)
    assert want and len(want) == block.count("print("), block
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want


def test_readme_layout_names_exist():
    # every backticked Python name in a row of the Layout table, dotted or
    # not, is an attribute of that row's module
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        rows = re.findall(r"^\| `matroidkl\.(\w+)` \| (.*) \|$", f.read(), re.M)
    assert len(rows) == 8, rows
    missing = []
    for module, contents in rows:
        for name in re.findall(r"`([^`]*)`", contents):
            if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name):
                continue
            obj = importlib.import_module(f"matroidkl.{module}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{module}: {name}")
    assert not missing, "not in the row's module: " + ", ".join(missing)


def test_every_module_stays_within_the_token_budget():
    # past 4096 tokens (tokenize's count without comments and blank lines),
    # compiling a module cost every benchmark process about 0.12 MB of peak
    # RSS, above the benchmark's 0.1 MB bound on peak_rss_mb
    import tokenize

    import matroidkl

    package = os.path.dirname(matroidkl.__file__)
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                counts[name] = sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                                   for tok in tokenize.generate_tokens(f.readline))
    assert "kl.py" in counts and "checks.py" in counts, counts
    over = {name: count for name, count in counts.items() if count > 4096}
    assert not over, over


def test_every_module_uses_each_name_it_imports():
    # an import whose last use was deleted stays behind silently: each name an
    # import binds must be read in its module or exported through __all__
    import ast

    import matroidkl

    package = os.path.dirname(matroidkl.__file__)
    unused = {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        bound, read, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        unused[name] = sorted(bound - read - exported)
    assert "kl.py" in unused and "__init__.py" in unused, unused
    assert {name: names for name, names in unused.items() if names} == {}


# the only functions that may test `type(x) is int` or `type(x) is not int`:
# every int argument is checked by poly._int_in; integerized tests
# coefficients, and gf_expand's poly helper dispatches on them; the command
# line's combination check raises a UsageError that prints the supported
# matrix
INT_TYPE_TESTS = {"poly._int_in", "poly.Poly.integerized", "series.gf_expand.poly",
                  "cli._check_combo"}


def test_every_int_argument_is_checked_by_int_in():
    import ast

    import matroidkl

    package = os.path.dirname(matroidkl.__file__)
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Name)
                and node.comparators[0].id == "int"):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                visit(ast.parse(f.read()), name[:-3])
    assert "poly._int_in" in found, found
    assert found - INT_TYPE_TESTS == set()


# functions that the drive in test_every_library_function_runs need not reach,
# each with its reason; dunder methods are exempt as a whole: they are the
# value types' protocol (equality, hashing, arithmetic), and the benchmark's
# digests print results with __repr__
NOT_DRIVEN = {
    "cli._kl_route": "builds ROUTES at import, before the drive starts",
    "kl._step_rows": "expands the recurrence rows at import, before the drive starts",
    "kl._expanded": "expands the recurrence rows at import, before the drive starts",
}
LIBRARY_MODULES = ("checks", "cli", "graphs", "kl", "matroids", "poly", "realroot", "series")


def _defined_functions():
    """(file, first line, name) -> dotted name of every function, method,
    nested function and lambda the library modules define; comprehensions and
    class bodies are not functions, and dunder methods are left out."""
    found = {}
    for module in LIBRARY_MODULES:
        spec = importlib.import_module(f"matroidkl.{module}").__spec__
        todo = [spec.loader.get_code(spec.name)]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
            name = code.co_name
            if (not code.co_flags & inspect.CO_OPTIMIZED or name.startswith("__")
                    or name in ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")):
                continue
            found[code.co_filename, code.co_firstlineno, name] = (
                f"{module}.{getattr(code, 'co_qualname', name)}")
    return found


def test_every_library_function_runs(capsys, monkeypatch):
    # src/ keeps only what a route, a verify check or the CLI runs: drive the
    # library through all of them under a profiler and list what never ran
    monkeypatch.setattr(kl, "_rec_cache", {family: [] for family in kl._rec_cache})
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for (kind, method), (_, fams) in cli.ROUTES.items():
            for family, (lo, _) in fams.items():
                cli.compute_record(family, lo, kind, method)
        for name, check in build_suite("all", max_n=7):
            ok, detail = check()
            assert ok, (name, detail)
        for argv in (["compute", "--family", "wheel", "--n", "5", "--kind", "z"],
                     ["compute", "--family", "fan", "--n", "4", "--kind", "kl",
                      "--method", "brute", "--format", "csv"],
                     ["table", "--family", "whirl", "--kind", "kl", "--max-n", "6"],
                     ["table", "--family", "fan", "--kind", "z", "--max-n", "4",
                      "--format", "json"],
                     ["verify", "--suite", "gf", "--max-n", "2"]):
            assert main(argv) == 0, argv
        assert main(["compute", "--family", "fan", "--n", str(N_MAX + 1), "--kind", "kl"]) == 2
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    defined = _defined_functions()
    # an exemption for a function that no longer exists would go unnoticed
    assert set(NOT_DRIVEN) <= set(defined.values()), set(NOT_DRIVEN) - set(defined.values())
    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}
    never = {name for key, name in defined.items()
             if key not in reached and name not in NOT_DRIVEN}
    # a function nested in one that never ran is not listed on its own
    outermost = sorted(name for name in never
                       if name.rpartition(".<locals>.")[0] not in never)
    assert not outermost, "never ran: " + ", ".join(outermost)


def test_oracle_check_builds_once(monkeypatch):
    # P, Z and chi of one (family, n) come from one matroid and one lattice;
    # both lattice_of bindings count, so a characteristic route that built
    # its own lattice, instead of sweeping the rank table, would show up as
    # a second one
    calls = {"family_matroid": 0, "lattice_of": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    lattice_of = counted("lattice_of", kl.lattice_of)
    monkeypatch.setattr(kl, "family_matroid", counted("family_matroid", kl.family_matroid))
    monkeypatch.setattr(kl, "lattice_of", lattice_of)
    monkeypatch.setattr(cli.matroids, "lattice_of", lattice_of)
    for name, check in build_suite("oracle", max_n=5):
        if "whirl-flats" in name or name.startswith("oracle/chromatic/"):
            continue
        calls.update(family_matroid=0, lattice_of=0)
        assert check() == (True, ""), name
        assert calls == {"family_matroid": 1, "lattice_of": 1}, name


def test_characteristic_route_builds_no_lattice(capsys, monkeypatch):
    # the characteristic/brute route is Whitney's sweep over the rank table:
    # neither lattice_of binding runs
    calls = []
    lattice_of = kl.lattice_of

    def counted(*args):
        calls.append(args)
        return lattice_of(*args)

    monkeypatch.setattr(kl, "lattice_of", counted)
    monkeypatch.setattr(cli.matroids, "lattice_of", counted)
    code, out, _ = run(capsys, "compute", "--family", "wheel", "--n", "8",
                       "--kind", "characteristic", "--method", "brute")
    assert code == 0 and calls == []
    coeffs = [int(c) for c in json.loads(out)["coeffs"]]
    assert Poly(coeffs) == kl.characteristic_closed("wheel", 8)


def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "10")
    assert code == 0
    assert "PASS identities/spot-values" in out


def test_table_fan(capsys):
    code, out, _ = run(capsys, "table", "--family", "fan", "--kind", "kl",
                       "--max-n", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,degree,c0")
    assert lines[0].endswith("real_rooted")
    assert len(lines) == 11  # header + n=1..10
    row5 = lines[5].split(",")
    assert row5[0] == "5" and row5[2:5] == ["1", "6", "2"]


def test_table_whirl_z(capsys):
    code, out, _ = run(capsys, "table", "--family", "whirl", "--kind", "z",
                       "--max-n", "3")
    assert code == 0
    rows = out.strip().splitlines()
    last = rows[-1].split(",")
    assert last[0] == "3" and last[2:6] == ["1", "9", "9", "1"]


def test_table_below_range_exits_2(capsys):
    # a --max-n below the closed form's first n would tabulate nothing
    for family, kind, max_n, lo in (("whirl", "kl", "2", 3), ("wheel", "kl", "1", 2),
                                    ("fan", "z", "0", 1), ("fan", "kl", "-3", 1)):
        code, out, err = run(capsys, "table", "--family", family, "--kind", kind,
                             "--max-n", max_n)
        assert code == 2 and out == "", (family, kind, max_n)
        assert f"needs n >= {lo}, got {max_n}" in err and "supported" in err, err
    code, out, _ = run(capsys, "table", "--family", "whirl", "--kind", "kl", "--max-n", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--family", "fan", "--kind", "z",
                       "--max-n", "4", "--format", "json")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in recs] == [1, 2, 3, 4]
    assert recs[1]["coeffs"] == ["1", "3", "1"]


def test_verify_flags_out_of_range_exit_2(capsys):
    # rejected before any check runs; 0 is not read as "the default"
    for suite, value in (("all", "0"), ("all", "-3"), ("all", str(N_MAX + 1)),
                         ("gf", "0"), ("gf", str(N_MAX + 1))):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", value)
        assert code == 2 and out == "", (suite, value)
        assert err == f"error: --max-n must be in 1..{N_MAX}, got {value}\n", err


def test_each_check_runs_the_n_that_ends_its_name(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "2")
    assert code == 0
    assert pass_names(out) == ["PASS identities/narayana/1", "PASS identities/narayana/2",
                               "PASS identities/spot-values"]
    tops = {"oracle": 8, "oracle/chromatic": 10, "recurrence": N_MAX, "roots": N_MAX,
            "identities": 40}
    for max_n in (None, 1, 2, 6, 30, N_MAX):
        names = []
        cap = N_MAX if max_n is None else max_n
        for name, check in build_suite("all", max_n=max_n):
            names.append(name)
            if name.startswith("gf/"):
                # the gf checks run to the top of the closed Z route or --max-n
                assert name.endswith(f"/order-{min(cap, 64)}"), name
                assert check.args[-1] == min(cap, 64), name
                continue
            if name == "identities/spot-values":
                continue
            suite = "oracle/chromatic" if name.startswith("oracle/chromatic/") \
                else name.split("/")[0]
            n = int(name.rsplit("/", 1)[1])
            assert check.args[-1] == n, name
            assert n <= (tops[suite] if max_n is None else max_n), name
        # the ranges that ran as one check each before, n by n: recurrence to
        # N_MAX or --max-n, the rest each to its own top or --max-n if lower
        want = [f"recurrence/{fam}/{n}" for fam, lo in (("fan", 1), ("wheel", 2), ("whirl", 3))
                for n in range(lo, cap + 1)]
        want += [f"roots/fan-interlacing/{n}" for n in range(3, min(cap, 25) + 1)]
        want += [f"identities/{claim}/{n}" for claim, lo, top in (
            ("narayana", 1, 20), ("hadamard", 3, 30), ("wheel-z-quadratic", 3, 30),
            ("lucas-fibonacci", 3, 40), ("n-sequence", 7, 30), ("relaxation-kl", 3, 30),
            ("relaxation-z", 3, 30)) for n in range(lo, min(cap, top) + 1)]
        ranged = [name for name in names if re.match(
            r"recurrence/|roots/fan-interlacing/|identities/(?!spot-values)", name)]
        assert ranged == want, max_n


def pass_names(out):
    return [re.sub(r" \(\d+\.\d+s\)$", "", line) for line in out.splitlines()
            if line.startswith("PASS")]


def test_verify_prints_one_line_per_check_in_suite_order(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "5")
    assert code == 0
    assert pass_names(out) == [f"PASS {name}" for name, _ in build_suite("all", max_n=5)]
    # verify runs in the calling process and has no --jobs; --max-n sizes
    # the gf checks, so there is no --order
    for flag, value in (("--jobs", "2"), ("--order", "2")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "gf", flag, value])
        assert exc.value.code == 2, flag


def test_verify_failure_names_first_difference(capsys, monkeypatch):
    # one perturbed closed form at one (family, n) fails exactly that check,
    # naming the kind and the first coefficient that differs
    for name, family, kind, detail in (
            ("kl_closed", "fan", "kl", "t\\^1: got 1, want 2"),
            ("z_closed", "wheel", "z", "t\\^1: got 7, want 8"),
            ("characteristic_closed", "square", "characteristic", "t\\^1: got 8, want 9")):
        closed = getattr(kl, name)

        def perturbed(fam, n, closed=closed, family=family):
            p = closed(fam, n)
            return p + T if (fam, n) == (family, 3) else p

        monkeypatch.setattr(kl, name, perturbed)
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "3")
        monkeypatch.undo()
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1, fails
        assert re.fullmatch(rf"FAIL oracle/{family}/3 \(\d+\.\d+s\): {kind} n=3: {detail}",
                            fails[0]), fails[0]


def test_oracle_compares_chi_with_whitney(capsys, monkeypatch):
    # the pass's chi is checked against Whitney's sweep over the same matroid
    # as well as against the closed form
    whitney = cli.matroids.characteristic_polynomial
    monkeypatch.setattr(cli.matroids, "characteristic_polynomial", lambda m: whitney(m) + T)
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "3")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 8 and "PASS oracle/whirl-flats/3" in out, fails
    assert re.fullmatch(r"FAIL oracle/fan/3 \(\d+\.\d+s\): characteristic against Whitney's "
                        r"sweep: n=3: t\^1: got 8, want 9", fails[2]), fails[2]


def test_cycle_kl_matches_brute():
    # the relaxation check's P of the m-cycle, U_{m-1,m}, against the brute
    # route, whose Z of the m-cycle is the Narayana polynomial N_m
    for m in range(3, 12):
        p, z, _ = kl.kl_z_chi(graphic_matroid(make_family("cycle", m)))
        assert checks._cycle_kl(m) == p, m
        assert z == realroot.narayana_polynomial(m), m


def test_relaxation_check_fails_at_its_n(capsys, monkeypatch):
    for name, kind in (("kl_closed", "kl"), ("z_closed", "z")):
        closed = getattr(kl, name)

        def perturbed(fam, n, closed=closed):
            p = closed(fam, n)
            return p + T if (fam, n) == ("whirl", 5) else p

        monkeypatch.setattr(kl, name, perturbed)
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "6")
        monkeypatch.undo()
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert code == 1 and len(fails) == 1, fails
        assert re.fullmatch(rf"FAIL identities/relaxation-{kind}/5 \(\d+\.\d+s\): n=5: t\^1: "
                            r"got \d+, want \d+", fails[0]), fails[0]


def test_every_failing_n_fails_its_own_check(capsys, monkeypatch):
    # a crash at fan 5 does not hide the wrong polynomial at fan 6
    recurrence = kl.kl_recurrence

    def faulty(family, n):
        if (family, n) == ("fan", 5):
            raise ZeroDivisionError("injected")
        p = recurrence(family, n)
        return p + T if (family, n) == ("fan", 6) else p

    monkeypatch.setattr(kl, "kl_recurrence", faulty)
    code, out, _ = run(capsys, "verify", "--suite", "recurrence", "--max-n", "8")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 2, fails
    assert re.fullmatch(r"FAIL recurrence/fan/5 \(\d+\.\d+s\): "
                        r"exception: ZeroDivisionError\('injected'\)", fails[0]), fails[0]
    assert re.fullmatch(r"FAIL recurrence/fan/6 \(\d+\.\d+s\): n=6: t\^1: got 11, want 10",
                        fails[1]), fails[1]


# one claim each: (the prefix of the claim's checks, the check that must fail,
# the module and function it reads, the arguments at which that function's
# value is changed, and the change)
PERTURBATIONS = [
    ("gf/", "gf/kl_fan/order-10", series, "gf_expand", ("kl_fan", 10),
     lambda s: series.TruncSeries(s.order, [2 * c for c in s.coeffs])),
    ("roots/fan-interlacing/", "roots/fan-interlacing/6", realroot, "interleaves",
     (kl.kl_closed("fan", 6), kl.kl_closed("fan", 7)), lambda verdict: not verdict),
    ("identities/narayana/", "identities/narayana/4", realroot, "narayana_polynomial", (4,),
     lambda p: p + T),
    ("identities/hadamard/", "identities/hadamard/5", kl, "hadamard_wheel_coeff", (5, 1),
     lambda abc: (abc[0], 2 * abc[1], abc[2])),
    ("identities/wheel-z-quadratic/", "identities/wheel-z-quadratic/6", kl, "z_closed",
     ("wheel", 6), lambda p: p + T),
    ("identities/lucas-fibonacci/", "identities/lucas-fibonacci/6", realroot,
     "fibonacci_polynomial", (6,), lambda p: p + T),
    # a b c keeps its product, so the hadamard check still passes
    ("identities/n-sequence/", "identities/n-sequence/9", kl, "hadamard_wheel_coeff", (9, 1),
     lambda abc: (-abc[0], -abc[1], abc[2])),
    ("identities/spot-values", "identities/spot-values", kl, "kl_closed", ("fan", 9),
     lambda p: p + T),
    ("identities/spot-values", "identities/spot-values", kl, "kl_recurrence", ("whirl", 2),
     lambda p: p + T),
    ("oracle/whirl-flats/", "oracle/whirl-flats/5", matroids, "whirl_matroid", (5,),
     lambda m: graphic_matroid(make_family("wheel", 5))),
    ("oracle/chromatic/", "oracle/chromatic/wheel/5", kl, "chromatic_closed", ("wheel", 5),
     lambda p: p + T),
    # the square's closed form is the fan's, so its graph is what can differ
    ("oracle/chromatic/", "oracle/chromatic/square/4", kl, "family_graph", ("square", 4),
     lambda g: make_family("wheel", 4)),
]


def _perturbation_ids(cases):
    """Each case is named by the check it must fail; a second case of one
    check adds the name of the function it changes."""
    ids = []
    for _, check, _, name, _, _ in cases:
        ids.append(f"{check}/{name}" if check in ids else check)
    return ids


@pytest.mark.parametrize("prefix, check, module, name, at, change", PERTURBATIONS,
                         ids=_perturbation_ids(PERTURBATIONS))
def test_each_claim_fails_at_its_perturbed_n(monkeypatch, prefix, check, module, name, at,
                                             change):
    # a check that cannot fail would vouch for nothing in the acceptance suite
    fn = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: change(fn(*args)) if args == at else fn(*args))
    claim = [item for item in build_suite(prefix.split("/")[0], max_n=10)
             if item[0].startswith(prefix)]
    failed = [(got, detail) for got, ok, detail, _ in map(checks._run_check_timed, claim) if not ok]
    assert [got for got, _ in failed] == [check]
    # on the changed value: a change that crashed the check would fail it too
    assert not failed[0][1].startswith("exception:"), failed


def test_poly_record_builds_one_sturm_chain(monkeypatch):
    calls = []
    chain = realroot.sturm_chain

    def counted(p):
        calls.append(p)
        return chain(p)

    monkeypatch.setattr(realroot, "sturm_chain", counted)
    rec = cli._poly_record("wheel", 30, "z", "closed", kl.z_closed("wheel", 30))
    assert len(calls) == 1
    assert rec.flags["real_rooted"] is True and rec.flags["all_negative"] is True
    for coeffs, real_rooted, all_negative in (
        ([1, 1, 1], False, False),  # 1 + t + t^2
        ([-2, 1, 1], True, False),  # (t - 1)(t + 2)
        ([3, 7, 5, 1], True, True),  # (t + 1)^2 (t + 3)
    ):
        calls.clear()
        flags = cli._poly_record("fan", 3, "kl", "closed", Poly(coeffs)).flags
        assert len(calls) == 1, coeffs
        assert flags["real_rooted"] is real_rooted
        assert flags["all_negative"] is all_negative
        # and each verdict on its own builds one chain
        for verdict, want in ((realroot.is_real_rooted, real_rooted),
                              (realroot.all_zeros_negative, all_negative)):
            calls.clear()
            assert verdict(Poly(coeffs)) is want
            assert len(calls) == 1, (verdict.__name__, coeffs)


def test_suite_registry_covers_all():
    names = [name for name, _ in build_suite("all", max_n=4)]
    assert any(n.startswith("oracle/") for n in names)
    assert any(n.startswith("oracle/chromatic/") for n in names)
    assert any(n.startswith("gf/") for n in names)
    assert any(n.startswith("recurrence/") for n in names)
    assert any(n.startswith("roots/") for n in names)
    assert any(n.startswith("identities/") for n in names)
    assert len(names) == len(set(names))


def test_supported_matrix_mentions_all_kinds():
    text = supported_matrix()
    for kind in ("kl", "z", "chromatic", "characteristic"):
        assert f"--kind {kind}" in text
