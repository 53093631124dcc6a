import contextvars
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secantlab
from secantlab import arith, cli, curves, homalg, ideal_ops
from secantlab.arith import MAX_PRIME, is_prime
from secantlab.cli import main
from secantlab.gb import HilbertTarget, ResourceLimit

RNC5 = "genus: 0\nfield: 32003\ndegree: 5\n"
RNC4 = "genus: 0\nfield: 32003\ndegree: 4\n"
RNC3 = "genus: 0\nfield: 32003\ndegree: 3\n"
E5 = "genus: 1\nfield: 32003\nequation: y^2 - x^3 - 4*x - 1\ndegree: 5\n"
IDEAL = ("field: 32003\nvariables: x, y, z, w\n"
         "generator: x*z - y^2\ngenerator: y*w - z^2\n"
         "generator: x*w - y*z\n")
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def curve_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_curve_text(curve_file, capsys):
    code, out, _ = run(capsys, ["curve", "--file",
                                curve_file("c.curve", RNC5)])
    assert code == 0
    assert "genus 0 curve, degree 5" in out and "P^5" in out


def test_secant_json(curve_file, capsys):
    path = curve_file("c.curve", RNC5)
    code, out, _ = run(capsys, ["secant", "--file", path, "--k", "1",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1 and doc["r"] == 5
    assert len(doc["generators"]) > 0


def test_secant_prints_the_reduced_basis_for_every_seed(curve_file, capsys):
    path = curve_file("e5.curve", E5)
    gens = []
    for seed in ("0", "5"):
        code, out, _ = run(capsys, ["secant", "--file", path, "--k", "1",
                                    "--seed", seed, "--format", "json"])
        assert code == 0
        gens.append(json.loads(out)["generators"])
    assert gens[0] == gens[1] and len(gens[0]) == 1


def test_secant_fills_ambient_message(curve_file, capsys):
    code, out, _ = run(capsys, ["secant", "--file",
                                curve_file("c.curve", RNC3), "--k", "1"])
    assert code == 0 and "zero ideal" in out


E6 = "genus: 1\nfield: 32003\nequation: y^2 - x^3 - 4*x - 1\ndegree: 6\n"


@pytest.mark.parametrize("text,k,r", [(RNC3, 1, 3), (E6, 2, 5)],
                         ids=["rnc3_k1", "ell6_k2"])
def test_filling_secant_answers_without_a_join(curve_file, capsys,
                                               monkeypatch, text, k, r):
    # 2k + 1 >= r: Σ_k fills P^r, so every command prints its zero-ideal
    # answer, which secant_join gives without a join step or Groebner run
    def refuse(*args, **kwargs):
        raise AssertionError("join step on a filling secant")

    for name in ("_join_with_parametrization", "buchberger"):
        monkeypatch.setattr(ideal_ops, name, refuse)
    path = curve_file("c.curve", text)
    k = str(k)
    code, out, _ = run(capsys, ["secant", "--file", path, "--k", k])
    assert code == 0
    assert out.endswith("\n  (zero ideal: the secant variety fills P^r)\n")
    code, out, _ = run(capsys, ["secant", "--file", path, "--k", k,
                                "--format", "json"])
    assert code == 0 and json.loads(out)["generators"] == []
    code, out, _ = run(capsys, ["betti", "--file", path, "--k", k])
    assert (code, out) == (0, "(zero ideal)\n")
    code, out, _ = run(capsys, ["betti", "--file", path, "--k", k,
                                "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"r": r, "entries": [[0, 0, 1]]}
    code, out, _ = run(capsys, ["bench", "--file", path, "--k", k])
    assert code == 0 and "join" in out
    code, out, _ = run(capsys, ["verify", "--file", path, "--k", k,
                                "--format", "json"])
    assert code == 0
    assert {row["verdict"] for row in json.loads(out)["rows"]} == {
        "skipped(fills ambient)"}


def test_betti_from_curve(curve_file, capsys):
    code, out, _ = run(capsys, ["betti", "--file",
                                curve_file("c.curve", RNC5), "--k", "1"])
    assert code == 0
    assert "regularity 2" in out and "ACM True" in out
    assert "degree 6, dimension 3" in out


def test_betti_from_ideal_file(curve_file, capsys):
    path = curve_file("tc.ideal", IDEAL)
    code, out, _ = run(capsys, ["betti", "--ideal-file", path,
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]
    assert doc["regularity"] == 1 and doc["acm"] is True


def test_betti_truncated(curve_file, capsys):
    path = curve_file("tc.ideal", IDEAL)
    code, out, _ = run(capsys, ["betti", "--ideal-file", path,
                                "--max-degree", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated_at"] == 2
    assert [0, 0, 1] in doc["entries"] and [1, 2, 3] in doc["entries"]


def test_negative_max_degree_is_input_error(curve_file, capsys):
    for argv in (["betti", "--ideal-file", curve_file("tc.ideal", IDEAL)],
                 ["verify", "--file", curve_file("c.curve", RNC5),
                  "--k", "1"]):
        code, out, err = run(capsys, argv + ["--max-degree", "-1",
                                             "--format", "json"])
        assert code == 2 and out == "" and "max degree" in err


def test_verify_truncated_below_generators_is_not_a_mismatch(curve_file,
                                                             capsys):
    # Sigma_1 of the RNC of degree 5 has cubic generators: a table cut at
    # degree 2 shows none, which says only that none has degree <= 2
    code, out, _ = run(capsys, ["verify", "--file",
                                curve_file("c.curve", RNC5), "--k", "1",
                                "--max-degree", "2", "--format", "json"])
    assert code == 0
    row, = [r for r in json.loads(out)["rows"]
            if r["name"] == "min_gen_degree"]
    assert row["computed"] is None
    assert row["verdict"] == "skipped(degree-truncated table)"


def test_nonpositive_jobs_is_input_error(curve_file, capsys):
    paths = [curve_file("a.curve", RNC5), curve_file("b.curve", E5)]
    for jobs in ("0", "-2"):
        code, out, err = run(capsys, ["verify", "--file", *paths, "--k", "1",
                                      "--jobs", jobs])
        assert code == 2 and out == "" and "jobs" in err


def test_parallel_verify_matches_serial(curve_file, capsys):
    paths = [curve_file("a.curve", RNC3), curve_file("b.curve", RNC5)]
    argv = ["verify", "--file", *paths, "--k", "1", "--format", "json"]
    serial = run(capsys, argv + ["--jobs", "1"])
    assert serial[0] == 0
    assert run(capsys, argv + ["--jobs", "2"]) == serial


def test_verify_pool_has_at_most_one_worker_per_file(curve_file, capsys,
                                                     monkeypatch):
    import multiprocessing
    sizes = []

    class SerialPool:
        # records the requested size and maps in this process
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    paths = [curve_file("a.curve", RNC3), curve_file("b.curve", RNC5)]
    argv = ["verify", "--file", *paths, "--k", "1", "--format", "json"]
    serial = run(capsys, argv)
    assert serial[0] == 0 and sizes == []
    assert run(capsys, argv + ["--jobs", "64"]) == serial
    assert sizes == [2]


def test_betti_requires_source(capsys):
    code, _, err = run(capsys, ["betti", "--format", "json"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("flags", [["--file"], ["--k"], ["--file", "--k"]],
                         ids=["file", "k", "file_and_k"])
def test_betti_ideal_file_with_curve_flags_is_input_error(curve_file, capsys,
                                                          flags):
    # the ideal file would otherwise win silently over the curve
    values = {"--file": curve_file("c.curve", RNC5), "--k": "1"}
    argv = ["betti", "--ideal-file", curve_file("tc.ideal", IDEAL)]
    for flag in flags:
        argv += [flag, values[flag]]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "--ideal-file" in err and "--file" in err and "--k" in err


def test_verify_match_exit_zero(curve_file, capsys):
    code, out, _ = run(capsys, ["verify", "--file",
                                curve_file("c.curve", RNC5), "--k", "1"])
    assert code == 0
    assert out.count(" match") >= 7 and "mismatch" not in out


def test_verify_json_deterministic(curve_file, capsys):
    path = curve_file("c.curve", RNC5)
    argv = ["verify", "--file", path, "--k", "1", "--format", "json",
            "--seed", "3"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 3 and doc["prime"] == 32003


def test_verify_multiple_files(curve_file, capsys):
    paths = [curve_file("a.curve", RNC5), curve_file("b.curve", E5)]
    code, out, _ = run(capsys, ["verify", "--file", *paths, "--k", "1",
                                "--format", "json"])
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 2
    assert {d["instance"]["curve_file"] for d in docs} == \
        {"a.curve", "b.curve"}


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, ["curve", "--file", "/nonexistent.curve"])
    assert code == 2 and "error" in err


def test_bad_curve_file_is_input_error(curve_file, capsys):
    path = curve_file("bad.curve",
                      "genus: 2\nfield: 32003\n"
                      "equation: y^2 - x^6 - x - 1\ndegree: 12\n")
    code, _, err = run(capsys, ["curve", "--file", path])
    assert code == 2 and "even-degree" in err
    path = curve_file("bad3.curve",
                      "genus: 3\nfield: 32003\n"
                      "equation: y^2 - x^7 - 2*x^6 - x^5\ndegree: 9\n")
    code, _, err = run(capsys, ["curve", "--file", path])
    assert code == 2 and "f must be squarefree" in err


def test_negative_k_rejected(curve_file, capsys):
    code, _, err = run(capsys, ["secant", "--file",
                                curve_file("c.curve", RNC5), "--k", "-1"])
    assert code == 2 and "nonnegative" in err


def test_pair_budget_exhaustion_exit_three(curve_file, capsys):
    argv = ["secant", "--file", curve_file("c.curve", RNC5), "--k", "1"]
    code, _, err = run(capsys, argv + ["--pair-budget", "1"])
    assert code == 3 and "resource" in err
    # the budget ends with the call that set it
    code, _, err = run(capsys, argv)
    assert code == 0 and err == ""


def test_invalid_curve_is_input_error_under_any_budget(curve_file, capsys):
    # validation is not budgeted: a non-squarefree f stays an input error
    path = curve_file("g2.curve", "genus: 2\nfield: 32003\n"
                      "equation: y^2 - x^5 - x^3\ndegree: 6\n")
    code, out, err = run(capsys, ["curve", "--file", path,
                                  "--pair-budget", "1"])
    assert code == 2 and out == "" and "f must be squarefree" in err


def test_verify_worker_sets_its_own_budget():
    # a worker started by spawn inherits no context value: the task's
    # budget must hold in a fresh context
    task = (str(GOLDEN / "elliptic5.curve"), 1, 0, 1, None)
    with pytest.raises(ResourceLimit):
        contextvars.Context().run(cli._verify_instance, task)


def test_parallel_verify_budget_exhaustion_exits_three():
    # a worker's ResourceLimit must reach the parent: run in a subprocess
    # with a timeout, so that a hang fails instead of stalling the suite
    src = Path(secantlab.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items()
           if k != "SECANTLAB_PAIR_BUDGET"}
    env["PYTHONPATH"] = str(src)
    argv = [sys.executable, "-m", "secantlab.cli", "verify", "--file",
            str(GOLDEN / "elliptic5.curve"), str(GOLDEN / "elliptic6.curve"),
            "--k", "1", "--pair-budget", "1", "--jobs"]
    serial, parallel = (subprocess.run(argv + [jobs], capture_output=True,
                                       text=True, env=env, timeout=120)
                        for jobs in ("1", "2"))
    assert serial.returncode == 3
    assert "resource limit: pair budget exhausted" in serial.stderr
    assert (parallel.returncode, parallel.stdout, parallel.stderr) == \
        (serial.returncode, serial.stdout, serial.stderr)


def test_pair_budget_env(curve_file, capsys, monkeypatch):
    monkeypatch.setenv("SECANTLAB_PAIR_BUDGET", "1")
    code, _, _ = run(capsys, ["secant", "--file",
                              curve_file("c.curve", RNC5), "--k", "1"])
    assert code == 3
    monkeypatch.setenv("SECANTLAB_PAIR_BUDGET", "zero")
    code, _, _ = run(capsys, ["secant", "--file",
                              curve_file("c.curve", RNC5), "--k", "1"])
    assert code == 2


def test_output_flag_writes_file(curve_file, capsys, tmp_path):
    dest = tmp_path / "out.json"
    code, out, _ = run(capsys, ["curve", "--file",
                                curve_file("c.curve", RNC5),
                                "--format", "json",
                                "--output", str(dest)])
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["r"] == 5


def test_unwritable_output_is_input_error(curve_file, capsys, tmp_path):
    dest = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, ["curve", "--file",
                                  curve_file("c.curve", RNC5),
                                  "--output", str(dest)])
    assert code == 2 and out == "" and "cannot write" in err


def test_bench_prints_stages(curve_file, capsys, monkeypatch):
    # Σ_1 of the twisted cubic fills P^3, so its hilbert and betti stages
    # have nothing to compute; the quintic's run both
    stages = ["hilbert_data", "minimal_free_resolution"]
    called = []
    for name in stages:
        def spy(*args, _real=getattr(cli, name), _name=name, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    for text, runs in ((RNC3, []), (RNC5, stages)):
        called.clear()
        code, out, _ = run(capsys, ["bench", "--file",
                                    curve_file("c.curve", text), "--k", "1"])
        assert code == 0
        for stage in ("embed", "join", "hilbert", "betti"):
            assert stage in out
        assert called == runs


def _first_rejected_prime():
    q = MAX_PRIME + 1
    while not is_prime(q):
        q += 1
    return q


def test_largest_supported_prime_eagon_northcott(curve_file, capsys):
    path = curve_file("c.curve", f"genus: 0\nfield: {MAX_PRIME}\n"
                                 "degree: 6\n")
    code, out, _ = run(capsys, ["betti", "--file", path, "--k", "1",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    # Eagon-Northcott: beta_{i,i+2} = C(5, i+2) C(i+1, 2)
    assert doc["entries"] == [[0, 0, 1], [1, 3, 10], [2, 4, 15], [3, 5, 6]]
    assert doc["acm"] is True


def test_first_rejected_prime_is_input_error(curve_file, capsys):
    q = _first_rejected_prime()
    path = curve_file("c.curve", f"genus: 0\nfield: {q}\ndegree: 6\n")
    code, _, err = run(capsys, ["betti", "--file", path, "--k", "1"])
    assert code == 2 and str(MAX_PRIME) in err
    path = curve_file("i.ideal", IDEAL.replace("32003", str(q)))
    code, _, err = run(capsys, ["betti", "--ideal-file", path])
    assert code == 2 and str(MAX_PRIME) in err and path in err


def test_huge_field_is_rejected_before_any_primality_test(
        curve_file, capsys, monkeypatch):
    # trial division takes sqrt(n) steps, so a 30-digit field must fail
    # the range check before is_prime ever sees it
    tested = []
    for module in (arith, curves):
        monkeypatch.setattr(module, "is_prime",
                            lambda n: tested.append(n) or is_prime(n))
    q = 10 ** 29 + 9
    path = curve_file("c.curve", f"genus: 0\nfield: {q}\ndegree: 6\n")
    code, _, err = run(capsys, ["betti", "--file", path, "--k", "1"])
    assert code == 2 and str(MAX_PRIME) in err
    path = curve_file("i.ideal", IDEAL.replace("32003", str(q)))
    code, _, err = run(capsys, ["betti", "--ideal-file", path])
    assert code == 2 and str(MAX_PRIME) in err and path in err
    assert tested == []


def test_ideal_file_bad_field_is_input_error(curve_file, capsys):
    for field in ("2", "abc"):
        path = curve_file("i.ideal", IDEAL.replace("32003", field))
        code, _, err = run(capsys, ["betti", "--ideal-file", path])
        assert code == 2 and "error" in err and path in err


@pytest.mark.parametrize("text,key", [
    (IDEAL + "field: 7\n", "field"),
    (IDEAL + "variables: x, y, z\n", "variables"),
], ids=["field", "variables"])
def test_ideal_file_repeated_key_is_input_error(curve_file, capsys, text,
                                                key):
    path = curve_file("r.ideal", text)
    code, out, err = run(capsys, ["betti", "--ideal-file", path])
    assert code == 2 and out == ""
    assert f"{path}: line 6: repeated key '{key}'" in err


@pytest.mark.parametrize("text,message", [
    (RNC5 + "degree: 6\n", "line 4: repeated key 'degree'"),
    (RNC5 + "colour: red\n", "line 4: unknown key 'colour'"),
    ("genus: 0\nfield: 32003\nequation: y^2 - x^3 - 1\ndegree: 5\n",
     "line 3: genus 0 takes no equation"),
    ("genus: 0\nfield 32003\ndegree: 5\n", "line 2: expected 'key: value'"),
    ("genus: one\nfield: 32003\ndegree: 5\n",
     "genus, field, and degree must be integers"),
    ("genus: 0\nfield: p\ndegree: 5\n",
     "genus, field, and degree must be integers"),
    ("genus: 0\nfield: 32003\ndegree: 5.5\n",
     "genus, field, and degree must be integers"),
    ("genus: 1\nfield: 32003\ndegree: 5\n",
     "genus >= 1 requires an 'equation:' line"),
    ("genus: -1\nfield: 32003\ndegree: 5\n", "genus must be nonnegative"),
], ids=["repeated", "unknown", "equation_on_genus_0", "no_colon",
        "genus_not_integer", "field_not_integer", "degree_not_integer",
        "genus_1_without_equation", "negative_genus"])
def test_malformed_curve_file_is_input_error(curve_file, capsys, text,
                                             message):
    path = curve_file("m.curve", text)
    code, out, err = run(capsys, ["curve", "--file", path])
    assert code == 2 and out == "" and f"error: {path}: {message}" in err


def test_ideal_file_bad_variables_is_input_error(curve_file, capsys):
    for names in ("x, x", "1x, y"):
        path = curve_file("v.ideal", "field: 32003\nvariables: " + names +
                          "\ngenerator: x^2\n")
        code, out, err = run(capsys, ["betti", "--ideal-file", path])
        assert code == 2 and out == "" and f"{path}: variables" in err


def test_degree_too_large_to_pack_is_input_error(curve_file, capsys):
    # a monomial of degree 16384 or more cannot be packed: parsing the
    # file fails, naming the file
    path = curve_file("big.ideal", "field: 32003\nvariables: x, y\n"
                                   "generator: x^20000\n")
    code, out, err = run(capsys, ["betti", "--ideal-file", path])
    assert code == 2 and out == ""
    assert f"{path}: line 3: monomial degree too large to pack" in err
    path = curve_file("big.curve", "genus: 2\nfield: 32003\n"
                                   "equation: y^2 - x^20000\ndegree: 8\n")
    code, out, err = run(capsys, ["curve", "--file", path])
    assert code == 2 and out == ""
    assert f"{path}: monomial degree too large to pack" in err


def test_betti_text_with_a_linear_generator(curve_file, capsys):
    # N_(d,p) is defined for d >= 2 only, so a table whose first generator
    # is linear gets no N_(d,p) line
    text = ("field: 32003\nvariables: x, y, z\ngenerator: x\n"
            "generator: y^2 - x*z\n")
    code, out, err = run(capsys, ["betti", "--ideal-file",
                                  curve_file("lin.ideal", text)])
    assert code == 0 and err == ""
    assert out == ("     0     1     2   (i)\n"
                   "     1     1     .   j-i=0\n"
                   "     .     1     1   j-i=1\n"
                   "regularity 1, projective dimension 2, ACM True\n"
                   "degree 2, dimension 0\n")


def test_unit_ideal_file_is_input_error(curve_file, capsys):
    # a unit ideal has no Betti table: an input error, not a mismatch
    for gens in (["1"], ["x^2", "2"]):
        text = "field: 32003\nvariables: x, y\n" + "".join(
            f"generator: {g}\n" for g in gens)
        path = curve_file("unit.ideal", text)
        code, out, err = run(capsys, ["betti", "--ideal-file", path])
        assert code == 2 and out == "" and f"{path}: the unit ideal" in err


MALFORMED_IDEAL_FILES = [
    ("colon", "field: 32003\nvariables: x, y\ngenerator x^2\n",
     "line 3: expected 'key: value'"),
    ("key", "field: 32003\ncolour: red\nvariables: x, y\n",
     "line 2: unknown key 'colour'"),
    ("nofield", "variables: x, y\ngenerator: x^2\n",
     "ideal file needs 'field:' and 'variables:' lines"),
    ("novars", "field: 32003\ngenerator: x^2\n",
     "ideal file needs 'field:' and 'variables:' lines"),
    ("emptyvars", "field: 32003\nvariables: ,\n",
     "line 2: 'variables:' names no variable"),
    ("fieldfirst", "field: p\ncolour: red\nvariables: x, y\n",
     "line 1: field must be an integer"),
    ("parse", "field: 32003\nvariables: x, y\ngenerator: x*+y\n",
     "line 3: dangling '*'"),
    ("inhomog", "field: 32003\nvariables: x, y\ngenerator: x^2 - y\n",
     "ideal file must be homogeneous"),
]


@pytest.mark.parametrize("name,text,message", MALFORMED_IDEAL_FILES,
                         ids=[case[0] for case in MALFORMED_IDEAL_FILES])
def test_malformed_ideal_file_is_input_error(curve_file, capsys, name, text,
                                             message):
    path = curve_file(name + ".ideal", text)
    code, out, err = run(capsys, ["betti", "--ideal-file", path])
    assert code == 2 and out == "" and f"error: {path}: {message}" in err


@pytest.mark.parametrize("flag,env,message", [
    (["--pair-budget", "0"], None, "pair budget must be positive"),
    ([], "0", "SECANTLAB_PAIR_BUDGET must be positive"),
], ids=["flag", "env"])
def test_nonpositive_pair_budget_is_input_error(curve_file, capsys,
                                                monkeypatch, flag, env,
                                                message):
    if env is not None:
        monkeypatch.setenv("SECANTLAB_PAIR_BUDGET", env)
    code, out, err = run(capsys, ["curve", "--file",
                                  curve_file("c.curve", RNC5), *flag])
    assert code == 2 and out == "" and f"error: {message}" in err


def test_identity_failure_is_internal_error(curve_file, capsys,
                                            monkeypatch):
    monkeypatch.setattr(homalg, "_rank_mod", lambda A, p: 0)
    path = curve_file("c.curve", RNC5)
    code, out, err = run(capsys, ["verify", "--file", path, "--k", "1",
                                  "--format", "json"])
    assert code == 4 and "internal error" in err
    doc = json.loads(out)
    assert {r["verdict"] for r in doc["rows"]} == \
        {"error(internal identity)"}
    assert "Hilbert numerator" in doc["instance"]["error"]
    code, _, err = run(capsys, ["betti", "--file", path, "--k", "1"])
    assert code == 4 and "internal error" in err


def _short_target(weights, numerator):
    # a join target one below the truth in degree 0 is never met, so the
    # driven elimination reduces everything and then rejects its basis
    return HilbertTarget(weights, {**numerator, 0: numerator[0] - 1})


def _not_prime_join(param, cur):
    # (z0·z4) is no join of a curve: z4 divides its leading monomial, so
    # the saturation criterion fails
    return [cur.ring.gen(0) * cur.ring.gen(4)]


@pytest.mark.parametrize("curve,name,patch,message", [
    (RNC5, "HilbertTarget", _short_target, "Hilbert target"),
    (RNC4, "_join_with_parametrization", _not_prime_join,
     "saturation criterion"),
], ids=["target", "z0z4"])
def test_join_target_failure_is_internal_error(curve_file, capsys,
                                               monkeypatch, curve, name,
                                               patch, message):
    monkeypatch.setattr(ideal_ops, name, patch)
    path = curve_file("c.curve", curve)
    code, _, err = run(capsys, ["secant", "--file", path, "--k", "1"])
    assert code == 4 and message in err
    code, out, _ = run(capsys, ["verify", "--file", path, "--k", "1",
                                "--format", "json"])
    assert code == 4
    doc = json.loads(out)
    assert {r["verdict"] for r in doc["rows"]} == \
        {"error(internal identity)"}
    assert message in doc["instance"]["error"]


def test_cli_import_needs_no_numpy():
    # the package has no third-party runtime dependency
    src = Path(secantlab.__file__).resolve().parent.parent
    probe = "import sys, secantlab.cli; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert res.stdout.strip() == "False"
