import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from test_golden import timing_free
import smoothip
from smoothip import cli, pipeline, poly, relax, rounding
from smoothip.cli import load_instance, main
from smoothip.pipeline import (
    EXACT_CAP,
    Instance,
    PreparedInstance,
    SolveConfig,
    guarantee_bound,
    prepare,
    solve,
)
from smoothip.poly import Polynomial
from smoothip.problems import MAX_VARIABLES, parse_dimacs_graph

TRIANGLE_TEXT = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(code: str, *args: str, **env) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter with this checkout's src/ on
    PYTHONPATH and env added to the environment."""
    src = str(Path(smoothip.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ, **env,
        PYTHONPATH=src if not path else src + os.pathsep + path,
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, timeout=60,
    )


def modules_after(statement: str) -> set:
    """The names in sys.modules once statement has run in a fresh
    interpreter with this checkout's src/ on PYTHONPATH."""
    code = f"import json, sys; {statement}; print(json.dumps([*sys.modules]))"
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_import_loads_no_optional_comparator():
    """The package and its CLI import on numpy alone: scipy (the HiGHS
    cross-check) and hypothesis (the property tests) stay out of the
    import path, in a fresh interpreter."""
    top = {name.split(".")[0] for name in modules_after("import smoothip.cli")}
    assert not top & {"scipy", "hypothesis"}


def test_cli_import_starts_no_process_machinery():
    """A sweep runs its cells in turn, in one process: importing the CLI
    loads neither multiprocessing nor concurrent.futures."""
    loaded = modules_after("import smoothip.cli")
    assert not loaded & {"multiprocessing", "concurrent.futures"}


@pytest.mark.parametrize(
    "text",
    [
        "p edge 100000000 0\n",
        "p cnf 100000000 0\n",
        '{"n": 100000000, "k": 1, "constraints": []}',
    ],
)
def test_a_huge_header_is_refused_before_anything_is_sized_by_it(
    tmp_path, text
):
    """A file that declares 10^8 variables and no terms is one error line
    and exit 2 in a process whose address space is capped at 1 GiB; per-
    variable tables for 10^8 variables would not fit in it."""
    path = tmp_path / "huge"
    path.write_text(text)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from smoothip.cli import main\n"
        "sys.exit(main(['verify', sys.argv[1]]))\n"
    )
    done = run_python(code, str(path), OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == (
        f"error: 100000000 variables exceeds the limit of {MAX_VARIABLES}"
        " per instance\n"
    )


# -- gen ----------------------------------------------------------------


def test_gen_complete_graph(tmp_path, capsys):
    out = tmp_path / "g.graph"
    code, _, _ = run(capsys, "gen", "maxcut", "--n", "8", "--p", "1.0",
                     "--out", str(out))
    assert code == 0
    graph = parse_dimacs_graph(out.read_text())
    assert len(graph.edges) == 28


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "maxksat", "--n", "10", "--m", "40",
                         "--k", "3", "--seed", "7", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "maxcut", "--n", "4", "--p", "0.0")
    assert code == 0
    assert out == "p edge 4 0\n"


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "maxkcsp", "--n", "3", "--k", "5",
                       "--m", "2")
    assert code == 2
    assert "error:" in err


def test_unknown_flags_exit_2(capsys):
    assert main(["gen", "maxcut", "--Q", "1"]) == 2
    assert main([]) == 2


# -- solve --------------------------------------------------------------


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE_TEXT)
    return path


def test_solve_triangle_exact(triangle_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", str(triangle_file),
                       "--prediction", "exact", "--json", str(report_path))
    assert code == 0
    assert "best value: 2 (2)" in out
    payload = json.loads(report_path.read_text())
    assert payload["best_value"] == "2"
    assert payload["label"] == "triangle"
    assert len(payload["per_eps"]) == 4


def test_zero_perturbation_equals_exact(triangle_file, capsys):
    _, exact_out, _ = run(capsys, "solve", str(triangle_file),
                          "--prediction", "exact")
    _, perturbed_out, _ = run(capsys, "solve", str(triangle_file),
                              "--prediction", "perturb:0")
    pick = lambda text: [
        line for line in text.splitlines() if line.startswith("best value")
    ]
    assert pick(exact_out) == pick(perturbed_out)


@pytest.mark.parametrize("source", ["exact", "perturb:1"])
def test_solve_normalizes_once(triangle_file, capsys, monkeypatch, source):
    """The prediction's brute force and the solve share one prepared
    instance."""
    normalized = counted_calls(monkeypatch, pipeline, "_normalized")
    code, _, _ = run(capsys, "solve", str(triangle_file),
                     "--prediction", source)
    assert code == 0
    assert len(normalized) == 1


def test_solve_explicit_grid_row_count(tmp_path, capsys):
    instance = tmp_path / "g.graph"
    run(capsys, "gen", "maxcut", "--n", "10", "--p", "0.5", "--seed", "1",
        "--out", str(instance))
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "solve", str(instance), "--grid", "0,5,10",
                     "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eps,lp_value,rounded_value,violation_max,wall_ms"
    assert len(lines) == 4


def test_solve_csv_deterministic_modulo_timing(tmp_path, capsys):
    instance = tmp_path / "g.graph"
    run(capsys, "gen", "maxcut", "--n", "9", "--p", "0.6", "--seed", "3",
        "--out", str(instance))
    outputs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code, _, _ = run(capsys, "solve", str(instance), "--prediction",
                         "perturb:2", "--csv", str(path))
        assert code == 0
        outputs.append(
            [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        )
    assert outputs[0] == outputs[1]


def without_timing(report_path) -> dict:
    payload = json.loads(report_path.read_text())
    for record in payload["per_eps"]:
        del record["wall_ms"]
    return payload


def test_solve_json_equal_across_runs_modulo_timing(tmp_path, capsys):
    instance = tmp_path / "g.graph"
    run(capsys, "gen", "maxcut", "--n", "10", "--p", "0.5", "--seed", "6",
        "--out", str(instance))
    payloads = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, "solve", str(instance), "--prediction",
                         "perturb:3", "--strategy", "randomized",
                         "--seed", "2", "--json", str(path))
        assert code == 0
        payloads.append(without_timing(path))
    assert payloads[0] == payloads[1]
    assert len(payloads[0]["per_eps"]) == 11


def test_solve_stride_grid(tmp_path, capsys):
    instance = tmp_path / "g.graph"
    run(capsys, "gen", "maxcut", "--n", "10", "--p", "0.4", "--seed", "9",
        "--out", str(instance))
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", str(instance), "--grid", "stride:3",
                       "--json", str(report_path))
    assert code == 0
    assert "eps records: 4 (0 skipped)" in out
    payload = json.loads(report_path.read_text())
    assert [r["eps"] for r in payload["per_eps"]] == [0, 3, 6, 9]
    code, _, err = run(capsys, "solve", str(instance), "--grid", "stride:0")
    assert code == 2
    assert "stride must be at least 1" in err


def test_solve_prediction_file(triangle_file, tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text("100\n")
    code, out, _ = run(capsys, "solve", str(triangle_file),
                       "--prediction", f"file:{pred}")
    assert code == 0
    assert "best value: 2 (2)" in out


def test_solve_error_paths(triangle_file, tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.graph")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.graph"
    bad.write_text("p edge 3 5\ne 1 2\n")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()
    assert main(["solve", str(triangle_file), "--prediction", "psychic"]) == 2


# -- sweep --------------------------------------------------------------


@pytest.fixture
def two_instances(tmp_path, capsys):
    cut = tmp_path / "cut.graph"
    sat = tmp_path / "sat.cnf"
    run(capsys, "gen", "maxcut", "--n", "7", "--p", "0.6", "--seed", "2",
        "--out", str(cut))
    run(capsys, "gen", "maxksat", "--n", "7", "--m", "20", "--k", "3",
        "--seed", "3", "--out", str(sat))
    return cut, sat


def test_sweep_table(two_instances, tmp_path, capsys):
    cut, sat = two_instances
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", str(cut), str(sat), "--eps", "2,0",
                     "--trials", "2", "--seed", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,eps,trial,achieved,opt,ratio,bound"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    keys = [(r[0], int(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        achieved, bound = float(row[3]), float(row[6])
        assert achieved >= bound - 1e-9
        if row[1] == "0":
            assert float(row[5]) == 1.0


def test_sweep_deterministic(two_instances, tmp_path, capsys):
    cut, _ = two_instances
    texts = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        code, _, _ = run(capsys, "sweep", str(cut), "--eps", "0,3",
                         "--trials", "2", "--seed", "11", "--out", str(path))
        assert code == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def sweep_rows(capsys, out, *argv):
    code, _, _ = run(capsys, "sweep", *argv, "--out", str(out))
    assert code == 0
    return [line.split(",") for line in out.read_text().splitlines()[1:]]


@pytest.mark.parametrize(
    "strategy,k", [("greedy", "1"), ("randomized", "2")]
)
def test_sweep_bound_is_the_brute_forced_guarantee(
    two_instances, tmp_path, capsys, strategy, k
):
    rows = sweep_rows(
        capsys, tmp_path / "sweep.csv", *map(str, two_instances),
        "--eps", "0,2,5", "--trials", "2", "--strategy", strategy, "--k", k,
    )
    assert len(rows) == 12
    instances = {path.stem: load_instance(path) for path in two_instances}
    config = SolveConfig(strategy=strategy, k=int(k))
    for row in rows:
        bound = guarantee_bound(instances[row[0]], int(row[1]), config)
        assert row[6] == repr(float(bound))


@pytest.mark.parametrize("strategy", ["greedy", "randomized"])
def test_sweep_of_an_instance_with_n_at_most_d_keeps_opt(
    tmp_path, capsys, strategy
):
    """With n <= d, solve brute-forces and rounds nothing, so the floor is
    opt: a one-variable CNF and a two-variable graph sweep with exit 0
    and bound == opt in every row, under either strategy."""
    one = tmp_path / "one.cnf"
    one.write_text("p cnf 1 1\n1 0\n")
    edge = tmp_path / "edge.gr"
    edge.write_text("p edge 2 1\ne 1 2\n")
    rows = sweep_rows(
        capsys, tmp_path / "sweep.csv", str(one), str(edge),
        "--eps", "0,1", "--trials", "2", "--strategy", strategy,
    )
    assert len(rows) == 8
    for row in rows:
        assert row[6] == row[4]
        assert row[3] == row[4]


def counted_calls(monkeypatch, module, name, keep=lambda *args: True):
    """Replace module.name by a wrapper that records the arguments of
    every call that keep accepts."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def brute_force_calls(monkeypatch):
    return counted_calls(monkeypatch, pipeline, "_exact")


def test_sweep_brute_forces_once_per_file(
    two_instances, tmp_path, capsys, brute_force_calls
):
    rows = sweep_rows(capsys, tmp_path / "sweep.csv", *map(str, two_instances),
                      "--eps", "0,2", "--trials", "2")
    assert len(rows) == 8
    assert len(brute_force_calls) == 2


def test_sweep_prepares_once_per_file(
    two_instances, tmp_path, capsys, monkeypatch
):
    plans = counted_calls(monkeypatch, pipeline, "RelaxationPlan")
    baselines = counted_calls(
        monkeypatch, pipeline, "greedy_round",
        lambda p, y: all(v == Fraction(1, 2) for v in y),
    )
    rows = sweep_rows(capsys, tmp_path / "sweep.csv", *map(str, two_instances),
                      "--eps", "0,2,3", "--trials", "2")
    assert len(rows) == 12
    assert len(plans) == 2
    assert len(baselines) == 2


def test_sweep_builds_the_rounding_tables_once_per_file(
    two_instances, tmp_path, capsys, monkeypatch
):
    """Greedy rounding's tables are built by prepare, once per file; a
    solve of the prepared instance rounds every budget with them."""
    tables = counted_calls(monkeypatch, rounding.GreedyTables, "__init__")
    rows = sweep_rows(capsys, tmp_path / "sweep.csv", *map(str, two_instances),
                      "--eps", "0,2,3", "--trials", "2")
    assert len(rows) == 12
    assert len(tables) == 2
    prepared = prepare(load_instance(two_instances[0]))
    assert len(tables) == 3
    rounded = counted_calls(monkeypatch, pipeline, "greedy_round")
    report = solve(prepared, (0, 1) * 3 + (0,), SolveConfig())
    assert len(tables) == 3
    assert len(rounded) > 1 and all(
        args[0] is prepared.greedy for args in rounded
    )
    assert report.per_eps


def test_prepare_scans_each_polynomial_once_for_multilinearity(
    monkeypatch,
):
    """prepare looks for a repeated index once per polynomial, in
    multilinearize; greedy rounding's tables and the relaxation plans
    see a repeat inside loops they run anyway, without a scan of their
    own."""
    scans = [
        counted_calls(monkeypatch, module, "is_multilinear")
        for module in (poly, rounding, relax, pipeline)
        if hasattr(module, "is_multilinear")
    ]
    square = Polynomial(4, {(0, 0): 1, (0, 1): -2, (2, 3): 3})
    count = Polynomial(4, {(i,): 1 for i in range(4)})
    cube = Polynomial(4, {(1, 1, 2): 1, (3,): Fraction(1, 2)})
    prepare(Instance(square, ((count, None, 2), (cube, 0, None))))
    scanned = [args[0] for calls in scans for args in calls]
    assert scanned == [square, count, cube]


def test_sweep_builds_the_relaxation_plans_once_per_file(
    two_instances, tmp_path, capsys, monkeypatch
):
    """A two-file sweep builds two relaxation plans, one per objective,
    not one per cell; every cell's relaxation reads its file's plan."""
    plans = counted_calls(monkeypatch, pipeline, "RelaxationPlan")
    relaxations = counted_calls(monkeypatch, pipeline, "prepare_relaxation")
    rows = sweep_rows(capsys, tmp_path / "sweep.csv", *map(str, two_instances),
                      "--eps", "0,2,3", "--trials", "2")
    assert len(rows) == 12
    assert len(plans) == 2
    assert len(relaxations) == 12
    built = {id(args[0]) for args in relaxations}
    assert len(built) == 2


def test_sweep_cells_solve_their_own_file(
    two_instances, tmp_path, capsys, monkeypatch
):
    """Each cell's report is the solve of the file its payload carries,
    from scratch, with the cell's prediction and config; both files have
    7 variables, so a tree or baseline taken from the other file would
    not fail on its size.  The cells of one file share its one prepared
    instance."""
    cells = counted_calls(monkeypatch, cli, "_sweep_cell")
    solves = []
    original = cli.solve

    def captured(instance, prediction, config):
        report = original(instance, prediction, config)
        solves.append((prediction, config, report))
        return report

    monkeypatch.setattr(cli, "solve", captured)
    sweep_rows(capsys, tmp_path / "sweep.csv", *map(str, two_instances),
               "--eps", "1,3", "--trials", "2", "--seed", "9")
    assert len(cells) == len(solves) == 8
    paths = {path.stem: path for path in two_instances}
    shared = {}
    for (payload,), (prediction, config, report) in zip(cells, solves):
        prepared = payload[0]
        assert isinstance(prepared, PreparedInstance)
        assert shared.setdefault(prepared.label, prepared) is prepared
        path = paths[prepared.label]
        assert report.label == path.stem
        direct = solve(load_instance(path), prediction, config)
        assert timing_free(report) == timing_free(direct)
    assert sorted(shared) == sorted(paths)


def test_sweep_takes_no_opt(two_instances, brute_force_calls, capsys):
    """A sweep's opt column is always its brute-forced optimum: --opt is
    no sweep flag, and passing it exits 2 before any brute force."""
    cut, _ = two_instances
    code, out, err = run(capsys, "sweep", str(cut), "--eps", "0",
                         "--opt", "5")
    assert code == 2
    assert out == "" and "--opt" in err
    assert brute_force_calls == []


@pytest.fixture
def large_file(tmp_path, capsys):
    path = tmp_path / "g30.graph"
    run(capsys, "gen", "maxcut", "--n", "30", "--p", "0.2", "--seed", "1",
        "--out", str(path))
    assert load_instance(path).objective.n > EXACT_CAP
    return path


def test_large_instance_needs_a_prediction_file(large_file, tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text("01" * 15 + "\n")
    code, out, _ = run(capsys, "solve", str(large_file), "--grid", "0,30",
                       "--prediction", f"file:{pred}")
    assert code == 0
    assert "eps records: 2 (0 skipped)" in out
    for flag in ("exact", "perturb:3"):
        code, _, err = run(capsys, "solve", str(large_file),
                           "--prediction", flag)
        assert code == 2
        assert "pass --prediction file:PATH" in err
    code, out, _ = run(capsys, "verify", str(large_file))
    assert code == 0
    assert "density: unknown" in out


def test_rejects_bad_input_before_any_brute_force(
    large_file, two_instances, brute_force_calls, capsys
):
    cut, _ = two_instances
    code, _, err = run(capsys, "sweep", str(cut), str(large_file),
                       "--eps", "0")
    assert code == 2
    assert str(large_file) in err
    assert "a sweep perturbs the brute-forced optimum" in err
    code, _, err = run(capsys, "sweep", str(cut), "--eps", "0,99")
    assert code == 2
    assert "[0, 7]" in err
    assert run(capsys, "sweep", str(cut), "--eps", "0", "--opt", "x")[0] == 2
    assert run(capsys, "solve", str(cut), "--prediction", "perturb:8")[0] == 2
    assert brute_force_calls == []


@pytest.mark.parametrize("opt", ["1/0", "inf", "x"])
@pytest.mark.parametrize("command", ["verify"])
def test_bad_opt_is_rejected_before_any_output_or_brute_force(
    two_instances, brute_force_calls, capsys, command, opt
):
    cut, _ = two_instances
    code, out, err = run(capsys, command, str(cut), "--opt", opt)
    assert code == 2
    assert out == ""
    assert err == f"error: --opt {opt!r} is not a rational number\n"
    assert brute_force_calls == []


@pytest.mark.parametrize(
    "flags",
    [("--k", "0"), ("--k", "-1"), ("--trials", "0"), ("--trials", "-1")],
    ids=["k=0", "k=-1", "trials=0", "trials=-1"],
)
def test_sweep_rejects_bad_flags_before_any_brute_force(
    two_instances, capsys, monkeypatch, flags
):
    brute_forced = counted_calls(monkeypatch, cli, "exact_solve")
    code, out, err = run(capsys, "sweep", *map(str, two_instances),
                         "--eps", "0,2", *flags)
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert brute_forced == []


@pytest.mark.parametrize("grid", ["0,99", "-1", "0,8"])
def test_solve_rejects_an_out_of_range_grid_before_the_prediction(
    two_instances, capsys, monkeypatch, grid
):
    cut, _ = two_instances
    predicted = counted_calls(monkeypatch, cli, "exact_prediction")
    for prediction in ("exact", "perturb:1"):
        code, _, err = run(capsys, "solve", str(cut), "--grid", grid,
                           "--prediction", prediction)
        assert code == 2
        assert "outside [0, 7]" in err
    assert predicted == []


# -- verify -------------------------------------------------------------


def test_verify_triangle(triangle_file, capsys):
    code, out, _ = run(capsys, "verify", str(triangle_file))
    assert code == 0
    assert "n: 3" in out
    assert "degree: 2" in out
    assert "beta: 2 (2)" in out
    assert "decomposition nodes:" in out
    assert "density: dense" in out


def test_verify_empty_cnf(tmp_path, capsys):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 5 0\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "monomials: 0" in out
    assert "beta: 0 (0)" in out


def test_verify_threesat(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    run(capsys, "gen", "maxksat", "--n", "9", "--m", "30", "--k", "3",
        "--seed", "4", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "degree: 3" in out
    beta_line = next(
        line for line in out.splitlines() if line.startswith("beta:")
    )
    assert float(beta_line.split()[1]) <= 64


def test_verify_with_supplied_opt(triangle_file, capsys):
    code, out, _ = run(capsys, "verify", str(triangle_file), "--opt", "2")
    assert code == 0
    assert "density: dense" in out


VERIFY_OUTPUT = {
    "triangle.graph": """\
instance: triangle (kind=maxcut)
n: 3
degree: 2
monomials: 6
beta: 2 (2)
decomposition nodes: 7
density thresholds: dense >= 1.125 (n^d/8), near-dense >= 6.83852 (n^(d-1/4))
density: dense (optimum 2)
""",
    "f.cnf": """\
instance: f (kind=maxksat)
n: 9
degree: 3
monomials: 56
beta: 2 (2)
decomposition nodes: 63
density thresholds: dense >= 91.125 (n^d/8), near-dense >= 420.888 (n^(d-1/4))
density: below both thresholds (optimum 30)
""",
    "empty.cnf": """\
instance: empty (kind=maxksat)
n: 5
degree: 2
monomials: 0
beta: 0 (0)
decomposition nodes: 1
density thresholds: dense >= 3.125 (n^d/8), near-dense >= 16.7185 (n^(d-1/4))
density: below both thresholds (optimum 0)
""",
}


def test_verify_prints_its_diagnostics_without_rounding(
    tmp_path, capsys, monkeypatch
):
    (tmp_path / "triangle.graph").write_text(TRIANGLE_TEXT)
    (tmp_path / "empty.cnf").write_text("p cnf 5 0\n")
    run(capsys, "gen", "maxksat", "--n", "9", "--m", "30", "--k", "3",
        "--seed", "4", "--out", str(tmp_path / "f.cnf"))

    def no_rounding(*args):
        raise AssertionError("verify rounded a point")

    monkeypatch.setattr(pipeline, "greedy_round", no_rounding)
    monkeypatch.setattr(rounding, "greedy_round", no_rounding)
    for name, expected in VERIFY_OUTPUT.items():
        assert run(capsys, "verify", str(tmp_path / name)) == (
            0, expected, ""
        )


# -- loader -------------------------------------------------------------


def test_load_instance_detects_kinds(tmp_path, capsys):
    graph = tmp_path / "a.graph"
    graph.write_text(TRIANGLE_TEXT)
    assert load_instance(graph).kind == "maxcut"
    cnf = tmp_path / "a.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    assert load_instance(cnf).kind == "maxksat"
    csp = tmp_path / "a.json"
    run(capsys, "gen", "maxkcsp", "--n", "5", "--m", "4", "--k", "2",
        "--out", str(csp))
    inst = load_instance(csp)
    assert inst.kind == "maxkcsp"
    assert inst.h == 4
    # The header is routed by its words, as the DIMACS parsers read it.
    for single, spaced in (
        (graph, TRIANGLE_TEXT.replace("p edge", "p  edge")),
        (cnf, "p\tcnf 2 1\n1 -2 0\n"),
    ):
        other = tmp_path / f"spaced{single.suffix}"
        other.write_text(spaced)
        loaded, expected = load_instance(other), load_instance(single)
        assert loaded.kind == expected.kind
        assert loaded.objective == expected.objective
    for header in ("p edges 3 2", "p col 3 2"):
        misspelt = tmp_path / "misspelt.graph"
        misspelt.write_text(f"{header}\ne 1 2\ne 2 3\n")
        with pytest.raises(ValueError, match=f"bad header '{header}'"):
            load_instance(misspelt)


GOOD_CSP = {"n": 3, "k": 2, "constraints": [{"scope": [0, 1], "table": "0110"}]}


@pytest.mark.parametrize(
    "payload",
    [
        GOOD_CSP | {"constraints": [[[0, 1], 5]]},
        GOOD_CSP | {"constraints": [{"scope": [0, 1]}]},
        GOOD_CSP | {"constraints": [{"scope": [0, 1], "table": 5}]},
        GOOD_CSP | {"n": "3"},
        GOOD_CSP | {"constraints": 7},
        GOOD_CSP | {"k": 2.0},
        GOOD_CSP | {"constraints": [{"scope": 5, "table": "0110"}]},
        GOOD_CSP | {"constraints": [{"scope": [0, 1.0], "table": "0110"}]},
        GOOD_CSP | {"constraints": [{"scope": [0, 1], "table": ["0110"]}]},
    ],
    ids=[
        "entry-not-object", "no-table", "table-int", "n-string",
        "constraints-int", "k-float", "scope-int", "scope-float",
        "table-list",
    ],
)
def test_malformed_csp_json_is_a_parse_error(tmp_path, capsys, payload):
    """A CSP file of the wrong shape exits 2 with an error line, not a
    traceback."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_CSP))
    assert run(capsys, "verify", str(good))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
