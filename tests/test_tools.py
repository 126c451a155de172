"""The scripts in tools/, loaded from their files (tools/ is not a package)."""

import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@functools.cache
def _load(name="src_lines"):
    """tools/`name`.py as a module, loaded once per session: what a tool keeps for its
    process (bench's count of src/ lines) is kept across the tests, as in one run."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = ('"""module\n\ndocstring"""\n# comment\n\nx = 1  # trailing\n\n'
              'class C:\n    """doc"""\n\n    def f(self):\n        """doc\n        more"""\n'
              '        return """a string,\nnot a docstring"""\n')
    # code: x = 1, class C:, def f, and both lines of the returned string
    assert _load().code_lines(source) == 5


def test_totals_are_the_sums_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\n')
    (tmp_path / "b.py").write_text("# only a comment\n\ny = 2\nz = 3\n")
    assert _load().main(["src_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["a.py", "2", "1"], ["b.py", "4", "2"], ["total", "6", "3"]]


def test_bench_records_times_and_repeatable_work_counts(tmp_path):
    # one 3-angle entry, twice: every key is there, and the orders kept are the same
    bench = _load("bench")
    runs = []
    for name in ("a.json", "b.json"):
        args = ["bench.py", "--repeat", "2", "--angles", "3", "--out", str(tmp_path / name),
                "pattern_packet"]
        assert bench.main(args) == 0
        runs.append(json.loads((tmp_path / name).read_text()))
    for run in runs:
        assert set(run) == {"machine", "settings", "src_lines", "entries"}
        assert set(run["machine"]) == {"cores", "python", "numpy", "machine", "blas_threads"}
        assert list(run["entries"]) == ["pattern_packet"] and run["src_lines"]["change"] > 0
        entry = run["entries"]["pattern_packet"]["change"]
        assert set(entry) == {"best_s", "median_s", "iqr_s", "runs", "hermite_orders"}
        assert 0.0 < entry["best_s"] <= entry["median_s"] and entry["runs"] == 2
    orders = [run["entries"]["pattern_packet"]["change"]["hermite_orders"] for run in runs]
    assert orders[0] == orders[1] and sum(orders[0].values()) == 3


def test_bench_cli_entries_split_each_pass_and_repeat_their_exit_codes(tmp_path):
    # cli.main on the committed cutoff and oracle scenarios, one timed pass each, twice
    bench = _load("bench")
    runs = []
    for name in ("a.json", "b.json"):
        args = ["bench.py", "--repeat", "1", "--out", str(tmp_path / name), "cli_cutoff",
                "cli_oracle"]
        assert bench.main(args) == 0
        runs.append(json.loads((tmp_path / name).read_text())["entries"])
    for entries in runs:
        for name, count in (("cli_cutoff", 10), ("cli_oracle", 3)):
            entry = entries[name]["change"]
            assert entry["exit_codes"] == [0] * count
            parts = entry["parts"]
            assert set(parts) == {"config", "library", "encode_write", "csv"}
            assert min(parts.values()) > 0.0 and parts["csv"] <= parts["encode_write"]
            assert parts["config"] + parts["library"] + parts["encode_write"] <= entry["best_s"]
    assert [e["cli_cutoff"]["change"]["hermite_orders"] for e in runs] == \
        [runs[0]["cli_cutoff"]["change"]["hermite_orders"]] * 2


def test_bench_doppler_entry_times_each_call_and_repeats_its_call_events(tmp_path):
    # the seven library calls of the committed doppler scenarios, one timed pass each, twice:
    # each call has its time, and the Python and C call events of a warm run repeat exactly
    bench = _load("bench")
    names = [op["name"] for op in json.loads((TOOLS / "scenarios" / "doppler" / "ops.json")
                                              .read_text())]
    runs = []
    for name in ("a.json", "b.json"):
        args = ["bench.py", "--repeat", "1", "--out", str(tmp_path / name), "doppler"]
        assert bench.main(args) == 0
        runs.append(json.loads((tmp_path / name).read_text())["entries"]["doppler"]["change"])
    for entry in runs:
        assert len(names) == 7 and list(entry["parts"]) == names == list(entry["events"])
        assert min(entry["parts"].values()) > 0.0
        assert sum(entry["parts"].values()) == pytest.approx(entry["best_s"])
        assert all(set(e) == {"python", "c"} and min(e.values()) > 0
                   for e in entry["events"].values())
    assert runs[0]["events"] == runs[1]["events"]
    assert runs[0]["hermite_orders"] == runs[1]["hermite_orders"]


def test_bench_cold_start_and_oracle_entries_repeat_their_work_counts(tmp_path):
    # the oracle scenarios in a fresh interpreter, and the oracle's phases at K = 201,
    # one timed run each, twice: the exit codes, the modules loaded and the root search's
    # work repeat exactly
    bench = _load("bench")
    runs = []
    for name in ("a.json", "b.json"):
        args = ["bench.py", "--repeat", "1", "--modes", "201", "--out", str(tmp_path / name),
                "cold_oracle", "oracle_201"]
        assert bench.main(args) == 0
        runs.append(json.loads((tmp_path / name).read_text())["entries"])
    for entries in runs:
        cold, oracle = entries["cold_oracle"]["change"], entries["oracle_201"]["change"]
        assert cold["exit_codes"] == [0] * 3 and cold["modules"] == []
        assert cold["vm_hwm_mb"] > 1.0 and cold["best_s"] > 0.0
        parts = oracle["parts"]
        assert set(parts) == {"roots", "far_roots", "lowner", "far_logs", "far_modes", "modes",
                              "amps"}
        assert min(parts.values()) >= 0.0
        assert parts["roots"] + parts["lowner"] + parts["modes"] + parts["amps"] == \
            pytest.approx(oracle["best_s"])
        assert oracle["iterations"] == 4 and oracle["near_terms"] > 0
    keys = {"cold_oracle": ("exit_codes", "modules"),
            "oracle_201": ("iterations", "near_terms", "far_nodes", "far_pairs")}
    work = [{(name, key): entries[name]["change"][key] for name in keys for key in keys[name]}
            for entries in runs]
    assert work[0] == work[1]


def test_bench_table_entry_times_both_calls_and_repeats_its_work_counts(tmp_path):
    # probability and divergence on a seeded 64-row table, one timed run each, twice: each
    # call has its time and its VmHWM rise in a fresh interpreter, and the rows and
    # evaluations repeat exactly
    bench = _load("bench")
    runs = []
    for name in ("a.json", "b.json"):
        args = ["bench.py", "--repeat", "1", "--rows", "64", "--out", str(tmp_path / name),
                "table_64"]
        assert bench.main(args) == 0
        runs.append(json.loads((tmp_path / name).read_text()))
    for run in runs:
        assert run["settings"]["rows"] == [64]
        entry = run["entries"]["table_64"]["change"]
        assert list(entry["parts"]) == ["probability", "divergence"] == list(entry["rise_mb"])
        assert min(entry["parts"].values()) > 0.0 and min(entry["rise_mb"].values()) >= 0.0
        assert sum(entry["parts"].values()) == pytest.approx(entry["best_s"])
        assert entry["rows"] == 64 and entry["hermite_orders"] == {"64": 4}
        evaluations = entry["evaluations"]
        assert evaluations["probability"] > 64 and set(evaluations["divergence"]) == {
            "roentgen", "standard", "roentgen_no_recoil_term"}
    work = [{key: run["entries"]["table_64"]["change"][key]
             for key in ("rows", "evaluations", "hermite_orders")} for run in runs]
    assert work[0] == work[1]

def test_bench_far_pairs_repeat_and_grow_as_k_log_k():
    # the far set-ups' directly summed source-point pairs at 4001 and 16001 modes: the same
    # on a rerun, and at most 3 NODES K per level of the tree (each level's boxes sum the
    # sources near their parents but far from them: about 3 K in a flat band), so K log K
    bench = _load("bench")
    package = bench.load(bench.REPO, "movingatom_bench")
    cauchy = sys.modules["movingatom_bench.cauchy"]
    for k in (4001, 16001):
        phases = bench.OraclePhases(package, k)
        first, second = (phases()["work"] for _ in range(2))
        assert first == second
        levels = 1 + math.ceil(math.log2(math.ceil(k / cauchy.BOX)))
        assert first["far_nodes"] == cauchy.NODES * sum(
            math.ceil(k / cauchy.BOX / 2 ** i) for i in range(levels))
        for name, pairs in first["far_pairs"].items():
            assert 0 < pairs <= 3 * cauchy.NODES * (k + 1) * levels, (k, name)


def test_cli_digest_prints_one_line_per_file_and_subcommand(tmp_path, capsys):
    (tmp_path / "a.yaml").write_text("atom: {epsilon: 0.01, gamma_tilde: 0.01}\n"
                                     "grid: {count: 5}\n")
    (tmp_path / "b.yaml").write_text("scan: {points: 4}\n")  # fails to load: exit 2
    digest = _load("cli_digest")
    args = ["cli_digest.py", str(tmp_path), "spectrum", "divergence"]
    assert digest.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["a.yaml", "spectrum", "exit=0"], ["a.yaml", "divergence", "exit=0"],
        ["b.yaml", "spectrum", "exit=2"], ["b.yaml", "divergence", "exit=2"]]
    assert [len(line.split()) for line in lines] == [5, 6, 3, 3]  # files written, manifest too
    assert digest.main(args) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_untested_lines_are_the_function_statements_that_never_ran():
    source = ('"""module"""\nx = 1\n\n\ndef f(a):\n    """doc"""\n    if a:\n'
              '        return (a +\n                1)\n    raise ValueError("no")\n\n\n'
              'def g():\n    def h():\n        """doc"""\n        pass\n    return h\n')
    # line 9 runs the second line of the return on line 8; module code and docstrings
    # are not counted, compound statements only through their bodies
    untested = _load("untested_lines").untested
    assert untested(source, {7, 9, 14, 17}) == [(10, 'raise ValueError("no")'), (16, "pass")]
    assert untested(source, set()) == [(8, "return (a +"), (10, 'raise ValueError("no")'),
                                       (16, "pass"), (17, "return h")]


def test_line_fuzz_prints_the_count_over_the_bound_and_the_worst_draw(capsys):
    pytest.importorskip("mpmath")
    assert _load("line_fuzz").main(["line_fuzz.py", "--draws", "3"]) == 0
    count, worst = capsys.readouterr().out.splitlines()
    assert count == "draws 3  seed 1  over 1e-13: 0"
    assert worst.startswith("worst ") and "model=roentgen eps=0.0 gt=3.826" in worst
