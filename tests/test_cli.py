"""Command line interface: JSON contracts, exit codes, file outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sumsetchains import search
from sumsetchains.cli import main
from sumsetchains.search import kernel_digest


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestMu:
    def test_profile(self, capsys):
        code, got = run_json(capsys, "mu", "--k", "5", "--t", "12")
        assert code == 0
        assert got == {"b": 1, "c": 3, "k": 5, "mu": 8, "t": 12}

    def test_out_of_range(self, capsys):
        code = main(["mu", "--k", "5", "--t", "99"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err


class TestDim:
    def test_two_dimensional(self, capsys):
        code, got = run_json(capsys, "dim", "--set", "{0,1,2,5}")
        assert code == 0
        assert got == {"dim": 2, "lambda": 1, "set": [0, 1, 2, 5]}

    def test_bad_literal(self, capsys):
        code = main(["dim", "--set", "not-a-set"])
        assert code == 1
        assert "bad set literal" in capsys.readouterr().err


class TestDecompose:
    def test_split(self, capsys):
        code, got = run_json(capsys, "decompose", "--set", "{0,2,3,4,5}")
        assert code == 0
        assert got == {"a1": [0, 2], "a2": [0], "p_len": 4}

    def test_not_decomposable(self, capsys):
        code, got = run_json(capsys, "decompose", "--set", "{0,1,2,4,5}")
        assert code == 2
        assert got == {"error": "not_decomposable"}


class TestChainCheck:
    def test_positive(self, capsys):
        code, got = run_json(capsys, "chain-check", "--set", "{0,4,6,7,8,10,14}")
        assert code == 0
        assert got["chain"] is True
        assert got["volume"] == 15
        assert got["layers"] == [
            [6, 7, 8],
            [4, 6, 7, 8],
            [0, 4, 6, 7, 8],
            [0, 4, 6, 7, 8, 10],
            [0, 4, 6, 7, 8, 10, 14],
        ]
        assert got["factorization"]["base"] == [0, 2, 3, 4, 5, 7]
        assert got["factorization"]["steps"] == [{"variant": "Dx", "x": 7}]

    def test_negative(self, capsys):
        code, got = run_json(capsys, "chain-check", "--set", "{0,3,4,6,7,8}")
        assert code == 2
        assert got == {"chain": False, "set": [0, 3, 4, 6, 7, 8]}


class TestFactorize:
    def test_positive(self, capsys):
        code, got = run_json(capsys, "factorize", "--set", "{0,4,5,6,8}")
        assert code == 0
        assert got == {
            "b_prime_case": False,
            "base": [0, 2, 3, 4],
            "steps": [{"variant": "Dx", "x": 5}],
        }

    def test_stuck(self, capsys):
        code, got = run_json(capsys, "factorize", "--set", "{0,1,3,7,12}")
        assert code == 2
        assert got["error"] == "not_factorizable"

    @pytest.mark.parametrize("text", ["{0}", "{0,1}"])
    def test_fewer_than_three_elements(self, capsys, text):
        code = main(["factorize", "--set", text])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "sumsetchains: error: factorize requires |A| >= 3\n"

    def test_a_span_past_the_mask_bound(self, capsys):
        # span 2**60: the pure twin refuses it before building a mask as wide
        # as the span, so the CLI reports the error, not a MemoryError
        code = main(["factorize", "--set", "{0,1,2,1152921504606846976}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "sumsetchains: error: doubling_size takes spans <= 2**24\n"


class TestFiso:
    def test_isomorphic(self, capsys):
        code, got = run_json(capsys, "fiso", "--a", "{0,1,2,4}", "--b", "{0,2,3,4}")
        assert code == 0
        assert got == {"isomorphic": True, "mapping": {"0": 4, "1": 3, "2": 2, "4": 0}}

    def test_not_isomorphic(self, capsys):
        code, got = run_json(capsys, "fiso", "--a", "{0,1,2,3}", "--b", "{0,1,2,4}")
        assert code == 2
        assert got == {"isomorphic": False}


class TestChainEnum:
    def test_k4_records(self, capsys):
        code, out = run(capsys, "chain-enum", "--k", "4")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["set"] for r in records] == [[0, 1, 2, 3], [0, 2, 3, 4]]
        assert [r["t"] for r in records] == [7, 8]
        assert [r["vol"] for r in records] == [4, 5]
        for r in records:
            assert r["factorization"]["b_prime_case"] is False

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "chains.jsonl"
        code, _ = run(capsys, "chain-enum", "--k", "4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["set"] == [0, 1, 2, 3]


class TestSearch:
    def test_csv_with_sidecars(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _ = run(capsys, "search", "--k", "4", "--t", "7", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,t,c,b,mu,observed_max_vol,attained,witness,violations"
        assert lines[1] == '4,7,2,0,3,4,1,"{0,1,2,3}",0'
        meta = json.loads((tmp_path / "report.meta.json").read_text())
        assert meta["backend"] in ("c", "python")
        assert meta["kernel_digest"] == kernel_digest()
        assert meta["threads"] == 1 and meta["force"] is False
        assert isinstance(meta["elapsed_seconds"], float) and meta["elapsed_seconds"] >= 0
        witnesses = [
            json.loads(line)
            for line in (tmp_path / "report.witnesses.jsonl").read_text().splitlines()
        ]
        assert witnesses == [{"k": 4, "kind": "witness", "set": [0, 1, 2, 3], "t": 7}]

    def test_csv_bytes_are_reproducible(self, capsys, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for path in (first, second):
            code, _ = run(capsys, "search", "--k", "4", "--out", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_out_into_a_missing_directory(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.csv"
        code = main(["search", "--k", "4", "--t", "7", "--out", str(out_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("sumsetchains: error: ")
        assert captured.out == ""

    def test_json_format(self, capsys):
        code, got = run_json(capsys, "search", "--k", "4", "--t", "7", "--format", "json")
        assert code == 0
        assert got[0]["observed_max_vol"] == 4
        assert got[0]["witnesses"] == [[0, 1, 2, 3]]


class TestVerify:
    def test_k4_json(self, capsys):
        code, got = run_json(capsys, "verify", "--k", "4", "--format", "json")
        assert code == 0
        assert got["ok"] is True
        assert got["chains"] == {"count": 2, "failures": []}
        assert got["extension_sweep"] == {"pairs": 11, "sets": 3, "violations": []}
        assert [c["t"] for c in got["conjecture"]] == [7, 8]
        assert all(c["ok"] for c in got["conjecture"])

    def test_forced_run_sweeps_extensions_past_the_budget(
        self, capsys, tmp_path, monkeypatch
    ):
        # --force lifts the budget for the conjecture part, and the extension
        # sweep then reads the table it filled instead of being skipped
        monkeypatch.setenv("SUMSETCHAINS_CACHE", str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search, "DEFAULT_BUDGET", 100)
        code, out = run(capsys, "verify", "--k", "5", "--force")
        assert code == 0
        assert "extension sweep k=5: 20 sets, 122 extensions, 0 violations PASS" in out
        assert "skipped (over budget)" not in out

    def test_k3_is_the_smallest_cardinality(self, capsys):
        # {0, 1, 2} is the only one-dimensional normal 3-set, so the default
        # bound mu(3, 5) + 3 and an explicit one give the same CSV
        code, out = run(capsys, "search", "--k", "3")
        assert code == 0
        assert out.splitlines()[1:] == ['3,5,2,0,2,3,1,"{0,1,2}",0']
        assert run(capsys, "search", "--k", "3", "--bound", "4") == (code, out)
        code, out = run(capsys, "verify", "--k", "3")
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out
        for command in ("search", "verify"):
            assert main([command, "--k", "2"]) == 1
            captured = capsys.readouterr()
            assert "k must be >= 3" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["search", "verify"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_must_be_positive(capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        main([command, "--k", "4", "--threads", threads])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "--threads" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    ("command", "own_flags"),
    [
        ("search", {"--k", "--t", "--bound", "--out", "--format"}),
        ("verify", {"--k", "--format"}),
    ],
)
def test_engine_flags(capsys, command, own_flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags - own_flags == {"--help", "--threads", "--no-cache", "--force"}
    with pytest.raises(SystemExit) as exc:
        main([command, "--k", "4", "--budget", "10"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "--budget" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["search", "verify"])
def test_over_budget_run_refuses_before_sweeping(capsys, tmp_path, monkeypatch, command):
    def no_sweep(*args):
        raise AssertionError("swept")

    monkeypatch.setenv("SUMSETCHAINS_CACHE", str(tmp_path))
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    monkeypatch.setattr(search.kernel, "census_slice", no_sweep)
    assert main([command, "--k", "8"]) == 1
    captured = capsys.readouterr()
    assert "capacity" in captured.err and "--force" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--k", "6", "--bound", "10"], "bound 10 is below mu(6,16) = 12"),
        (["--k", "7", "--bound", "20"], "bound 20 is below mu(7,22) = 24"),
        (["--k", "6", "--t", "16", "--bound", "11"], "bound 11 is below mu(6,16) = 12"),
    ],
)
def test_a_bound_below_some_mu_fails_before_any_walk(capsys, tmp_path, monkeypatch, argv, message):
    # every class's bound is checked before the first slice is walked: the
    # run exits 1 with the first class's message, walks nothing and writes
    # no slices file
    walks = []
    monkeypatch.setenv("SUMSETCHAINS_CACHE", str(tmp_path))
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    monkeypatch.setattr(search.kernel, "census_slice", lambda *args: walks.append(args))
    assert main(["search", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sumsetchains: error: {message}\n"
    assert captured.out == ""
    assert walks == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k, twin", [(6, "python"), (7, "c")])
def test_a_warm_verify_walks_nothing(request, capsys, tmp_path, monkeypatch, k, twin):
    # the table holds the census: a verify on a filled cache, in a fresh
    # process, reads every witness, violation and count off it, so no slice
    # primitive is called, and it writes nothing
    if twin == "c":
        request.getfixturevalue("compiled_facade")
    else:
        monkeypatch.setattr(search.kernel, "_c", None)
        monkeypatch.setattr(search.kernel, "BACKEND", "python")

    def walked(*args):
        raise AssertionError("a slice was walked")

    monkeypatch.setenv("SUMSETCHAINS_CACHE", str(tmp_path))
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    cold = run(capsys, "verify", "--k", str(k))
    assert cold[0] == 0
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert list(files) == [f"slices_k{k}.json"]
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    for name in ("sweep_slice", "collect_slice", "census_slice"):
        monkeypatch.setattr(search.kernel, name, walked)
    assert run(capsys, "verify", "--k", str(k)) == cold
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def modules_loaded_by_importing_the_cli(*names):
    """Which of names a fresh interpreter holds after `import sumsetchains.cli`."""
    code = f"import sys, sumsetchains.cli; print([m for m in {names!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_importing_the_cli_loads_no_pool_machinery():
    # the fan-out imports its executors only when it starts workers, so a
    # run with --threads 1 never pays for multiprocessing's import
    assert modules_loaded_by_importing_the_cli("multiprocessing", "concurrent.futures") == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # the result records are named tuples: dataclasses, and the inspect
    # module it pulls in, cost about 20 ms of start-up
    assert modules_loaded_by_importing_the_cli("dataclasses", "inspect") == "[]\n"
