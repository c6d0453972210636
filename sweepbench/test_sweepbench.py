"""Tests of the sweep benchmark itself: verdict checks, run isolation and
tracing wrappers. Run from the repository root:

    python3 -m pytest sweepbench -q
"""

import dataclasses
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import tracer  # noqa: E402
from sumsetchains.intset import IntSet  # noqa: E402

TINY = ("search", "--k", "4", "--t", "7")
TINY_OUT = b'k,t,c,b,mu,observed_max_vol,attained,witness,violations\n4,7,2,0,3,4,1,"{0,1,2,3}",0\n'


def _pin(stdout: bytes) -> dict:
    return {"exit": 0, "bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest()}


@pytest.fixture
def tiny_run(tmp_path, monkeypatch):
    """A Run over a seconds-long workload, importing the package from src."""

    def make(argv=TINY, ref=None, warm=False):
        monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(argv, 1, "report", warm))
        monkeypatch.setitem(run.WORKLOADS, "fill", run.Workload(("mu", "--k", "4", "--t", "7"), 1, "profile", False))
        monkeypatch.setattr(run, "FILL_WORKLOAD", "fill")
        reference = {"tiny": ref or _pin(TINY_OUT), "fill": _pin(b'{"b":0,"c":2,"k":4,"mu":3,"t":7}\n')}
        tmp = tmp_path / "run"
        tmp.mkdir()
        return run.Run("tiny", SRC, reference, tmp)

    return make


def test_pinned_verdict_passes(tiny_run):
    r = tiny_run()
    reps = r.measure(0)
    assert len(reps) == run.MIN_REPS
    assert all(rep.ok for rep in reps) and not r.failures
    assert run.end_to_end(r, reps, [0.1])["ok_share"] == [1.0]


def test_corrupted_reference_counts_as_failure(tiny_run):
    bad = _pin(TINY_OUT)
    bad["sha256"] = "0" * 64
    r = tiny_run(ref=bad)
    reps = r.measure(0)
    assert not any(rep.ok for rep in reps)
    assert len(r.failures) == r.attempted == len(reps)
    assert run.end_to_end(r, reps, [0.1])["ok_share"] == [0.0]
    assert "sha256" in r.failures[0]

    assert run.check_verdict(_pin(TINY_OUT), 2, TINY_OUT).startswith("exit 2")
    assert "bytes" in run.check_verdict(_pin(TINY_OUT), 0, TINY_OUT + b"\n")
    assert run.check_verdict(_pin(TINY_OUT), 0, TINY_OUT) == ""


def test_a_warm_rep_that_writes_the_cache_fails(tiny_run):
    # the tiny search writes its report into the cache the fill left empty
    r = tiny_run(warm=True)
    r.fill()
    rep, before, after = r.rep()
    assert not rep.ok and "warm cache changed" in rep.detail
    assert before == {} and len(after) == 2


def _tree(root: Path, skip: Path) -> dict:
    out = {}
    for p in root.rglob("*"):
        rel = p.relative_to(root)
        if p.is_relative_to(skip) or rel.parts[0] in (".git", ".pytest_cache", ".hypothesis"):
            continue
        if "__pycache__" in rel.parts:
            continue
        st = p.lstat()
        out[str(rel)] = (st.st_size, st.st_mtime_ns)
    return out


def test_a_run_writes_nothing_outside_its_temp_dir(tiny_run, tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / ".cache"))
    monkeypatch.setenv("SUMSETCHAINS_CACHE", str(home / "cache"))
    # the verdict does not matter here, only where the rep writes
    r = tiny_run(argv=("search", "--k", "5", "--threads", "2"))
    repo_before = _tree(ROOT, r.tmp)
    r.rep()
    assert _tree(ROOT, r.tmp) == repo_before
    assert list(home.iterdir()) == []
    caches = [p for p in r.tmp.rglob("report_*.json")]
    assert caches and all(p.is_relative_to(r.tmp) for p in caches)


# ---------------------------------------------------------------------------
# tracing


def _stable(value):
    """Drop wall-clock fields, which differ between any two calls."""
    if dataclasses.is_dataclass(value) and any(f.name == "elapsed" for f in dataclasses.fields(value)):
        return dataclasses.replace(value, elapsed=0.0)
    return value


SAMPLES = {
    "kernel.sweep_slice": (5, 8, 12),
    "kernel.collect_slice": (5, 8, (9, 10, 11)),
    "kernel.is_one_dimensional": ((0, 1, 2, 4),),
    "kernel.doubling_size": ((0, 1, 3),),
    "intset.sumset": (IntSet((0, 1, 3)), IntSet((0, 2))),
    "dimension.extension_candidates": (IntSet((0, 2, 3, 4)),),
    "stability.stable_decompose": (IntSet((0, 2, 3, 4, 5)),),
    "doubling.profile": (6, 14),
    "search.check_extension_lemmas": (IntSet((0, 1, 2, 3)), 4),
    "search.extension_lemma_sweep": (4,),
    "search.check_uniqueness_lemmas": (IntSet((0, 2, 3, 4)),),
    "search.vol1_oracle": (4, 7),
    "chains.enumerate_chains": (5,),
    "chains.is_chain": (IntSet((0, 4, 6, 7, 8)),),
    "growth.factorize": (IntSet((0, 1, 2, 4, 8)),),
}


@pytest.fixture
def installed(tmp_path, monkeypatch):
    monkeypatch.setenv("SUMSETCHAINS_CACHE", str(tmp_path / "cache"))
    tr = tracer.Tracer(tmp_path / "trace").install()
    yield tr
    tr.uninstall()


def test_every_wrapper_returns_what_the_wrapped_function_returns(installed):
    import importlib

    assert set(SAMPLES) == {name for _, _, name in tracer.TARGETS}
    assert installed.problems == []
    for mod_name, attr, name in tracer.TARGETS:
        wrapper = getattr(importlib.import_module(mod_name), attr)
        original = wrapper.__wrapped__
        expected = original(*SAMPLES[name])
        got = wrapper(*SAMPLES[name])
        assert type(got) is type(expected), name
        assert _stable(got) == _stable(expected), name
        assert installed.stats[name][0] >= 1, name

    assert IntSet((3, 1, 2)).elements == (1, 2, 3)
    assert installed.counts["intset.IntSet.constructions"] >= 1
    from sumsetchains import search

    with search.ProcessPoolExecutor(max_workers=1) as pool:
        assert list(pool.map(abs, [-1, -2])) == [1, 2]
    assert installed.counts["search.pool.starts"] == 1
    assert installed.counts["search.pool.jobs"] == 2


def test_wrapper_passes_objects_and_exceptions_through(tmp_path):
    tr = tracer.Tracer(tmp_path)
    sentinel = object()
    assert tr.wrap("probe", lambda *a, **k: sentinel)(1, x=2) is sentinel

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.stats["boom"][0] == 1

    def bad_hook(*args):
        raise ValueError("hook")

    assert tr.wrap("hooked", lambda: sentinel, before=bad_hook, after=bad_hook)() is sentinel
    assert any("hooked hook" in p for p in tr.problems)


def test_uninstall_restores_every_binding(tmp_path):
    from sumsetchains import cli, kernel, search

    before = (kernel.sweep_slice, search.sumset, cli.factorize, search.ProcessPoolExecutor, IntSet.__init__)
    tr = tracer.Tracer(tmp_path).install()
    assert search.sumset is not before[1] and cli.factorize is not before[2]
    tr.uninstall()
    assert (kernel.sweep_slice, search.sumset, cli.factorize, search.ProcessPoolExecutor, IntSet.__init__) == before
    assert ProcessPoolExecutor is before[3]


def test_spans_from_pool_workers_reach_the_trace(installed, tmp_path):
    from sumsetchains import search

    report = search.vol1_oracle(5, 9, threads=2, use_cache=False)
    installed.dump()
    merged = tracer.merge(tmp_path / "trace")
    slices = report.search_bound - 3  # maxima 4..bound
    assert merged["stats"]["kernel.sweep_slice"][0] == slices
    assert installed.stats["kernel.sweep_slice"][0] == 0  # all ran in workers
    assert merged["counts"]["search.pool.jobs"] == slices
