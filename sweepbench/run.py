"""Sweep benchmark: time to a correct verdict from the sumsetchains CLI.

Usage, from the root of a checkout:

    python3 sweepbench/run.py --workload oracle-cold --seed 1 --seconds 40 --trace 0

Workloads (each rep is a fresh process that imports the package and calls
``sumsetchains.cli.main(argv)``; they are exhaustive, so the seed only
drives the kernel probes of a traced run):

  oracle-cold  ``search --k 7 --threads 2`` in an empty cache directory: the
               slice sweeps and process-pool fan-out, no chain or lemma code.
  verify-warm  ``verify --k 7 --format json`` against a filled cache: the
               object layer and ``collect_slice``; the sweep never runs.
  chain-enum   ``chain-enum --k 10``: chain growth and per-set rank calls;
               no sweep, cache or pool. Runnable by hand but not listed in
               BENCHMARK.json: on a shared 2-vCPU host its run-to-run spread
               reached the largest bound the gate allows.

The package is built once per source digest with the repository's own
``setup.py`` into ``.bench_build/sweepbench`` and imported from there, so a
buildable compiled kernel is measured without editing this file. Every rep's
exit code and stdout are checked against the verdicts pinned in
``reference.json``; every rep gets ``SUMSETCHAINS_CACHE`` inside the run's
own temp directory, and ``SUMSETCHAINS_KERNEL`` is cleared.

A run repeats reps until the next one would overrun ``--seconds`` (at least
two) and reports medians. The last stdout line is the result object; the
lines before it give the environment and every metric with its unit,
quartiles and sample count. With ``--trace 1`` one more rep runs traced and
the per-layer metrics are reported instead of the end-to-end ones; a layer
the workload never reaches reports 0, and the ``kernel.c.*`` probes report 0
with ``kernel.c.loaded`` 0 while the compiled extension does not build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from tracer import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build" / "sweepbench"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

MIN_REPS = 2
SETUP_SAMPLES = 11
# the whole run, build excluded, must end well inside 180 s
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    units: int  # work per rep, for units_per_s
    unit: str
    warm: bool  # run against a cache filled before timing


# oracle-cold sweeps every normal 7-set with max <= mu(7, 23) + 7 = 39,
# which is C(39, 6) candidates; the other unit counts are read off the
# pinned outputs (pairs in the extension sweep, lines of chain-enum).
WORKLOADS = {
    "oracle-cold": Workload(
        ("search", "--k", "7", "--threads", "2"), math.comb(39, 6), "candidates", False
    ),
    "verify-warm": Workload(
        ("verify", "--k", "7", "--format", "json"), 93_657, "extension pairs", True
    ),
    "chain-enum": Workload(("chain-enum", "--k", "10"), 4_053, "chains", False),
}
# The warm cache is filled by the oracle-cold command: it writes exactly the
# report and slice files that verify reads (both go through
# verify_conjecture with default bounds), with two workers instead of the one
# verify uses and without verify's extension sweep, and its output is pinned.
FILL_WORKLOAD = "oracle-cold"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (build failed, no sources)."""


# ---------------------------------------------------------------------------
# build


def source_digest(root: Path) -> str:
    """sha256 over the files setup.py builds from."""
    h = hashlib.sha256()
    files = [root / "setup.py", root / "pyproject.toml"]
    files += sorted(
        p
        for p in (root / "src").rglob("*")
        if p.is_file() and p.suffix in (".py", ".pyx", ".pxd", ".c", ".h")
    )
    for path in files:
        if not path.is_file():
            raise BenchError(f"missing build input {path.relative_to(root)}")
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def build(root: Path = ROOT) -> tuple[Path, dict]:
    """Build the package with setup.py into a directory keyed by the source
    digest, reusing an earlier build of the same sources."""
    digest = source_digest(root)
    target = BUILD_ROOT / digest[:16]
    summary_path = target / "build.json"
    if summary_path.is_file():
        return target / "lib", json.loads(summary_path.read_text())
    shutil.rmtree(target, ignore_errors=True)
    partial = BUILD_ROOT / f"{digest[:16]}.partial"
    shutil.rmtree(partial, ignore_errors=True)
    (partial / "egg").mkdir(parents=True)
    cmd = [
        sys.executable, "setup.py",
        "egg_info", "--egg-base", str(partial / "egg"),
        "build", "--build-base", str(partial / "build"), "--build-lib", str(partial / "lib"),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    log = proc.stdout + proc.stderr
    (partial / "build.log").write_text(log)
    if proc.returncode != 0:
        raise BenchError(f"setup.py build failed ({proc.returncode}):\n{log[-2000:]}")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(partial / "lib")], check=True
    )
    extensions = sorted(
        p.name for p in (partial / "lib").rglob("*") if p.suffix in (".so", ".pyd")
    )
    summary = {
        "source_digest": digest,
        "seconds": round(time.monotonic() - start, 3),
        "log_lines": len(log.splitlines()),
        "warnings": sum("warning" in line.lower() for line in log.splitlines()),
        "extensions": extensions,
    }
    (partial / "build.json").write_text(json.dumps(summary, indent=1))
    os.replace(partial, target)
    return target / "lib", summary


# ---------------------------------------------------------------------------
# one rep


@dataclass(frozen=True)
class Rep:
    ok: bool
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    backend: str
    detail: str


def child_env(pythonpath: Path, tmp: Path, cache: Path, trace_dir: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUMSETCHAINS_")}
    env.pop("SWEEPBENCH_TRACE", None)
    env.update(
        PYTHONPATH=str(pythonpath),
        PYTHONDONTWRITEBYTECODE="1",
        SUMSETCHAINS_CACHE=str(cache),
        HOME=str(tmp / "home"),
        XDG_CACHE_HOME=str(tmp / "home" / ".cache"),
        TMPDIR=str(tmp),
        SWEEPBENCH_INFO=str(tmp / "info.json"),
    )
    if trace_dir is not None:
        env["SWEEPBENCH_TRACE"] = str(trace_dir)
    return env


def check_verdict(ref: dict | None, exit_code: int, stdout: bytes) -> str:
    """Empty string when the output matches the pinned verdict, else why not."""
    if ref is None:
        return "" if exit_code == 0 else f"exit {exit_code}"
    if exit_code != ref["exit"]:
        return f"exit {exit_code}, pinned {ref['exit']}"
    if len(stdout) != ref["bytes"]:
        return f"{len(stdout)} stdout bytes, pinned {ref['bytes']}"
    if hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
        return "stdout sha256 differs from the pinned one"
    return ""


def run_rep(
    argv: tuple[str, ...],
    *,
    pythonpath: Path,
    tmp: Path,
    cache: Path,
    ref: dict | None,
    timeout: float,
    trace_dir: Path | None = None,
) -> Rep:
    """Spawn child.py once and time it. ``ref`` None means "exit 0 is
    enough" (import-only set-up samples)."""
    (tmp / "home").mkdir(exist_ok=True)
    env = child_env(pythonpath, tmp, cache, trace_dir)
    info_path = Path(env["SWEEPBENCH_INFO"])
    info_path.unlink(missing_ok=True)
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv],
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            cwd=tmp,
            env=env,
            start_new_session=True,
        )
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers must not outlive their rep
    detail = check_verdict(ref, code, out_path.read_bytes())
    info = json.loads(info_path.read_text()) if info_path.is_file() else {}
    if not info and not detail:
        detail = "child wrote no info file"
    if detail:
        tail = err_path.read_text(errors="replace")[-400:]
        detail = f"{' '.join(argv) or 'import'}: {detail} {tail}".strip()
    return Rep(
        ok=not detail,
        wall_s=wall,
        setup_s=info.get("import_done", start) - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        backend=info.get("backend", "unknown"),
        detail=detail,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def cache_state(cache: Path) -> dict[str, tuple[int, str]]:
    """File name -> (size, sha256) for every file in the cache directory."""
    if not cache.is_dir():
        return {}
    return {
        p.name: (p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(cache.iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# a measured run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """State of one invocation: temp directory, deadline, rep bookkeeping."""

    def __init__(self, name: str, lib: Path, reference: dict, tmp: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.lib = lib
        self.reference = reference
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.backends: set[str] = set()
        self.warm_cache: Path | None = None
        self.warm_state: dict = {}
        self._fresh = 0

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def _record(self, rep: Rep) -> Rep:
        self.attempted += 1
        self.backends.add(rep.backend)
        if not rep.ok:
            self.failures.append(rep.detail)
        return rep

    def fresh_cache(self) -> Path:
        self._fresh += 1
        path = self.tmp / f"cache-{self._fresh}"
        path.mkdir()
        return path

    def setup_samples(self) -> list[float]:
        cache = self.fresh_cache()
        samples = []
        for _ in range(SETUP_SAMPLES):
            rep = run_rep((), pythonpath=self.lib, tmp=self.tmp, cache=cache,
                          ref=None, timeout=self.remaining())
            self._record(rep)
            samples.append(rep.setup_s)
        return samples

    def fill(self) -> None:
        """Untimed run that fills the warm cache; its output is checked."""
        self.warm_cache = self.fresh_cache()
        rep = run_rep(WORKLOADS[FILL_WORKLOAD].argv, pythonpath=self.lib,
                      tmp=self.tmp, cache=self.warm_cache,
                      ref=self.reference[FILL_WORKLOAD], timeout=self.remaining())
        self._record(rep)
        self.warm_state = cache_state(self.warm_cache)

    def rep(self, trace_dir: Path | None = None) -> tuple[Rep, dict, dict]:
        """One measured rep; returns it with the cache state before and after."""
        cache = self.warm_cache if self.workload.warm else self.fresh_cache()
        before = cache_state(cache)
        rep = run_rep(self.workload.argv, pythonpath=self.lib, tmp=self.tmp,
                      cache=cache, ref=self.reference[self.name],
                      timeout=self.remaining(), trace_dir=trace_dir)
        after = cache_state(cache)
        if self.workload.warm and rep.ok and after != self.warm_state:
            rep = replace(rep, ok=False, detail="the warm cache changed during the rep")
        return self._record(rep), before, after

    def measure(self, seconds: float, reserve_reps: int = 0) -> list[Rep]:
        """Reps until the next would overrun ``seconds`` (at least MIN_REPS),
        keeping time for ``reserve_reps`` more before the deadline."""
        reps: list[Rep] = []
        start = time.monotonic()
        while True:
            reps.append(self.rep()[0])
            spent = time.monotonic() - start
            per_rep = spent / len(reps)
            if len(reps) >= MIN_REPS and spent + per_rep > seconds:
                return reps
            if time.monotonic() + per_rep * (1.5 + reserve_reps) + 15 > self.deadline:
                return reps


def end_to_end(run: Run, reps: list[Rep], setup: list[float]) -> dict:
    units = run.workload.units
    series = {
        "verdict_s": [r.wall_s for r in reps],
        "units_per_s": [units / r.wall_s for r in reps],
        "setup_s": setup + [r.setup_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    failed = len(run.failures)
    series["ok_share"] = [1 - failed / run.attempted]
    return series


def per_layer(
    reps: list[Rep], traced: Rep, trace: dict, before: dict, after: dict, probes: dict
) -> dict[str, float]:
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(name, self_time=False):
        agg = stats.get(name, [0, 0.0, 0.0, 0.0])
        return ratio(agg[2] if self_time else agg[1], agg[0]) * 1e6

    m = {}
    for name in ("kernel.sweep_slice", "kernel.collect_slice"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
        m[f"{name}.ns_per_candidate"] = ratio(total(name), counts.get(f"{name}.candidates", 0)) * 1e9
    m["kernel.sweep_slice.max_slice_share"] = ratio(
        stats.get("kernel.sweep_slice", [0, 0, 0, 0.0])[3], total("kernel.sweep_slice"))
    sets = counts.get("kernel.collect_slice.sets", 0)
    m["kernel.collect_slice.yield"] = ratio(sets, counts.get("kernel.collect_slice.candidates", 0))
    for name in ("kernel.is_one_dimensional", "kernel.doubling_size", "intset.sumset",
                 "dimension.extension_candidates", "stability.stable_decompose",
                 "search.check_extension_lemmas", "growth.factorize", "chains.is_chain"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = per_call_us(name)
    m["intset.IntSet.constructions"] = counts.get("intset.IntSet.constructions", 0)
    m["dimension.extension_candidates.calls_per_set"] = ratio(
        calls("dimension.extension_candidates"), sets)
    m["doubling.profile.calls"] = calls("doubling.profile")
    m["search.check_extension_lemmas.self_us_per_call"] = per_call_us(
        "search.check_extension_lemmas", self_time=True)
    m["search.extension_lemma_sweep.s"] = total("search.extension_lemma_sweep")
    m["search.check_uniqueness_lemmas.calls"] = calls("search.check_uniqueness_lemmas")
    m["search.check_uniqueness_lemmas.s"] = total("search.check_uniqueness_lemmas")
    m["search.vol1_oracle.calls"] = calls("search.vol1_oracle")
    m["search.vol1_oracle.s"] = total("search.vol1_oracle")
    m["search.pool.starts"] = counts.get("search.pool.starts", 0)
    m["search.pool.jobs"] = counts.get("search.pool.jobs", 0)
    wall = statistics.median(r.wall_s for r in reps)
    cpu = statistics.median(r.cpu_s for r in reps)
    m["search.pool.core_utilization"] = cpu / (nproc() * wall)
    written = {n: v for n, v in after.items() if before.get(n) != v}
    m["search.cache.files_written"] = len(written)
    m["search.cache.bytes_written"] = sum(size for size, _ in written.values())
    hits = counts.get("search.cache.hits", 0)
    misses = counts.get("search.cache.misses", 0)
    m["search.cache.hits"] = hits
    m["search.cache.misses"] = misses
    m["search.cache.hit_ratio"] = ratio(hits, hits + misses)
    m["search.cache.load_s"] = counts.get("search.cache.load_s", 0.0)
    m["chains.enumerate_chains.s"] = total("chains.enumerate_chains")
    m["chains.enumerate_chains.self_s"] = stats.get("chains.enumerate_chains", [0, 0, 0.0, 0])[2]
    m["trace.overhead_share"] = (traced.wall_s - wall) / wall
    for backend in ("py", "c"):
        timings = probes.get(backend, {})
        for key in ("doubling_size.us_per_call", "lambda_rank.us_per_call",
                    "sweep_slice.ns_per_candidate"):
            m[f"kernel.{backend}.{key}"] = timings.get(key, 0.0)
    m["kernel.c.loaded"] = 1 if probes.get("compiled_loaded") else 0
    return m


# ---------------------------------------------------------------------------
# environment record


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree (then the
    build's source digest identifies the code)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(run: Run, build_summary: dict) -> dict:
    return {
        "workload": run.name,
        "argv": list(run.workload.argv),
        "units_per_rep": f"{run.workload.units} {run.workload.unit}",
        "backend": sorted(run.backends),
        "nproc": nproc(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "commit": commit(ROOT),
        "build": build_summary,
    }


# ---------------------------------------------------------------------------
# main


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def report(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def execute(args, lib: Path, build_summary: dict, tmp: Path) -> tuple[dict, list[str], dict]:
    run = Run(args.workload, lib, json.loads(REFERENCE.read_text()), tmp)
    setup = run.setup_samples()
    if run.workload.warm:
        run.fill()
    reps = run.measure(args.seconds, reserve_reps=2 if args.trace else 0)
    env = environment(run, build_summary)
    env["rep_verdict_s"] = [round(r.wall_s, 4) for r in reps]
    series = end_to_end(run, reps, setup)
    units = metric_units("end_to_end")
    medians, lines = {}, []
    for name, values in series.items():
        q1, medians[name], q3 = quartiles(values)
        lines.append(f"{name} = {medians[name]:.6g} {units.get(name, '?')} "
                     f"(median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
    metrics = report(medians, units)
    if args.trace:
        trace_dir = tmp / "trace"
        traced, before, after = run.rep(trace_dir=trace_dir)
        trace = merge(trace_dir)
        probes = run_probes(lib, tmp, args.seed, run.remaining())
        run.attempted += 1
        if not probes.get("agree", False):
            run.failures.append(f"kernel probes: {probes.get('error', 'compiled output differs from pure')}")
        env["trace_problems"] = trace["problems"]
        layer = per_layer(reps, traced, trace, before, after, probes)
        units = metric_units("per_layer")
        metrics = report(layer, units)
        lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    env["failed_share"] = len(run.failures) / run.attempted
    env["failures"] = run.failures[:5]
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return env, lines, result


def run_probes(lib: Path, tmp: Path, seed: int, timeout: float) -> dict:
    env = child_env(lib, tmp, tmp / "probe-cache", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(seed)],
                              cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"agree": False, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"agree": False, "error": proc.stderr[-400:]}
    return json.loads(proc.stdout.splitlines()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib, build_summary = build()
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 2
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT))
    try:
        env, lines, result = execute(args, lib, build_summary, tmp)
    except BenchError as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"env": env}, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
