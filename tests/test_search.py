"""Exhaustive volume oracle, extension sweeps, and the uniqueness checks."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from sumsetchains import chains, cli, dimension, search
from sumsetchains.dimension import extension_candidates, is_one_dimensional
from sumsetchains.doubling import mu, profile, t_range
from sumsetchains.errors import CapacityError
from sumsetchains.growth import adjoin_double_max
from sumsetchains.intset import IntSet, doubling, reflexion, sumset
from sumsetchains.search import (
    CACHE_ENV,
    attainment_construction,
    check_extension_lemmas,
    check_uniqueness_lemmas,
    enumerate_normal_sets,
    estimated_candidates,
    extension_lemma_sweep,
    is_1_extremal,
    verify_conjecture,
    vol1_oracle,
)

S = IntSet.from_text


# corruptions of a census that vol1_oracle(6, 14) walked, each applied to the
# file's JSON: the census of doubling 14 at its top slice m = mu(6, 14),
# where every set is listed, and the inputs the file records
def census_of_14(stored):
    return stored["slices"][str(mu(6, 14))]["14"]


def float_count(stored):
    census_of_14(stored)[0] = float(census_of_14(stored)[0])


def negative_count(stored):
    census_of_14(stored)[1] = -1


def listed_set_of_another_max(stored):
    # dilated by 2, a set keeps its doubling and its order in the list
    listed = census_of_14(stored)[2]
    listed[-1] = [2 * e for e in listed[-1]]


def listed_set_of_another_doubling(stored):
    slice_ = stored["slices"][str(mu(6, 14))]
    other = next(t for t in range(15, t_range(6)[1] + 1) if str(t) not in slice_)
    slice_[str(other)] = slice_.pop("14")


def listed_set_missing(stored):
    census_of_14(stored)[2].pop()


def recorded_mu_differs(stored):
    stored["inputs"]["14"][0] += 1


def recorded_mask_differs(stored):
    stored["inputs"]["14"][1] ^= 2


class TestEnumeration:
    def test_small_listings(self):
        assert [a.to_text() for a in enumerate_normal_sets(3, 3)] == [
            "{0,1,2}", "{0,1,3}", "{0,2,3}",
        ]
        assert [a.to_text() for a in enumerate_normal_sets(4, 4)] == [
            "{0,1,2,3}", "{0,1,2,4}", "{0,1,3,4}", "{0,2,3,4}",
        ]

    def test_count_and_order(self):
        sets = list(enumerate_normal_sets(4, 6))
        assert len(sets) == 19
        assert sets[0] == S("{0,1,2,3}") and sets[-1] == S("{0,4,5,6}")
        # ordered by max, then lexicographically
        keys = [(a.max, a.elements) for a in sets]
        assert keys == sorted(keys)

    def test_everything_yielded_is_normal(self):
        from sumsetchains.intset import is_normal

        for a in enumerate_normal_sets(5, 9):
            assert is_normal(a) and len(a) == 5 and a.max <= 9

    def test_estimates(self):
        assert estimated_candidates(5, 16) == 1820
        assert estimated_candidates(8, 30) == 2035800

    def test_budget_guard(self):
        assert estimated_candidates(8, 80) > search.DEFAULT_BUDGET
        with pytest.raises(CapacityError, match="--force"):
            list(enumerate_normal_sets(8, 80))
        # force pushes through
        gen = enumerate_normal_sets(8, 80, force=True)
        assert len(next(gen)) == 8

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            list(enumerate_normal_sets(2, 5))
        with pytest.raises(ValueError):
            list(enumerate_normal_sets(4, 2))


class TestOracle:
    def test_bounded_runs(self):
        rep = vol1_oracle(5, 12, 16)
        assert rep.observed_max_vol == 9 and rep.mu == 8
        assert rep.attained and not rep.violation_list
        assert rep.search_bound == 16
        assert [w.to_text() for w in rep.witness_sets] == [
            "{0,1,2,4,8}", "{0,2,3,4,8}", "{0,2,4,5,8}",
            "{0,3,4,6,8}", "{0,4,5,6,8}", "{0,4,6,7,8}",
        ]
        assert vol1_oracle(4, 7, 8).observed_max_vol == 4
        assert vol1_oracle(5, 11, 12).observed_max_vol == 7

    def test_default_bound_is_mu_plus_k(self):
        rep = vol1_oracle(4, 7)
        assert rep.search_bound == 3 + 4
        assert [w.to_text() for w in rep.witness_sets] == ["{0,1,2,3}"]

    def test_thread_determinism(self):
        one = vol1_oracle(5, 12, threads=1, use_cache=False)
        two = vol1_oracle(5, 12, threads=2, use_cache=False)
        assert one.observed_max_vol == two.observed_max_vol
        assert one.witness_sets == two.witness_sets
        assert one.violation_list == two.violation_list

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        cold = vol1_oracle(6, 14)
        path = tmp_path / "slices_k6.json"
        assert list(tmp_path.iterdir()) == [path]
        stored = json.loads(path.read_text())
        assert stored["k"] == 6 and stored["digest"] == search.kernel_digest()
        assert "14" in stored["slices"][str(cold.observed_max_vol - 1)]
        # a fresh process reads the table from disk and walks nothing
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", None)
        monkeypatch.setattr(search.kernel, "collect_slice", None)
        warm = vol1_oracle(6, 14)
        assert warm.as_dict() == cold.as_dict()
        assert json.loads(path.read_text()) == stored

    @pytest.mark.parametrize(
        "content",
        [
            "{",
            '{"k": 5, "slices": {}}',
            '{"k": 6, "slices": {"8": [14.0]}}',
            '{"k": 6, "slices": {"x": [14]}}',
        ]
        + [
            pytest.param(corrupt, id=corrupt.__name__)
            for corrupt in (
                float_count,
                negative_count,
                listed_set_of_another_max,
                listed_set_of_another_doubling,
                listed_set_missing,
                recorded_mu_differs,
                recorded_mask_differs,
            )
        ],
    )
    def test_bad_slice_file_is_recomputed(self, tmp_path, monkeypatch, content):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        path = tmp_path / "slices_k6.json"
        clean = None
        if callable(content):
            # a census walked here, then corrupted
            vol1_oracle(6, 14)
            clean = path.read_text()
            stored = json.loads(clean)
            content(stored)
            content = json.dumps(stored, sort_keys=True)
            monkeypatch.setattr(search, "_SLICE_CACHE", {})
        path.write_text(content)
        got = vol1_oracle(6, 14)
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        assert got.as_dict() == vol1_oracle(6, 14, use_cache=False).as_dict()
        assert json.loads(path.read_text())["k"] == 6
        assert list(tmp_path.iterdir()) == [path]
        if clean is not None:
            # ignored and rewritten, so never served
            assert path.read_text() == clean

    @pytest.mark.parametrize("digest", [None, "0" * 64])
    def test_slice_file_of_another_kernel_is_recomputed(self, tmp_path, monkeypatch, digest):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        path = tmp_path / "slices_k6.json"
        # well formed, but served it would leave the report without witnesses
        stale = {"k": 6, "slices": {str(m): [] for m in range(5, 40)}}
        if digest is not None:
            stale["digest"] = digest
        path.write_text(json.dumps(stale))
        got = vol1_oracle(6, 14)
        assert got.observed_max_vol == mu(6, 14) + 1
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        assert got.as_dict() == vol1_oracle(6, 14, use_cache=False).as_dict()
        stored = json.loads(path.read_text())
        assert stored["digest"] == search.kernel_digest()
        assert stored["slices"] != stale["slices"]

    def test_kernel_digest_is_computed_on_first_use(self):
        code = (
            "import sumsetchains.cli, sumsetchains.search as s; "
            "assert s.kernel_digest.cache_info().currsize == 0; "
            "d = s.kernel_digest(); "
            "assert len(d) == 64 and int(d, 16) >= 0 and s.kernel_digest() is d"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}
        subprocess.run([sys.executable, "-W", "ignore", "-c", code], env=env, check=True)

    def test_warm_verify_leaves_the_cache_alone(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        verify_conjecture(6)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert list(before) == ["slices_k6.json"]
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        warm = verify_conjecture(6)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        cold = verify_conjecture(6, use_cache=False)
        assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]

    def test_over_budget_sweeps_refuse_before_sweeping(self, tmp_path, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search, "DEFAULT_BUDGET", 100)
        sweep = search.kernel.census_slice
        monkeypatch.setattr(search.kernel, "census_slice", no_sweep)
        with pytest.raises(CapacityError, match="--force"):
            verify_conjecture(5)
        with pytest.raises(CapacityError):
            vol1_oracle(5, 9)
        with pytest.raises(CapacityError):
            is_1_extremal(S("{0,1,2,4,8}"))
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(search.kernel, "census_slice", sweep)
        forced = verify_conjecture(5, force=True)
        # a table that covers the bound is served without force or a sweep
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", no_sweep)
        warm = verify_conjecture(5)
        assert [r.as_dict() for r in warm] == [r.as_dict() for r in forced]

    def test_verify_conjecture(self):
        reports = verify_conjecture(4)
        assert [(r.t, r.observed_max_vol, r.attained) for r in reports] == [
            (7, 4, True), (8, 5, True),
        ]
        for r in verify_conjecture(5):
            assert r.observed_max_vol == r.mu + 1
            assert r.attained and not r.violation_list

    def test_attainment_construction(self):
        assert attainment_construction(4, 7) == S("{0,1,2,3}")
        a = attainment_construction(5, 12)
        assert a == S("{0,2,3,4,8}")
        assert a in vol1_oracle(5, 12).witness_sets

    def test_is_1_extremal(self):
        assert is_1_extremal(S("{0,1,2,4,8}"))
        assert is_1_extremal(S("{0,3,4,6,7,8}"))
        assert is_1_extremal(S("{0,1,2,4,6}"))
        # doubling 11 allows max 6, but this set only reaches 5
        assert not is_1_extremal(S("{0,1,2,4,5}"))


@pytest.fixture
def list_every_set(monkeypatch, tmp_path):
    """census_slice listing every set, so that the extension sweep reads the
    triples of each set from right_extensions, as the per-set loop did; over
    a table of its own, in memory and on disk."""
    census = search.kernel.census_slice

    def every(k, m, listing):
        return census(k, m, dict.fromkeys(listing, -1))

    monkeypatch.setattr(search.kernel, "census_slice", every)
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "every-set"))


@pytest.fixture(params=["python", "c"])
def backend(request, monkeypatch):
    """The kernel facade on either twin: the pure one fans slices out on
    processes, the compiled one on threads."""
    if request.param == "c":
        return request.getfixturevalue("compiled_facade")
    monkeypatch.setattr(search.kernel, "_c", None)
    monkeypatch.setattr(search.kernel, "BACKEND", "python")
    return search.kernel


class TestFanOut:
    @pytest.mark.parametrize("k, bound", [(5, 13), (6, 22), (7, 26)])
    def test_threads_give_the_serial_table(self, backend, monkeypatch, k, bound):
        # three workers: more than the two cores the project is timed on
        tables = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(search, "_SLICE_CACHE", {})
            tables.append(
                search._realized_slices(
                    k, bound, threads=threads, use_cache=False, force=False
                )
            )
        for table in tables[1:]:
            assert table == tables[0] and list(table) == list(tables[0])
        assert any(tables[0].values())

    @pytest.mark.parametrize("k", [5, 6])
    def test_threads_give_the_serial_extension_sweep(
        self, backend, list_every_set, tmp_path, monkeypatch, k
    ):
        # no pair fails below k = 8, so T_x of every x = max A + 1 whose
        # T_x + 1 stays legal is raised by one, which breaks the increment
        # identity; the census lists every set, and right_extensions runs in
        # the calling thread either way. Each sweep walks its own table.
        extensions = search.kernel.right_extensions
        hi = t_range(k + 1)[1]

        def skewed(elements):
            return [
                (x, tx + (x == elements[-1] + 1 and tx < hi), overlap)
                for x, tx, overlap in extensions(elements)
            ]

        monkeypatch.setattr(search.kernel, "right_extensions", skewed)
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "serial"))
        serial = extension_lemma_sweep(k)
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "fanned"))
        fanned = extension_lemma_sweep(k, threads=2)
        assert fanned == serial
        assert len(serial.violations) > 1
        if k == 5:
            assert (serial.sets_checked, serial.pairs_checked) == (20, 122)

    def test_a_failing_job_propagates_and_writes_nothing(
        self, backend, tmp_path, monkeypatch
    ):
        census = search.kernel.census_slice

        def failing(k, m, listing):
            if m == 9:
                raise RuntimeError(f"slice {m} failed")
            return census(k, m, listing)

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", failing)
        with pytest.raises(RuntimeError, match="slice 9 failed"):
            search._realized_slices(5, 13, threads=2, use_cache=True, force=False)
        assert list(tmp_path.iterdir()) == []
        assert search._SLICE_CACHE == {}

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_cancels_the_jobs_not_started(
        self, backend, tmp_path, monkeypatch, error
    ):
        # k = 8 has 66 slices; the first job, the largest slice, fails at
        # once while the others take a while, so only the jobs in flight or
        # already queued to a worker run. Each call leaves a file, which a
        # worker process can do as well as a thread.
        def fake(k, m, listing):
            (tmp_path / f"call-{m}").touch()
            if m == 72:
                raise error("largest slice")
            time.sleep(0.05)
            return {}

        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", fake)
        with pytest.raises(error):
            search._realized_slices(8, 72, threads=2, use_cache=False, force=True)
        calls = sorted(p.name for p in tmp_path.iterdir())
        assert "call-72" in calls and len(calls) <= 6, calls

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_later_failure_stops_the_jobs_at_once(
        self, backend, tmp_path, monkeypatch, error
    ):
        # the second job fails at once while the first runs on and then
        # fails too: no job starts after the second one's failure, and the
        # call raises the first job's exception, the lowest-index failure
        def fake(k, m, listing):
            (tmp_path / f"call-{m}").touch()
            if m == 72:
                time.sleep(0.5)
            if m in (71, 72):
                raise error(f"slice {m}")
            time.sleep(0.05)
            return {}

        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", fake)
        with pytest.raises(error, match="slice 72"):
            search._realized_slices(8, 72, threads=2, use_cache=False, force=True)
        calls = sorted(p.name for p in tmp_path.iterdir())
        assert {"call-71", "call-72"} <= set(calls) and len(calls) <= 6, calls

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_in_the_calling_thread_stops_the_jobs(
        self, backend, tmp_path, monkeypatch
    ):
        # SIGINT to this thread while the first jobs run: no job starts after
        # it, the ones in flight finish, and then the interrupt is raised
        def fake(k, m, listing):
            (tmp_path / f"call-{m}").touch()
            time.sleep(0.05)
            (tmp_path / f"done-{m}").touch()
            return {}

        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", fake)
        timer = threading.Timer(0.15, signal.pthread_kill, (threading.get_ident(), signal.SIGINT))
        timer.start()
        with pytest.raises(KeyboardInterrupt):
            search._realized_slices(8, 72, threads=2, use_cache=False, force=True)
        timer.join(5)
        assert not timer.is_alive()
        called = {p.name[5:] for p in tmp_path.glob("call-*")}
        assert called == {p.name[5:] for p in tmp_path.glob("done-*")}
        assert len(called) < 33, sorted(called)

    def test_an_error_in_the_checks_stops_the_collections(
        self, backend, tmp_path, monkeypatch
    ):
        # the checks run in the calling thread on the finished table; when
        # one raises, no census walk starts after it or is left running,
        # even while the traceback, and with it the sweep's frame, is still
        # held
        calls, failed = tmp_path / "calls", tmp_path / "failed"
        calls.mkdir()
        census = search.kernel.census_slice

        def recording(k, m, listing):
            assert not failed.exists(), "walked after a check failed"
            (calls / f"call-{m}").touch()
            return census(k, m, listing)

        def failing(elements):
            failed.touch()
            raise RuntimeError("check failed")

        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", recording)
        monkeypatch.setattr(search.kernel, "right_extensions", failing)
        with pytest.raises(RuntimeError, match="check failed") as failure:
            extension_lemma_sweep(6, threads=2)
        started = len(list(calls.iterdir()))
        time.sleep(0.3)
        # one walk per slice m = 5 .. mu(6, T) + 6 at the top doubling T
        assert len(list(calls.iterdir())) == started == mu(6, t_range(6)[1]) + 6 - 4
        assert failure.traceback

    def test_compiled_fan_out_leaves_no_worker_running(self, compiled_facade, monkeypatch):
        # every worker thread has ended when the call returns, and when it raises
        census = search.kernel.census_slice

        def failing(k, m, listing):
            if m == 20:
                raise RuntimeError("slice 20 failed")
            return census(k, m, listing)

        before = threading.active_count()
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        assert search._realized_slices(6, 24, threads=2, use_cache=False, force=False)
        assert threading.active_count() == before
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", failing)
        with pytest.raises(RuntimeError, match="slice 20 failed"):
            search._realized_slices(6, 24, threads=2, use_cache=False, force=False)
        assert threading.active_count() == before

    def test_compiled_fan_out_starts_no_process(self, compiled_facade, monkeypatch):
        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        fanned = search._realized_slices(7, 39, threads=2, use_cache=False, force=False)
        report = extension_lemma_sweep(5, threads=2)
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        assert fanned == search._realized_slices(
            7, 39, threads=1, use_cache=False, force=False
        )
        assert (report.sets_checked, report.pairs_checked) == (20, 122)


    def test_compiled_fan_out_leaves_multiprocessing_unloaded(self, compiled_kernel):
        # the workers are plain threads: multiprocessing, which the process
        # pool pulls in, and concurrent.futures with its logging import
        # would weigh on every run
        code = f"""if True:
            import importlib.util, sys
            from sumsetchains import kernel, search
            spec = importlib.util.spec_from_file_location(
                "sumsetchains._kernel", {compiled_kernel.__file__!r}
            )
            kernel._c = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(kernel._c)
            kernel.BACKEND = "c"
            search._realized_slices(6, 12, threads=2, use_cache=False, force=False)
            print([m for m in ("multiprocessing", "concurrent.futures", "logging") if m in sys.modules])
        """
        env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == "[]\n"

class TestExtensionChecks:
    def test_frozen_examples(self):
        ec = check_extension_lemmas(S("{0,1,2}"), 4)
        assert (ec.delta_t, ec.overlap) == (3, 1)
        assert (ec.c_before, ec.c_after, ec.crossing) == (2, 2, False)
        assert ec.violations == ()
        ec = check_extension_lemmas(S("{0,1,2}"), 3)
        assert (ec.delta_t, ec.overlap) == (2, 2)
        ec = check_extension_lemmas(S("{0,2,3,4}"), 5)
        assert (ec.delta_t, ec.overlap) == (2, 3)
        ec = check_extension_lemmas(S("{0,2,3,4}"), 8)
        assert (ec.delta_t, ec.overlap, ec.crossing) == (4, 1, True)
        assert "extremal extension identities" in ec.applied

    def test_delta_plus_overlap_is_k_plus_one(self):
        a = S("{0,2,3,4}")
        for x in extension_candidates(a).elements:
            ec = check_extension_lemmas(a, x)
            assert ec.delta_t + ec.overlap == len(a) + 1
            assert 2 <= ec.delta_t <= len(a)
            assert not ec.violations

    def test_inadmissible_x_is_refused_before_any_oracle_call(self, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle called")

        monkeypatch.setattr(search, "is_1_extremal", no_oracle)
        # the admissible x of {0,2,3,4} are 5 to 8
        with pytest.raises(ValueError):
            check_extension_lemmas(S("{0,2,3,4}"), 9)

    def test_sweeps_are_clean(self):
        counts = {}
        for k in (3, 4, 5):
            report = extension_lemma_sweep(k)
            assert report.violations == ()
            counts[k] = (report.sets_checked, report.pairs_checked)
        assert counts == {3: (1, 2), 4: (3, 11), 5: (20, 122)}

    def test_sweep_over_the_budget_refuses_before_walking(self, tmp_path, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search, "DEFAULT_BUDGET", 100)
        census, collect = search.kernel.census_slice, search.kernel.collect_slice
        monkeypatch.setattr(search.kernel, "census_slice", no_walk)
        monkeypatch.setattr(search.kernel, "collect_slice", no_walk)
        with pytest.raises(CapacityError, match="--force"):
            extension_lemma_sweep(5)
        monkeypatch.setattr(search.kernel, "census_slice", census)
        monkeypatch.setattr(search.kernel, "collect_slice", collect)
        verify_conjecture(5, force=True)
        # the forced table covers the sweep's bound, so it is served as is
        report = extension_lemma_sweep(5)
        assert (report.sets_checked, report.pairs_checked) == (20, 122)

    def test_sweep_collects_each_slice_once_over_its_table_entry(self, tmp_path, monkeypatch):
        # the table walk takes the census: a cold sweep walks each slice
        # once, largest first, over every legal doubling, and collects
        # nothing; a warm one walks nothing
        calls = []
        census = search.kernel.census_slice

        def recording(k, m, listing):
            calls.append((m, tuple(listing)))
            return census(k, m, listing)

        def no_collect(*args):
            raise AssertionError("collected")

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "census_slice", recording)
        monkeypatch.setattr(search.kernel, "collect_slice", no_collect)
        report = extension_lemma_sweep(5)
        assert (report.sets_checked, report.pairs_checked) == (20, 122)
        lo, hi = t_range(5)
        top = mu(5, hi) + 5
        assert calls == [(m, tuple(range(lo, hi + 1))) for m in range(top, 3, -1)]
        calls.clear()
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        assert extension_lemma_sweep(5) == report and calls == []

    def test_sweep_reports_exactly_the_failing_pairs(self, list_every_set, monkeypatch):
        # no pair fails below k = 8, so violations are injected: T_x of a few
        # chosen pairs is raised by one in the triples of right_extensions,
        # which breaks the increment identity; the census lists every set, so
        # the sweep reads the triples of each
        extensions = search.kernel.right_extensions
        order = []

        def recording(elements):
            triples = extensions(elements)
            order.extend((tuple(elements), x, tx) for x, tx, _ in triples)
            return triples

        monkeypatch.setattr(search.kernel, "right_extensions", recording)
        clean = extension_lemma_sweep(5)
        assert clean.violations == () and len(order) == clean.pairs_checked == 122
        # T_x + 1 must stay a legal doubling of a 6-set
        room = [(a, x) for a, x, tx in order if tx < t_range(6)[1]]
        chosen = [room[i] for i in (0, len(room) // 2, -2, -1)]

        def skewed(elements):
            return [
                (x, tx + ((tuple(elements), x) in chosen), overlap)
                for x, tx, overlap in extensions(elements)
            ]

        monkeypatch.setattr(search.kernel, "right_extensions", skewed)
        report = extension_lemma_sweep(5)
        assert (report.sets_checked, report.pairs_checked) == (20, 122)
        assert [(a.elements, c.x) for a, c in report.violations] == chosen
        for a, c in report.violations:
            assert "doubling increment" in c.violations[0]
            triple = [tr for tr in skewed(a.elements) if tr[0] == c.x]
            single = search._extension_checks(a.elements, doubling(a), triple, deep=False)
            assert c == single[0]

    def test_an_illegal_doubling_is_reported_not_raised(self, monkeypatch, capsys):
        # T_x past the legal range for k + 1 has no profile: the pair is a
        # violation, and the checks that need no profile still run on it
        extensions = search.kernel.right_extensions
        target = ((0, 1, 2, 3, 4), 5)
        hi = t_range(6)[1]

        def skewed(elements):
            return [
                (x, hi + 1 if (tuple(elements), x) == target else tx, overlap)
                for x, tx, overlap in extensions(elements)
            ]

        monkeypatch.setattr(search.kernel, "right_extensions", skewed)
        report = extension_lemma_sweep(5)
        assert (report.sets_checked, report.pairs_checked) == (20, 122)
        assert [(a.elements, c.x) for a, c in report.violations] == [target]
        check = report.violations[0][1]
        assert check.c_after is None
        assert check.applied == ("increment-overlap identity", "increment range")
        assert check.violations == (
            "doubling increment 9 != 6 - overlap 4",
            "doubling increment 9 outside [2, 5]",
            "doubling T_x = 18 outside [11, 17] for k + 1 = 6",
        )
        assert cli.main(["verify", "--k", "5", "--format", "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["extension_sweep"]["violations"] == [
            {"set": [0, 1, 2, 3, 4], "x": 5, "problems": list(check.violations)}
        ]
        # the text report reads the same verdict; the skewed T_x also reaches
        # the uniqueness check that extends {0, ..., 4} by 5
        assert len(doc["uniqueness"]["failures"]) == 1
        assert cli.main(["verify", "--k", "5"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "conjecture k=5 t=9: observed 5 expected 5 attained yes PASS",
            "conjecture k=5 t=10: observed 6 expected 6 attained yes PASS",
            "conjecture k=5 t=11: observed 7 expected 7 attained yes PASS",
            "conjecture k=5 t=12: observed 9 expected 9 attained yes PASS",
            "extension sweep k=5: 20 sets, 122 extensions, 1 violations FAIL",
            "chain factorization k=5: 7 chains, 0 failures PASS",
            "uniqueness checks k=5: 13 applicable, 1 failures FAIL",
        ]

    def test_sweep_makes_one_kernel_call_per_set(self, monkeypatch):
        # the census counts every set; only the sets it lists get a kernel
        # call, here the ones at max A = mu(5, T), as no pair fails at k = 5
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        bound = mu(5, t_range(5)[1]) + 5
        table = search._realized_slices(5, bound, threads=1, use_cache=True, force=False)
        for name in ("right_extensions", "doubling_size", "is_one_dimensional"):
            counted(search.kernel, name)
        counted(dimension, "extension_candidates")
        report = extension_lemma_sweep(5)
        assert (report.sets_checked, report.pairs_checked) == (20, 122)
        listed = [
            a
            for m, census in table.items()
            for t, (_, _, sets) in census.items()
            if m <= mu(5, t) + 5
            for a in sets
        ]
        assert calls == {"right_extensions": len(listed)} and len(listed) < 20
        assert all(a[-1] == mu(5, doubling(IntSet(a))) for a in listed)

    def test_per_set_checks_match_the_object_layer(self):
        # every pair of the k <= 5 sweeps, against sumsets built element by
        # element and doublings of the extended sets
        counts = {}
        for k in (3, 4, 5):
            lo, hi = t_range(k)
            sets = pairs = 0
            for a in enumerate_normal_sets(k, mu(k, hi) + k):
                t = doubling(a)
                if not (t <= hi and a.max <= mu(k, t) + k and is_one_dimensional(a)):
                    continue
                xs = extension_candidates(a).elements
                sets += 1
                pairs += len(xs)
                triples = search.kernel.right_extensions(a.elements)
                checks = search._extension_checks(a.elements, t, triples, deep=False)
                assert [c.x for c in checks] == list(xs)
                two_a = set(sumset(a, a))
                for x, c in zip(xs, checks):
                    assert c.overlap == len(two_a & {e + x for e in a}), (a, x)
                    assert c.delta_t == doubling(a.adjoin(x)) - t, (a, x)
                    assert c.violations == ()
            counts[k] = (sets, pairs)
        assert counts == {3: (1, 2), 4: (3, 11), 5: (20, 122)}

    def test_constant_drift_fails_on_a_doubling_class_table(self):
        # from profile arithmetic alone: every legal t at k and every legal
        # increment delta in [2, k]; the check itself agrees on a stand-in
        # set whose maximum is no mu, so nothing is decomposed
        failing = {}
        for k in range(3, 10):
            stand_in = (*range(k - 1), 10**6)
            lo, hi = t_range(k)
            for t in range(lo, hi + 1):
                c, b = profile(k, t).c, profile(k, t).b
                for delta in range(2, k + 1):
                    c_after = profile(k + 1, t + delta).c
                    assert (c_after >= c - 1) == (delta >= 2 * c - k - b), (k, t, delta)
                    assert c_after <= c + 1, (k, t, delta)
                    triple = [(10**6 + 1, t + delta, k + 1 - delta)]
                    (check,) = search._extension_checks(stand_in, t, triple, deep=False)
                    drifted = any("constant moved" in v for v in check.violations)
                    assert drifted == (c_after < c - 1), (k, t, delta)
                    if drifted:
                        failing.setdefault(k, set()).add((t, delta))
        assert failing == {8: {(30, 2)}, 9: {(38, 2), (38, 3)}}

    def test_pair_verdicts_match_the_per_set_checks(self):
        # every legal t, every T_x from one below the legal range of k + 1 to
        # one above it, and every overlap 0..k + 1, mismatched ones included,
        # on a stand-in set whose maximum is no mu, so nothing is decomposed
        for k in range(3, 10):
            stand_in = (*range(k - 1), 10**6)
            lo, hi = t_range(k + 1)
            for t in range(t_range(k)[0], t_range(k)[1] + 1):
                c = profile(k, t).c
                passing = search._passing_pairs(k, t)
                for tx in range(lo - 1, hi + 2):
                    for overlap in range(k + 2):
                        after, verdict = search._pair_verdict(k, t, tx, overlap)
                        triple = [(10**6 + 1, tx, overlap)]
                        (check,) = search._extension_checks(
                            stand_in, t, triple, deep=False
                        )
                        assert check.violations == verdict, (k, t, tx, overlap)
                        assert check.c_after == (None if after is None else after.c)
                        # and from first principles
                        delta = tx - t
                        clean = (
                            delta == k + 1 - overlap
                            and 2 <= delta <= k
                            and lo <= tx <= hi
                            and abs(profile(k + 1, tx).c - c) <= 1
                        )
                        assert ((tx, overlap) in passing) == clean == (not verdict)
                assert all(lo <= tx <= hi for tx, _ in passing)

    @pytest.mark.parametrize("k", [5, 6])
    def test_sweep_checks_per_pair_only_extremal_or_failing_sets(
        self, list_every_set, monkeypatch, k
    ):
        # the census lists every set, so the sweep reads the triples of each
        extensions, checks = search.kernel.right_extensions, search._extension_checks
        swept, checked = [], []

        def recording(elements):
            swept.append(tuple(elements))
            return extensions(elements)

        def recording_checks(elements, t, triples, **kwargs):
            checked.append(tuple(elements))
            return checks(elements, t, triples, **kwargs)

        monkeypatch.setattr(search.kernel, "right_extensions", recording)
        monkeypatch.setattr(search, "_extension_checks", recording_checks)
        report = extension_lemma_sweep(k)
        assert report.violations == () and len(swept) == report.sets_checked
        # an extremal set with T > 3k - 4 has no stable decomposition, so its
        # pairs read only _pair_verdict, as a non-extremal set's do
        doublings = {a: search.kernel.doubling_size(a) for a in swept}
        extremal = [
            a for a, t in doublings.items() if a[-1] == mu(k, t) and t <= 3 * k - 4
        ]
        assert checked == extremal and len(extremal) < len(swept)
        assert any(a[-1] == mu(k, t) and t > 3 * k - 4 for a, t in doublings.items())
        # a set with a failing pair is checked pair by pair too
        target = swept[len(swept) // 2]
        assert target not in extremal

        def skewed(elements):
            return [
                (x, tx + (tuple(elements) == target), overlap)
                for x, tx, overlap in extensions(elements)
            ]

        monkeypatch.setattr(search.kernel, "right_extensions", skewed)
        checked.clear()
        report = extension_lemma_sweep(k)
        assert checked == sorted(extremal + [target], key=swept.index)
        assert {a.elements for a, _ in report.violations} == {target}


def per_set_sweep(k):
    """The census of every slice the extension sweep covers, and the sweep's
    violations, by the per-set loop the census replaced: collect_slice over
    the legal doublings, right_extensions per set and _passing_pairs. Returns
    {m: {t: (sets, pairs, listed)}} and [(elements, check)] in sweep order."""
    lo, hi = t_range(k)
    table, violations = {}, []
    for m in range(k - 1, mu(k, hi) + k + 1):
        census = table[m] = {}
        for t, sets in search.kernel.collect_slice(k, m, range(lo, hi + 1)).items():
            top = mu(k, t)
            passing = search._passing_pairs(k, t)
            pairs, listed = 0, []
            for elements in sets:
                triples = search.kernel.right_extensions(elements)
                pairs += len(triples)
                fails = not passing.issuperset((tx, o) for _, tx, o in triples)
                if m >= top or (fails and m <= top + k):
                    listed.append(elements)
                if m <= top + k and (fails or (m == top and t <= 3 * k - 4)):
                    checks = search._extension_checks(elements, t, triples, deep=False)
                    violations += [(elements, c) for c in checks if not c.ok]
            census[t] = (len(sets), pairs, tuple(listed))
    return table, violations


def assert_sweep_is_the_per_set_loop(k):
    table, violations = per_set_sweep(k)
    report = extension_lemma_sweep(k)
    got = search._realized_slices(k, max(table), threads=1, use_cache=True, force=False)
    for m, census in table.items():
        assert got[m] == census and list(got[m]) == list(census), m
    in_range = [
        entry for m, census in table.items() for t, entry in census.items() if m <= mu(k, t) + k
    ]
    assert report.sets_checked == sum(sets for sets, _, _ in in_range)
    assert report.pairs_checked == sum(pairs for _, pairs, _ in in_range)
    assert [(a.elements, c) for a, c in report.violations] == violations
    return report


@pytest.mark.parametrize(
    "backend, k",
    [("python", k) for k in (3, 4, 5, 6)] + [("c", k) for k in (3, 4, 5, 6, 7)],
    indirect=["backend"],
)
def test_census_matches_the_per_set_loop(backend, tmp_path, monkeypatch, k):
    # the pure twin's k = 7 table alone takes a minute
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    report = assert_sweep_is_the_per_set_loop(k)
    assert report.violations == ()


@pytest.fixture
def failing_pairs(monkeypatch):
    """fail(pairs) makes _pair_verdict fail each (k, t, overlap) in pairs as
    well and empties the table; the cache of _passing_pairs, which reads
    _pair_verdict, is cleared on the way in and out."""
    verdict = search._pair_verdict

    def fail(pairs):
        def patched(k, t, tx, overlap):
            after, violations = verdict(k, t, tx, overlap)
            return after, violations + (("injected",) if (k, t, overlap) in pairs else ())

        monkeypatch.setattr(search, "_pair_verdict", patched)
        search._passing_pairs.cache_clear()
        monkeypatch.setattr(search, "_SLICE_CACHE", {})

    search._passing_pairs.cache_clear()
    yield fail
    search._passing_pairs.cache_clear()


@pytest.mark.parametrize("k", [5, 6])
def test_a_failing_pair_lists_its_sets(backend, failing_pairs, tmp_path, monkeypatch, k):
    # no pair fails below k = 8: one is made to fail, the overlap of the
    # first extension of the first set below mu(k, t) in the walk's order
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    lo, hi = t_range(k)
    m, t, a = next(
        (m, t, sets[0])
        for m in range(k - 1, mu(k, hi) + 1)
        for t, sets in search.kernel.collect_slice(k, m, range(lo, hi + 1)).items()
        if m < mu(k, t)
    )
    overlap = search.kernel.right_extensions(a)[0][2]
    # overlaps 0, k and k + 1 fail the increment range; none of them occurs
    failing = search._census_inputs(k)[t][1]
    assert failing == 1 | 3 << k
    failing_pairs({(k, t, overlap)})
    report = assert_sweep_is_the_per_set_loop(k)
    assert a in [b.elements for b, _ in report.violations]
    assert all(c.violations[-1] == "injected" for _, c in report.violations)
    # the file records the mask it was walked under
    stored = json.loads((tmp_path / f"slices_k{k}.json").read_text())
    assert stored["inputs"][str(t)] == [mu(k, t), failing | 1 << overlap]


def test_the_oracle_serves_exactly_the_cardinalities_under_the_budget():
    assert [j for j in range(3, 10) if search._oracle_affordable(j)] == [3, 4, 5, 6, 7]


class TestUniquenessChecks:
    def test_extremal_right_extensions_match_a_range_scan(self):
        # every b_set of the first two checks, the double-max step of a
        # 1-extremal chain with k = 3..5 and its reflexion, against the scan
        # of (2a, 4a] with a rank test per x
        b_sets = []
        for k in (3, 4, 5):
            for chain in chains.enumerate_chains(k):
                if is_1_extremal(chain.set):
                    b_set = adjoin_double_max(chain.set)
                    b_sets += [b_set, reflexion(b_set)]
        survivors = 0
        for b_set in b_sets:
            want = [
                x
                for x in range(b_set.max + 1, 2 * b_set.max + 1)
                if is_one_dimensional(b_set.adjoin(x)) and is_1_extremal(b_set.adjoin(x))
            ]
            assert search._extremal_right_extensions(b_set, 1, True) == want, b_set
            survivors += len(want)
        assert (len(b_sets), survivors) == (20, 41)

    def test_expected_outcomes(self):
        names = [
            "right extensions of the double-max step",
            "left extensions of the double-max step",
            "chain extensions over a two-progression split",
            "chains with a single odd element",
        ]
        for text in ["{0,1,2,4,8}", "{0,4,5,6,8}", "{0,2,3,4}"]:
            report = check_uniqueness_lemmas(S(text))
            assert report.ok
            assert [c.name for c in report.checks] == names
            for c in report.checks:
                if c.applicable:
                    assert c.passed is True

    @staticmethod
    def _chain_reports_digest(k_max: int) -> tuple[int, str]:
        # every outcome of every chain's report, details included, so that a
        # check that applied and passed is pinned too, not only failures
        h = hashlib.sha256()
        n = 0
        for k in range(3, k_max + 1):
            for chain in chains.enumerate_chains(k):
                for c in check_uniqueness_lemmas(chain.set).checks:
                    row = [list(chain.set), c.name, c.applicable, c.passed, c.details]
                    h.update((json.dumps(row) + "\n").encode())
                    n += 1
        return n, h.hexdigest()

    def test_chain_reports_are_pinned(self):
        assert self._chain_reports_digest(6) == (
            148,
            "01beb5274a59d65ef9f017db8a86ff97068a6d7216d330c8aa9dcc3c2396d542",
        )

    def test_chain_reports_are_pinned_on_the_compiled_kernel(self, compiled_facade):
        assert self._chain_reports_digest(7) == (
            584,
            "629040fd09a2cbe3c7cbf903304bdf8dc6c268be0231970091946410737213cf",
        )

    def test_two_progression_failures_keep_their_messages_and_order(self, monkeypatch):
        # with every set taken for a chain, every extension but y = 2x fails:
        # for each x, those of A ∪ {x} first, then those above x + 2 of its
        # reflexion
        monkeypatch.setattr(search, "is_canonical_chain", lambda canon: True)
        check = check_uniqueness_lemmas(S("{0,2,3,4,5}")).checks[2]
        parts = check.details.split("; ")
        assert len(parts) == 26
        assert parts[:2] == [
            "A+{9,10} is a chain but y != 18",
            "A+{9,11} is a chain but y != 18",
        ]
        assert parts[7] == "reflected A+{9} plus 12 is a chain but y != 18"
        assert parts[-1] == "reflected A+{10} plus 18 is a chain but y != 20"
        assert hashlib.sha256(check.details.encode()).hexdigest() == (
            "9e64a016926c22198b336797762b8ebc8aba997173d0977ea840178d77d4089d"
        )

    @pytest.mark.parametrize("text", ["{0}", "{0,1}", "{0,1,3}"])
    def test_small_sets_skip_every_check(self, text):
        report = check_uniqueness_lemmas(S(text))
        assert report.ok
        assert [(c.applicable, c.passed) for c in report.checks] == [(False, None)] * 4

    def test_three_sets_skip_the_single_odd_check(self):
        # halving {0,1,2} leaves the 2-set {0,1}, which no chain test accepts
        report = check_uniqueness_lemmas(S("{0,1,2}"))
        odd = report.checks[-1]
        assert odd.name == "chains with a single odd element"
        assert (odd.applicable, odd.passed) == (False, None)
        assert odd.details == "skipped: needs at least 4 elements"

    def test_checks_past_the_chain_cap_are_skipped(self, monkeypatch):
        # the two-progression check recognizes (k + 2)-sets and the single-odd
        # check (k + 1)-sets; past the cap they are skipped, not raised
        monkeypatch.setattr(chains, "CHAIN_ENUM_CAP", 7)
        split = check_uniqueness_lemmas(S("{0,2,3,4,5,7}")).checks[2]
        assert split.name == "chain extensions over a two-progression split"
        assert (split.applicable, split.passed) == (False, None)
        assert split.details == (
            "skipped: needs chain recognition past the cap of 7 elements"
        )
        odd = check_uniqueness_lemmas(S("{0,2,4,5,6,8}")).checks[3]
        assert (odd.applicable, odd.passed) == (True, True)
        monkeypatch.setattr(chains, "CHAIN_ENUM_CAP", 6)
        odd = check_uniqueness_lemmas(S("{0,2,4,5,6,8}")).checks[3]
        assert (odd.applicable, odd.passed) == (False, None)
        assert "past the cap of 6" in odd.details

    def test_oracle_checks_over_the_budget_say_so(self):
        report = check_uniqueness_lemmas(S("{0,1,2,3,4,5}"))
        for c in report.checks[:2]:
            assert (c.applicable, c.passed) == (False, None)
            assert c.details == (
                "skipped: needs the exhaustive oracle at cardinality 8, "
                "over the sweep budget of 1000000000 candidates"
            )
