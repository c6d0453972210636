"""Exhaustive volume oracle, extension sweeps, and the uniqueness checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sumsetchains import search
from sumsetchains.dimension import extension_candidates, is_one_dimensional
from sumsetchains.doubling import mu, t_range
from sumsetchains.errors import CapacityError
from sumsetchains.intset import IntSet, doubling, sumset
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

    def test_cursor_resumes_after_a_set(self):
        sets = list(enumerate_normal_sets(4, 6))
        probe = sets[6]
        cursor = (probe.max, probe.elements[1:-1])
        resumed = list(enumerate_normal_sets(4, 6, cursor=cursor))
        assert resumed == sets[7:]

    def test_estimates(self):
        assert estimated_candidates(5, 16) == 1820
        assert estimated_candidates(8, 30) == 2035800

    def test_budget_guard(self):
        with pytest.raises(CapacityError):
            list(enumerate_normal_sets(8, 30, budget=1000))
        # force pushes through
        gen = enumerate_normal_sets(8, 30, budget=1000, force=True)
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
        path = tmp_path / "slices_k6_v1.json"
        assert list(tmp_path.iterdir()) == [path]
        stored = json.loads(path.read_text())
        assert stored["k"] == 6 and stored["digest"] == search.kernel_digest()
        assert 14 in stored["slices"][str(cold.observed_max_vol - 1)]
        # a fresh process reads the table from disk and sweeps nothing
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        monkeypatch.setattr(search.kernel, "sweep_slice", None)
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
        ],
    )
    def test_bad_slice_file_is_recomputed(self, tmp_path, monkeypatch, content):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        path = tmp_path / "slices_k6_v1.json"
        path.write_text(content)
        got = vol1_oracle(6, 14)
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        assert got.as_dict() == vol1_oracle(6, 14, use_cache=False).as_dict()
        assert json.loads(path.read_text())["k"] == 6
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("digest", [None, "0" * 64])
    def test_slice_file_of_another_kernel_is_recomputed(self, tmp_path, monkeypatch, digest):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        path = tmp_path / "slices_k6_v1.json"
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
        assert list(before) == ["slices_k6_v1.json"]
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        warm = verify_conjecture(6)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.setattr(search, "_SLICE_CACHE", {})
        cold = verify_conjecture(6, use_cache=False)
        assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]

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
                checks = search._extension_checks(a, xs, deep=False)
                assert [c.x for c in checks] == list(xs)
                two_a = set(sumset(a, a))
                for x, c in zip(xs, checks):
                    assert c.overlap == len(two_a & {e + x for e in a}), (a, x)
                    assert c.delta_t == doubling(a.adjoin(x)) - t, (a, x)
                    assert c.violations == ()
            counts[k] = (sets, pairs)
        assert counts == {3: (1, 2), 4: (3, 11), 5: (20, 122)}


class TestUniquenessChecks:
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
