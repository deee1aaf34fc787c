"""Tests for the profiling helpers."""

from __future__ import annotations

from repro.bench import kernel_scaling, profile_callable, profile_likelihood
from repro.models import JC69
from repro.trees import balanced_tree


class TestProfileCallable:
    def test_basic(self):
        report = profile_callable(lambda: sum(range(10_000)), top=5)
        assert report.total_seconds >= 0
        assert len(report.top_functions) <= 5
        assert report.raw

    def test_dominant(self):
        def busy():
            return [i**2 for i in range(50_000)]

        report = profile_callable(busy)
        assert report.dominant()


class TestProfileLikelihood:
    def test_partials_kernel_dominates(self):
        """The paper's premise (§II-A, §VIII): likelihood evaluation is
        dominated by the partials computation."""
        report = profile_likelihood(
            balanced_tree(64), JC69(), sites=128, repetitions=5, top=10
        )
        names = [name for name, _ in report.top_functions]
        assert any("update_partials" in n or "execute_plan" in n for n in names[:5])

    def test_report_sorted(self):
        report = profile_likelihood(balanced_tree(16), JC69(), sites=32, repetitions=2)
        cumulatives = [c for _, c in report.top_functions]
        assert cumulatives == sorted(cumulatives, reverse=True)


class TestKernelScaling:
    def test_grows_with_sites(self):
        scaling = kernel_scaling(balanced_tree(32), JC69(), [32, 1024])
        assert scaling[1024] > scaling[32]

    def test_keys_match_grid(self):
        scaling = kernel_scaling(balanced_tree(8), JC69(), [16, 64])
        assert set(scaling) == {16, 64}
        assert all(v > 0 for v in scaling.values())
