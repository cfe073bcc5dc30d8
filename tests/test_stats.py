import json
import math
from pathlib import Path

import numpy as np
import pytest

from ccsubmod import kruskal_wallis, posthoc_marks
from ccsubmod.stats import chi2_sf, rankdata
from oracles import dunn_marks

FIXTURES = Path(__file__).parent / "data" / "kruskal_wallis_reference.json"


class TestKruskalWallis:
    def test_matches_reference_on_frozen_fixtures(self):
        with open(FIXTURES) as fh:
            fixtures = json.load(fh)
        assert len(fixtures) == 50
        for fixture in fixtures:
            h, p = kruskal_wallis(fixture["groups"])
            assert abs(h - fixture["h"]) <= 1e-9
            assert abs(p - fixture["p"]) <= 1e-9

    def test_matches_scipy_live(self):
        # k = 2..5 groups give both parities of the chi-square df = k - 1.
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for trial in range(200):
            k = 2 + trial % 4
            sizes = [30] * k if trial % 5 == 0 else rng.integers(4, 31, size=k)
            groups = [rng.integers(0, 6, size=size).astype(float) for size in sizes]
            if np.all(np.concatenate(groups) == groups[0][0]):
                continue
            h, p = kruskal_wallis(groups)
            want = scipy_stats.kruskal(*groups)
            assert h == pytest.approx(want.statistic, abs=1e-9)
            assert p == pytest.approx(want.pvalue, abs=1e-9)

    def test_identical_groups_convention(self):
        h, p = kruskal_wallis([[3.0, 3.0, 3.0], [3.0, 3.0]])
        assert h == 0.0
        assert p == 1.0

    def test_identical_distributions(self):
        h, p = kruskal_wallis([[1, 2, 3], [1, 2, 3]])
        assert h == 0.0
        assert p == 1.0

    def test_fully_separated_groups(self):
        h, p = kruskal_wallis([[1, 2, 3], [101, 102, 103]])
        # No ties: H = 12/(N(N+1)) * sum n_i rbar_i^2 ... standard formula
        expected_h = 12 / (6 * 7) * (3 * 2.0**2 + 3 * 5.0**2) - 3 * 7
        assert h == pytest.approx(expected_h, abs=1e-12)
        assert p < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0, 2.0]])
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0], []])

    def test_null_rejection_rate_is_about_five_percent(self):
        rng = np.random.default_rng(7)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            groups = [rng.normal(0, 1, 10) for _ in range(3)]
            _, p = kruskal_wallis(groups)
            rejections += p <= 0.05
        assert 0.025 <= rejections / trials <= 0.08


class TestChi2:
    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in range(1, 13):
            for x in (0.01, 0.5, 1.0, 2.3, 7.7, 15.0, 40.0, 80.0, 120.0, 160.0, 200.0):
                want = scipy_stats.chi2.sf(x, df)
                assert abs(chi2_sf(x, df) - want) <= 1e-12 * want

    @pytest.mark.parametrize("df", [0, 2.5, -1])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(ValueError):
            chi2_sf(3.0, df)

    def test_edge_values(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        assert 0.0 < chi2_sf(100.0, 2) < 1e-20


class TestRankdata:
    def test_average_ranks_for_ties(self):
        assert list(rankdata(np.array([10.0, 20.0, 20.0, 30.0]))) == [1.0, 2.5, 2.5, 4.0]

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = rng.integers(0, 5, size=30).astype(float)
            assert np.allclose(rankdata(values), scipy_stats.rankdata(values))


class TestPosthocMarks:
    def test_identical_groups_all_equal(self):
        marks = posthoc_marks([[1.0, 2.0, 3.0]] * 3)
        assert all(m == "=" for row in marks for m in row)

    def test_separated_groups_antisymmetric(self):
        low = list(np.arange(0.0, 30.0))
        high = list(np.arange(100.0, 130.0))
        marks = posthoc_marks([low, high])
        assert marks[1][0] == "+"
        assert marks[0][1] == "-"

    def test_antisymmetry_on_random_groups(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            groups = [rng.normal(rng.uniform(0, 3), 1.0, 15) for _ in range(4)]
            marks = posthoc_marks(groups)
            for i in range(4):
                assert marks[i][i] == "="
                for j in range(4):
                    pair = (marks[i][j], marks[j][i])
                    assert pair in (("=", "="), ("+", "-"), ("-", "+"))

    def test_omnibus_gate_blocks_marks(self):
        # slightly different but statistically indistinguishable groups
        rng = np.random.default_rng(17)
        groups = [rng.normal(0.0, 1.0, 6), rng.normal(0.05, 1.0, 6), rng.normal(-0.05, 1.0, 6)]
        _, p = kruskal_wallis(groups)
        if p > 0.05:
            marks = posthoc_marks(groups)
            assert all(m == "=" for row in marks for m in row)

    def test_matches_scipy_dunn_oracle(self):
        rng = np.random.default_rng(29)
        marked = 0
        for case in range(600):
            k = int(rng.integers(2, 6))
            groups = []
            for _ in range(k):
                values = rng.normal(rng.uniform(0.0, 2.0), 1.0, size=int(rng.integers(3, 31)))
                # Every other set is integer-valued, so it carries ties.
                groups.append(np.floor(2.0 * values) if case % 2 else values)
            marks = posthoc_marks(groups)
            assert marks == dunn_marks(groups)
            marked += sum(m != "=" for row in marks for m in row)
        assert marked > 500

    def test_benchmark_row_simulation(self):
        # four samples shaped like a published comparison row: the second
        # group is far ahead and must be marked better than all others
        means = [12749.5, 20078.8, 16361.8, 16243.2]
        stds = [93.378, 11.066, 67.76, 68.601]
        rng = np.random.default_rng(11)
        groups = [rng.normal(m, s, 30) for m, s in zip(means, stds)]
        marks = posthoc_marks(groups)
        assert marks[1][0] == "+" and marks[1][2] == "+" and marks[1][3] == "+"
        assert marks[0][1] == "-" and marks[2][1] == "-" and marks[3][1] == "-"
