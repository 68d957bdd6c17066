import numpy as np
import pytest

import tailnet as tn
from tailnet.errors import DomainError
from tailnet.harness import (brute_force_qp, covar_rows_to_csv, rows_to_csv,
                             run_covar_study, run_tail_study, study_to_json)
from tailnet.scenario import parse_scenario


def scenario_doc(dependence, grid, budget=100_000, seed=7, network=None, **study):
    doc = {
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": dependence,
        "study": {"grid": grid, "mc_budget": budget, "seed": seed, **study},
    }
    if network is not None:
        doc["network"] = network
    return parse_scenario(doc)


class TestTailStudy:
    def test_mo_equal_rate_recovery(self):
        sc = scenario_doc({"kind": "mo", "d": 2, "mo_variant": "equal"},
                          [10.0, 100.0, 1000.0], budget=1_000_000)
        rows = run_tail_study(sc)
        for row in rows:
            assert row.asymptotic == pytest.approx(row.grid_value ** -1.5, rel=1e-12)
            if not row.flag:
                assert abs(row.empirical - row.asymptotic) < 3 * row.stderr

    def test_iid_exact_product(self):
        sc = scenario_doc({"kind": "iid", "d": 2}, [10.0, 31.0], budget=400_000)
        rows = run_tail_study(sc)
        for row in rows:
            assert row.asymptotic == pytest.approx(row.grid_value ** -2.0, rel=1e-12)
            assert abs(row.empirical - row.asymptotic) < 3.5 * row.stderr

    def test_gaussian_ratio_tracks_exact_orthant(self):
        from scipy.special import ndtri
        from tailnet.orthant import bivariate_normal_survival
        sc = scenario_doc({"kind": "gaussian", "sigma": [[1, 0.5], [0.5, 1]]},
                          [10.0, 100.0], budget=2_000_000)
        rows = run_tail_study(sc)
        for row in rows:
            h = -float(ndtri(row.grid_value ** -1.0))
            exact = bivariate_normal_survival(h, h, 0.5)
            assert abs(row.empirical - exact) < 4 * row.stderr

    def test_network_cond_study_iid(self):
        sc = scenario_doc({"kind": "iid", "d": 2}, [10.0, 100.0],
                          budget=1_000_000, target="cond",
                          network={"matrix": [[1.0, 0.0], [0.0, 1.0]]})
        rows = run_tail_study(sc)
        for row in rows:
            assert row.asymptotic == pytest.approx(1.0 / row.grid_value, rel=1e-12)
            if not row.flag:
                assert row.ratio == pytest.approx(1.0, abs=4 * row.stderr / row.asymptotic)

    def test_low_hit_rows_flagged_not_dropped(self):
        sc = scenario_doc({"kind": "iid", "d": 2}, [10.0, 10_000.0], budget=10_000)
        rows = run_tail_study(sc)
        assert len(rows) == 2
        assert rows[1].flag == "low-hits"

    def test_requires_study_section(self):
        doc = {"margin": {"alpha": 1.0, "theta": 1.0},
               "dependence": {"kind": "iid", "d": 2}}
        with pytest.raises(DomainError):
            run_tail_study(parse_scenario(doc))


class TestCovarStudy:
    def test_mo_equal_branches_flagged(self):
        sc = scenario_doc({"kind": "mo", "d": 2, "mo_variant": "equal"},
                          [1e-2, 3e-3], budget=4_000_000, target="covar",
                          upsilon=0.5, beta=0.5,
                          network={"matrix": [[1.0, 0.0], [0.0, 1.0]]})
        rows = run_covar_study(sc)
        for row in rows:
            assert "branch:" in row.flag
            assert 0.7 < row.ratio < 1.4

    def test_bivariate_mo_against_closed_form(self):
        sc = scenario_doc({"kind": "mo", "d": 2, "mo_variant": "equal"},
                          [1e-2, 3e-3], budget=4_000_000, target="covar",
                          upsilon=0.5, beta=0.5)
        rows = run_covar_study(sc)
        for row in rows:
            expect = tn.covar_asymptotic_mo("equal", 1.0, 1.0, 0.5, 0.5,
                                            row.grid_value)
            assert row.asymptotic == pytest.approx(expect, rel=1e-12)
            assert row.ratio == pytest.approx(1.0, abs=0.25)

    def test_strong_dependence_ratio_is_noise_only(self):
        # duplicated coordinate via the network layer: X1 = X2 = Z1 exactly
        sc = scenario_doc({"kind": "iid", "d": 2}, [3e-2, 1e-2],
                          budget=200_000, target="covar", upsilon=0.5,
                          network={"matrix": [[1.0, 0.0], [1.0, 0.0]]})
        rows = run_covar_study(sc)
        for row in rows:
            assert row.ratio == pytest.approx(1.0, abs=0.1)


class TestReproducibility:
    def test_byte_identical_reruns_and_threads(self):
        sc = scenario_doc({"kind": "mo", "d": 2, "mo_variant": "equal"},
                          [10.0, 100.0], budget=50_000)
        a = rows_to_csv(run_tail_study(sc, threads=1))
        b = rows_to_csv(run_tail_study(sc, threads=4))
        c = rows_to_csv(run_tail_study(sc, threads=1))
        assert a == b == c
        j1 = study_to_json(sc, run_tail_study(sc), "tail")
        j2 = study_to_json(sc, run_tail_study(sc), "tail")
        assert j1 == j2

    def test_seed_changes_output(self):
        base = scenario_doc({"kind": "iid", "d": 2}, [10.0], budget=50_000, seed=1)
        other = scenario_doc({"kind": "iid", "d": 2}, [10.0], budget=50_000, seed=2)
        assert rows_to_csv(run_tail_study(base)) != rows_to_csv(run_tail_study(other))

    def test_csv_headers(self):
        sc = scenario_doc({"kind": "iid", "d": 2}, [10.0], budget=10_000)
        rows = run_tail_study(sc)
        assert rows_to_csv(rows).splitlines()[0] == \
            "grid,empirical,stderr,asymptotic,ratio,flag"
        sc2 = scenario_doc({"kind": "iid", "d": 2}, [1e-2], budget=10_000,
                           target="covar", upsilon=0.5)
        crows = run_covar_study(sc2)
        assert covar_rows_to_csv(crows, sc2).splitlines()[0] == \
            "gamma,level,empirical,stderr,asymptotic,ratio,flag"


class TestStderrHonesty:
    def test_two_se_band_coverage(self):
        # known-exact target: equal-rate joint survival at t = 10 is 10^(-3/2)
        target = 10.0 ** -1.5
        hits = 0
        for seed in range(100):
            sc = scenario_doc({"kind": "mo", "d": 2, "mo_variant": "equal"},
                              [10.0], budget=100_000, seed=seed)
            row = run_tail_study(sc)[0]
            if abs(row.empirical - target) <= 2 * row.stderr:
                hits += 1
        assert hits >= 90


class TestBruteForceQp:
    def test_identity(self):
        val, arg = brute_force_qp(np.eye(3))
        assert val == pytest.approx(3.0, rel=1e-9)
        assert np.allclose(arg, 1.0, atol=1e-6)

    def test_equicorrelation_pair(self):
        val, _ = brute_force_qp(tn.CorrelationMatrix.equicorrelation(2, 0.5))
        assert val == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            brute_force_qp(np.eye(6))


def test_random_law_moments_are_drawn_once_per_study():
    law = {"q": 3, "d": 3, "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
           "edge_prob": [[0.6, 0.5, 0.0], [0.0, 0.5, 0.6], [0.4, 0.0, 0.7]]}
    sc = scenario_doc({"kind": "iid", "d": 3}, [10.0, 20.0, 50.0, 100.0],
                      budget=10_000, network=law, target="cond", agents=[1, 2])
    tn.network._moment_draws.cache_clear()
    run_tail_study(sc, threads=1)
    assert tn.network._moment_draws.cache_info().misses == 1


def test_random_law_moments_are_drawn_once_at_two_threads():
    # concurrent points wait for the first draw instead of drawing again
    law = {"q": 3, "d": 3, "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
           "edge_prob": [[0.6, 0.5, 0.0], [0.0, 0.5, 0.6], [0.4, 0.0, 0.7]]}
    sc = scenario_doc({"kind": "iid", "d": 3}, [10.0, 20.0, 50.0, 100.0],
                      budget=10_000, network=law, target="cond", agents=[1, 2])
    tn.network._moment_draws.cache_clear()
    run_tail_study(sc, threads=2)
    assert tn.network._moment_draws.cache_info().misses == 1


def mo_covar_pair(budget, grid):
    """A disjoint Marshall-Olkin covar scenario, whose rows pick between a
    low- and a high-upsilon branch, and its agent pair."""
    sc = scenario_doc({"kind": "mo", "d": 2, "mo_variant": "equal"}, grid,
                      budget=budget, network={"matrix": [[1.0, 0.0],
                                                         [0.0, 1.0]]},
                      target="covar")
    return sc, tn.harness.study_pair(sc)


def test_covar_point_without_an_estimate_leaves_the_branch_undecided():
    # 1e4 draws keep about 10 rows above VaR at gamma = 1e-3, fewer than
    # covar_empirical needs, so there is no estimate to pick a branch
    sc, pair = mo_covar_pair(10_000, [1e-3])
    row = tn.harness._covar_point(sc, pair, 1e-3, 0)
    low = tn.network_covar(pair[1], pair[0], sc.model, 1e-3, 0.5).low_upsilon
    assert np.isnan(row.empirical)
    assert row.flag.startswith("low-hits:")
    assert row.flag.endswith(";branch:undecided")
    assert row.asymptotic == low.value


def test_covar_point_between_the_branches_is_ambiguous(monkeypatch):
    sc, pair = mo_covar_pair(10_000, [1e-2])
    asym = tn.network_covar(pair[1], pair[0], sc.model, 1e-2, 0.5)
    low, high = asym.low_upsilon.value, asym.high_upsilon.value
    middle = (low * high) ** 0.5        # equally far from both in log
    monkeypatch.setattr(tn.harness, "covar_empirical",
                        lambda *args, **kwargs: middle)
    row = tn.harness._covar_point(sc, pair, 1e-2, 0)
    assert row.empirical == middle
    assert row.flag == "branch:ambiguous"
    assert row.asymptotic in (low, high)
