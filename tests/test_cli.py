import argparse
import itertools
import json

import numpy as np
import pytest

import timedchoice as tc
from timedchoice import cli, dataio
from timedchoice.cli import main
from timedchoice.errors import SolverError


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def topn_config(tmp_path):
    path = tmp_path / "topn.json"
    path.write_text(
        json.dumps(
            {
                "items": ["a", "b", "c"],
                "periods": 3,
                "search_order": ["a", "b", "c"],
                "orderings": [["b", "a", "c"]],
            }
        )
    )
    return path


class TestGenerateAndSurvive:
    def test_round_trip_keeps_true_ordering(self, tmp_path, topn_config, capsys):
        pi_path = tmp_path / "pi.csv"
        rule_path = tmp_path / "rule.csv"
        assert run(
            ["generate", "--model", "topn", "--config", topn_config,
             "--out", pi_path, "--rule-out", rule_path]
        ) == 0
        out_path = tmp_path / "survivors.json"
        assert run(["survive", "--pi", pi_path, "--out", out_path]) == 0
        doc = json.loads(out_path.read_text())
        assert ["b", "a", "c"] in doc["survivors"]
        assert rule_path.exists()

    def test_generate_mm(self, tmp_path):
        config = tmp_path / "mm.json"
        config.write_text(
            json.dumps(
                {
                    "items": ["a", "b", "o"],
                    "outside": "o",
                    "outside_mode": True,
                    "periods": 3,
                    "gamma": [
                        [0.2, 0.1, 1.0],
                        [0.5, 0.4, 1.0],
                        [0.9, 0.8, 1.0],
                    ],
                    "orderings": [["a", "b", "o"], ["b", "a", "o"]],
                    "weights": [0.25, 0.75],
                }
            )
        )
        out = tmp_path / "pi.csv"
        assert run(["generate", "--model", "mm", "--config", config, "--out", out]) == 0
        dataset, menu = dataio.read_pi_csv(out)
        assert dataset.pi.shape == (3, 3)

    def test_generate_satisficing_writes_counts(self, tmp_path):
        config = tmp_path / "sat.json"
        config.write_text(
            json.dumps(
                {
                    "items": ["x", "y", "z"],
                    "periods": 2,
                    "utilities": [3, 1, 2],
                    "thresholds": [
                        {"type": "normal", "mean": 1.0, "sd": 0.5},
                        {"type": "normal", "mean": 2.0, "sd": 0.5},
                    ],
                    "n_draws": 2000,
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "pi.csv"
        counts = tmp_path / "counts.csv"
        assert run(
            ["generate", "--model", "satisficing", "--config", config,
             "--out", out, "--counts-out", counts]
        ) == 0
        assert dataio.read_counts_csv(counts) == (2000, 2000)

    def test_generate_satisficing_explicit_search_orders(self, tmp_path):
        """``search_orders`` names its orders by label and gives their probabilities."""
        cfg = {
            "items": ["x", "y", "z"], "utilities": [1, 3, 2], "n_draws": 400, "seed": 7,
            "thresholds": [{"type": "fixed", "value": 1.5}, {"type": "fixed", "value": 2.5}],
            "search_orders": {"orders": [["z", "y", "x"], ["x", "y", "z"]],
                              "probs": [0.25, 0.75]},
        }
        config = tmp_path / "sat.json"
        config.write_text(json.dumps(cfg))
        out, rule_out = tmp_path / "pi.csv", tmp_path / "rule.csv"
        assert run(["generate", "--model", "satisficing", "--config", config, "--out", out,
                    "--rule-out", rule_out]) == 0
        menu = tc.Menu(items=("x", "y", "z"))
        rule, data = tc.gen_satisficing(
            menu, [1, 3, 2], [tc.FixedThreshold(1.5), tc.FixedThreshold(2.5)],
            tc.SearchOrderDistribution(((2, 1, 0), (0, 1, 2)), (0.25, 0.75)), 400, seed=7,
        )
        dataio.write_pi_csv(tmp_path / "want_pi.csv", data, menu)
        dataio.write_rule_csv(tmp_path / "want_rule.csv", rule, menu)
        assert out.read_bytes() == (tmp_path / "want_pi.csv").read_bytes()
        assert rule_out.read_bytes() == (tmp_path / "want_rule.csv").read_bytes()
        # Uniform search orders draw other rules from the same seed.
        uniform = tc.gen_satisficing(
            menu, [1, 3, 2], [tc.FixedThreshold(1.5), tc.FixedThreshold(2.5)],
            tc.SearchOrderDistribution.uniform(3), 400, seed=7,
        )[0]
        assert not np.array_equal(rule.u, uniform.u)

    def test_diffusion_model(self, tmp_path):
        config = tmp_path / "diff.json"
        config.write_text(
            json.dumps(
                {
                    "items": ["a", "b", "o"],
                    "outside": "o",
                    "outside_mode": True,
                    "periods": 3,
                    "drifts": [0.5, 0.2],
                    "sigma": 1.0,
                    "thresholds": [[2.0, 1.5], [1.5, 1.0], [1.0, 0.5]],
                    "orderings": [["a", "b", "o"]],
                }
            )
        )
        out = tmp_path / "pi.csv"
        assert run(["generate", "--model", "diffusion", "--config", config, "--out", out]) == 0


    @pytest.mark.parametrize("model", ["mm", "satisficing"])
    def test_periods_is_read_by_topn_and_diffusion_only(self, tmp_path, model):
        """``mm`` and ``satisficing`` take their periods from ``gamma`` and ``thresholds``."""
        cfg = {
            "mm": {"items": ["a", "b"], "gamma": [[0.2, 0.3], [0.5, 0.6]]},
            "satisficing": {
                "items": ["x", "y", "z"], "utilities": [3, 1, 2], "n_draws": 500, "seed": 3,
                "thresholds": [{"type": "fixed", "value": 1.5}, {"type": "fixed", "value": 2.5}],
            },
        }[model]
        outputs = []
        for periods in (None, 7):
            config = tmp_path / f"{model}_{periods}.json"
            config.write_text(json.dumps(cfg if periods is None else {**cfg, "periods": periods}))
            out, rule_out = tmp_path / f"pi_{periods}.csv", tmp_path / f"rule_{periods}.csv"
            assert run(["generate", "--model", model, "--config", config, "--out", out,
                        "--rule-out", rule_out]) == 0
            outputs.append((out.read_bytes(), rule_out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].decode().splitlines()[0] == "period," + ",".join(cfg["items"])
        assert len(outputs[0][0].decode().splitlines()) == 3

    @pytest.mark.parametrize(
        "model, change, message",
        [
            ("topn", {"periods": 2.5}, "d_t must be an integer, got 2.5"),
            ("topn", {"periods": "x"}, "d_t must be an integer, got 'x'"),
            ("topn", {"periods": True}, "d_t must be an integer, got True"),
            ("diffusion", {"periods": 2.5}, "d_t must be an integer, got 2.5"),
            ("diffusion", {"sigma": "1.0"}, "sigma must be a number, got '1.0'"),
            ("topn", {"outside": "zz"}, "unknown menu item 'zz'"),
            ("satisficing", {"n_draws": 2.5}, "n_draws must be an integer, got 2.5"),
            ("satisficing", {"thresholds": [{"type": "fixed", "value": float("nan")}]},
             "threshold value must not be NaN"),
            ("satisficing", {"thresholds": [{"type": "normal", "mean": float("nan"), "sd": 1}]},
             "threshold mean must be finite, got nan"),
            # Strings where numbers belong ended in a ValueError traceback.
            ("mm", {"gamma": "x"}, "consideration probabilities must be numbers, got 'x'"),
            ("topn", {"weights": [0.5, "q"]}, "preference weights must be numbers, got [0.5, 'q']"),
            ("satisficing", {"thresholds": [{"type": "normal", "mean": "x", "sd": 1}]},
             "threshold mean must be a number, got 'x'"),
            ("satisficing", {"thresholds": [{"type": "fixed", "value": "1.5"}]},
             "threshold value must be a number, got '1.5'"),
            ("satisficing", {"utilities": [1, "2", 3]},
             "utilities must be numbers, got [1, '2', 3]"),
            ("diffusion", {"drifts": [0.5, "x"]}, "drifts must be numbers, got [0.5, 'x']"),
            ("diffusion", {"thresholds": [[2.0, 1.5], [1.5]]},
             "saliency thresholds must be numbers, got [[2.0, 1.5], [1.5]]"),
            # numpy read a bool among floats as a number and wrote a table.
            ("mm", {"weights": [True, 0.0]}, "preference weights must be numbers, got [True, 0.0]"),
            # bool("false") is True, and 1 was read as true.
            ("mm", {"outside_mode": "false"}, "outside_mode must be true or false, got 'false'"),
            ("topn", {"outside_mode": 1}, "outside_mode must be true or false, got 1"),
            # tuple("abc") made three items; 5 ended in a TypeError traceback.
            ("topn", {"items": "abc"}, "menu items must be a list of labels, got 'abc'"),
            ("topn", {"items": 5}, "menu items must be a list of labels, got 5"),
            ("topn", {"items": ["a", "b", 3]},
             "menu items must be a list of labels, got ['a', 'b', 3]"),
            # "x" ended in a TypeError, -1 in a ValueError, and true drew seed 1.
            ("satisficing", {"seed": "x"},
             "seed must be a nonnegative integer or a list of them, got 'x'"),
            ("satisficing", {"seed": -1},
             "seed must be a nonnegative integer or a list of them, got -1"),
            ("satisficing", {"seed": True},
             "seed must be a nonnegative integer or a list of them, got True"),
        ],
    )
    def test_malformed_config_is_exit_one(self, tmp_path, capsys, model, change, message):
        """``int()`` made 2.5 periods 2 and ``true`` 1; a NaN threshold wrote a table."""
        cfg = {
            "topn": {"items": ["a", "b", "c"], "periods": 3, "search_order": ["a", "b", "c"]},
            "mm": {"items": ["a", "b"], "gamma": [[0.2, 0.3], [0.5, 0.6]]},
            "diffusion": {"items": ["a", "b"], "periods": 2, "drifts": [0.5, 0.2],
                          "sigma": 1.0, "thresholds": [[2.0, 1.5], [1.5, 1.0]]},
            "satisficing": {"items": ["x", "y", "z"], "utilities": [1, 2, 3], "n_draws": 100,
                            "thresholds": [{"type": "fixed", "value": 1.5}]},
        }[model]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**cfg, **change}))
        out = tmp_path / "pi.csv"
        assert run(["generate", "--model", model, "--config", config, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize("model", ["topn", "mm", "diffusion"])
    def test_counts_out_without_sample_sizes_says_so(self, tmp_path, capsys, model):
        """These models predict frequencies: ``--counts-out`` wrote nothing and said nothing."""
        cfg = {
            "topn": {"items": ["a", "b"], "periods": 2, "search_order": ["a", "b"]},
            "mm": {"items": ["a", "b"], "gamma": [[0.2, 0.3], [0.5, 0.6]]},
            "diffusion": {"items": ["a", "b"], "periods": 2, "drifts": [0.5, 0.2],
                          "sigma": 1.0, "thresholds": [[2.0, 1.5], [1.5, 1.0]]},
        }[model]
        config, out, counts = tmp_path / "cfg.json", tmp_path / "pi.csv", tmp_path / "c.csv"
        config.write_text(json.dumps(cfg))
        assert run(["generate", "--model", model, "--config", config, "--out", out,
                    "--counts-out", counts]) == 0
        assert capsys.readouterr().err == (
            f"note: {counts} not written: the {model} model predicts frequencies and has "
            "no sample sizes\n"
        )
        assert out.exists() and not counts.exists()


class TestCluster:
    def test_cluster_subcommand(self, tmp_path):
        raw = tmp_path / "raw.csv"
        lines = ["respondent_id,stopping_time,choice"]
        rng = np.random.default_rng(0)
        for i in range(8):
            lines.append(f"z{i},0,b")
        for i in range(60):
            lines.append(f"r{i},{rng.uniform(1, 30):.2f},{'a' if i % 3 else 'b'}")
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pi.csv"
        counts = tmp_path / "counts.csv"
        assert run(
            ["cluster", "--input", raw, "--periods", 4, "--out", out,
             "--counts-out", counts, "--items", "a,b"]
        ) == 0
        dataset, menu = dataio.read_pi_csv(out)
        assert dataset.d_t == 4
        assert sum(dataio.read_counts_csv(counts)) == 68


class TestEstimateAndTest:
    def test_estimate_on_bundled_data(self, tmp_path, capsys):
        pi, menu = tc.load_experiment_dataset()
        pi_path = tmp_path / "pi.csv"
        dataio.write_pi_csv(pi_path, pi, menu)
        out = tmp_path / "estimate.json"
        assert run(
            ["estimate", "--pi", pi_path, "--orderings", "crra",
             "--sims", 50, "--seed", 0, "--out", out]
        ) == 0
        doc = json.loads(out.read_text())
        weights = [e["weight"] for e in doc["preference_weights"]]
        assert len(weights) == 6
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert doc["schema_version"] == 1

    def test_estimate_full_orderings_non_outside(self, tmp_path):
        menu = tc.Menu(items=("a", "b", "c"))
        rng = np.random.default_rng(1)
        pi = tc.ChoiceDataset(pi=rng.dirichlet(np.ones(3), size=2))
        pi_path = tmp_path / "pi.csv"
        dataio.write_pi_csv(pi_path, pi, menu)
        assert run(
            ["estimate", "--pi", pi_path, "--orderings", "full",
             "--sims", 10, "--seed", 1, "--no-outside"]
        ) == 0

    def test_test_subcommand(self, tmp_path):
        menu = tc.Menu(items=("a", "b", "c"))
        orderings = tc.all_orderings(3)
        enum = tc.enumerate_sets(menu)
        transform = tc.build_choice_transform(menu, enum, orderings)
        rule = tc.sample_attention_rule(
            menu, orderings, tc.SamplerConfig(d_t=3, seed=4, outside_mode=False)
        )
        pop = tc.predict_choices(rule, transform, tc.PreferenceDistribution.uniform(6))
        rng = np.random.default_rng(5)
        draws = np.stack([rng.multinomial(400, pop.pi[t]) / 400 for t in range(3)])
        data = tc.ChoiceDataset(pi=draws, period_counts=(400, 400, 400))
        pi_path = tmp_path / "pi.csv"
        counts_path = tmp_path / "counts.csv"
        dataio.write_pi_csv(pi_path, data, menu)
        dataio.write_counts_csv(counts_path, data.period_counts)
        out = tmp_path / "test.json"
        assert run(
            ["test", "--pi", pi_path, "--counts", counts_path,
             "--orderings", "full", "--no-outside", "--sims", 80,
             "--boot", 99, "--seed", 0, "--out", out]
        ) == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"statistic", "critical_value", "p_value", "reject"}

    def test_estimate_no_outside_robustness_path(self, tmp_path):
        pi, menu = tc.load_experiment_dataset()
        pi_path = tmp_path / "pi.csv"
        dataio.write_pi_csv(pi_path, pi, menu)
        out = tmp_path / "robust.json"
        assert run(
            ["estimate", "--pi", pi_path, "--orderings", "crra",
             "--sims", 20, "--seed", 0, "--no-outside", "--out", out]
        ) == 0
        doc = json.loads(out.read_text())
        # The sure payment joins the regular ranking: more than six types.
        assert len(doc["preference_weights"]) > 6

    def test_test_subcommand_boot_stats_dump(self, tmp_path):
        menu = tc.Menu(items=("a", "b", "c"))
        rng = np.random.default_rng(9)
        pi = tc.ChoiceDataset(pi=rng.dirichlet(np.full(3, 5.0), size=2))
        pi_path = tmp_path / "pi.csv"
        counts_path = tmp_path / "counts.csv"
        dataio.write_pi_csv(pi_path, pi, menu)
        dataio.write_counts_csv(counts_path, (300, 300))
        stats_path = tmp_path / "boot.csv"
        assert run(
            ["test", "--pi", pi_path, "--counts", counts_path,
             "--orderings", "full", "--no-outside", "--sims", 40,
             "--boot", 49, "--seed", 2, "--boot-stats-out", stats_path]
        ) == 0
        lines = stats_path.read_text().splitlines()
        assert lines[0] == "replication,statistic"
        assert len(lines) == 50

    def test_estimate_reads_orderings_from_a_file(self, tmp_path):
        """``--orderings FILE.json`` takes the types, in order, from the file."""
        menu = tc.Menu(items=("a", "b", "c"))
        pi = tc.ChoiceDataset(pi=np.random.default_rng(2).dirichlet(np.ones(3), size=2))
        pi_path, orderings_path = tmp_path / "pi.csv", tmp_path / "orderings.json"
        dataio.write_pi_csv(pi_path, pi, menu)
        orderings = tc.OrderingSet(
            (tc.PreferenceOrdering((2, 0, 1)), tc.PreferenceOrdering((1, 2, 0)))
        )
        dataio.dump_json(orderings_path, dataio.orderings_to_json(orderings, menu))
        out = tmp_path / "estimate.json"
        assert run(["estimate", "--pi", pi_path, "--orderings", orderings_path, "--sims", 30,
                    "--seed", 4, "--no-outside", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert [e["ordering"] for e in doc["preference_weights"]] == [["c", "a", "b"],
                                                                      ["b", "c", "a"]]
        want = tc.estimate(pi, menu, orderings, 30,
                           tc.SamplerConfig(d_t=2, seed=4, outside_mode=False))
        assert doc["best_distance"] == want.best_distance
        assert doc["best_index"] == want.best_index

    @pytest.mark.parametrize(
        "items, orderings, message",
        [
            ("abc", "crra", "--orderings crra needs the experiment menu columns"),
            ("abcdefg", "full", "--orderings full is capped at 6 items"),
        ],
    )
    def test_orderings_on_the_wrong_menu_are_exit_one(
        self, tmp_path, capsys, items, orderings, message
    ):
        pi = tmp_path / "pi.csv"
        dataio.write_pi_csv(pi, tc.ChoiceDataset(pi=np.full((2, len(items)), 1 / len(items))),
                            tc.Menu(items=tuple(items)))
        assert run(["estimate", "--pi", pi, "--no-outside", "--orderings", orderings]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_crra_orderings_need_experiment_menu(self, tmp_path):
        menu = tc.Menu(items=("a", "b"))
        pi = tc.ChoiceDataset(pi=np.array([[0.5, 0.5]]))
        pi_path = tmp_path / "pi.csv"
        dataio.write_pi_csv(pi_path, pi, menu)
        assert run(["estimate", "--pi", pi_path, "--orderings", "crra", "--sims", 1]) == 1


class TestCrraTable:
    def test_reproduces_published_cutoffs(self, tmp_path):
        lots_path = tmp_path / "lotteries.json"
        dataio.dump_json(lots_path, dataio.lotteries_to_json(tc.experiment_lotteries()))
        out = tmp_path / "table.json"
        assert run(
            ["crra-table", "--lotteries", lots_path, "--exclude", "lO", "--out", out]
        ) == 0
        doc = json.loads(out.read_text())
        cutoffs = [iv["sigma_hi"] for iv in doc["intervals"][:-1]]
        for got, want in zip(cutoffs, [0.2287, 0.2606, 0.2728, 0.2832, 0.3001]):
            assert got == pytest.approx(want, abs=1e-3)


class TestExitCodes:
    def test_missing_file_is_exit_one(self, tmp_path):
        assert run(["survive", "--pi", tmp_path / "nope.csv"]) == 1

    def test_solver_error_is_exit_two(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverError("no convergence")

        monkeypatch.setattr(cli, "estimate", fail)
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b\n1,0.5,0.5\n")
        assert run(["estimate", "--pi", pi, "--no-outside", "--orderings", "full"]) == 2
        assert capsys.readouterr().err == "numerical failure: no convergence\n"

    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_negative_seed_is_exit_one(self, tmp_path, capsys, command):
        """``SeedSequence(-1)`` ended in a ValueError traceback."""
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b\n1,0.5,0.5\n2,0.25,0.75\n")
        counts = tmp_path / "counts.csv"
        counts.write_text("period,count\n1,50\n2,50\n")
        extra = ["--counts", counts] if command == "test" else []
        assert run([command, "--pi", pi, "--no-outside", "--orderings", "full", "--sims", 5,
                    "--seed", "-1", *extra]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be a nonnegative integer or a list of them, got -1\n"
        )

    @pytest.mark.parametrize(
        "name, text",
        [
            ("pi.csv", "period,a,b\n1,0.5,half\n"),
            ("pi.csv", "period,a,b\n1,0.5,0.5\n2,nan,0.5\n"),
            ("pi.csv", "period,a,b\n1,0.5,0.5\n2,0.5,inf\n"),
            ("pi.csv", "period,a,b\n1,-inf,0.5\n"),
            ("pi.csv", "period,a,b,c\n1,0.5,0.5\n2,0.5,0.5\n"),
            ("counts.csv", "period,count\n1,50\n2\n"),
            ("raw.csv", "respondent_id,stopping_time,choice\nr1,0,a\nr2,soon,b\n"),
            ("raw.csv", "respondent_id,stopping_time,choice\nr1,0,a\nr2,nan,b\n"),
            ("raw.csv", "respondent_id,stopping_time,choice\nr1,0,a\nr2,inf,b\n"),
            ("raw.csv", "respondent_id,stopping_time,choice\nr1,0,a\nr2,1e400,b\n"),
            ("raw.csv", "respondent_id,stopping_time,choice\nr1,0,a\nr2,-1,b\n"),
        ],
    )
    def test_malformed_csv_is_exit_one(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        pi = tmp_path / "good_pi.csv"
        pi.write_text("period,a,b\n1,0.5,0.5\n2,0.25,0.75\n")
        args = {
            "pi.csv": ["survive", "--pi", path],
            "counts.csv": ["test", "--pi", pi, "--counts", path, "--no-outside",
                           "--orderings", "full"],
            "raw.csv": ["cluster", "--input", path, "--periods", "2", "--out", tmp_path / "o.csv"],
        }[name]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, line ")
        assert "Traceback" not in err

    def test_stopping_time_is_named_as_written(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("respondent_id,stopping_time,choice\nr1,0,a\nr2,1e400,b\n")
        assert run(["cluster", "--input", raw, "--periods", 2, "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: {raw}, line 3: stopping_time must be finite and nonnegative, got '1e400'\n"
        )

    @pytest.mark.parametrize("command", ["survive", "estimate", "test"])
    def test_nan_cell_names_its_line(self, tmp_path, capsys, command):
        """``survive`` exited 0 with garbage; ``estimate`` and ``test`` blamed the solver."""
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b,c\n1,0.5,0.3,0.2\n2,nan,0.5,0.5\n3,0.2,0.3,0.5\n")
        counts = tmp_path / "counts.csv"
        counts.write_text("period,count\n1,50\n2,50\n3,50\n")
        args = {
            "survive": ["survive", "--pi", pi, "--no-never-chosen"],
            "estimate": ["estimate", "--pi", pi, "--no-outside", "--orderings", "full"],
            "test": ["test", "--pi", pi, "--counts", counts, "--no-outside",
                     "--orderings", "full"],
        }[command]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            f"error: {pi}, line 3: choice frequencies must lie in [0, 1]\n"
        )

    def test_nan_payoff_is_exit_one(self, tmp_path, capsys):
        """Python's json reads ``NaN``; the lottery ranked first on most of [-1, 1]."""
        lots = tmp_path / "lotteries.json"
        lots.write_text(
            '{"schema_version": 1, "lotteries": [{"label": "x", "outcomes": [[NaN, 0.5], '
            '[0, 0.5]]}, {"label": "y", "outcomes": [[10, 1.0]]}]}'
        )
        assert run(["crra-table", "--lotteries", lots]) == 1
        assert capsys.readouterr().err == "error: payoffs must be finite and nonnegative, got nan\n"

    def test_row_sum_a_hair_above_one_resamples(self, tmp_path, capsys):
        """``multinomial`` refused this row, which the dataset accepts, with a traceback."""
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b,c\n1,0.6,0.4000000005,0\n2,0.2,0.3,0.5\n")
        counts = tmp_path / "counts.csv"
        counts.write_text("period,count\n1,50\n2,50\n")
        assert run(["test", "--pi", pi, "--counts", counts, "--no-outside",
                    "--orderings", "full", "--sims", 20, "--boot", 19]) == 0
        assert "p-value" in capsys.readouterr().out

    def test_too_few_distinct_times_for_the_periods_is_exit_one(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "respondent_id,stopping_time,choice\nr1,0,a\nr2,1.5,b\nr3,2,a\nr4,2,b\nr5,3,a\n"
        )
        assert run(["cluster", "--input", raw, "--periods", 9, "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err == (
            "error: 9 periods need at least 8 distinct positive stopping times, found 3\n"
        )

    def test_unknown_outside_label_is_exit_one(self, tmp_path, capsys):
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b\n1,0.5,0.5\n")
        assert run(["estimate", "--pi", pi, "--outside", "zz", "--orderings", "full"]) == 1
        assert capsys.readouterr().err.startswith("error: --outside 'zz'")

    def test_bad_json_is_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(
            ["generate", "--model", "topn", "--config", bad, "--out", tmp_path / "x.csv"]
        ) == 1

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            # A document that is not an object ended in a TypeError traceback.
            ("mm", "x", "{path} must be a JSON object, got str"),
            ("mm", [1], "{path} must be a JSON object, got list"),
            ("crra-table", "x", "{path} must be a JSON object, got str"),
            ("crra-table", [1], "{path} must be a JSON object, got list"),
            ("estimate", [["a", "b"]], "{path} must be a JSON object, got list"),
            # So did an entry that is not an object.
            ("crra-table", {"lotteries": [5]}, "a lottery must be a JSON object, got int"),
            ("satisficing", {"thresholds": [5]}, "a threshold must be a JSON object, got int"),
            # A missing key was printed alone, as "error: 'items'".
            ("mm", {"gamma": [[0.2, 0.3]]}, "missing key 'items'"),
            ("satisficing", {"thresholds": [{"mean": 1.0}]}, "missing key 'sd'"),
            ("satisficing", {"thresholds": [{"type": "uniform"}]},
             "unknown threshold type 'uniform'"),
            ("satisficing", {"search_orders": {"orders": [["x", "y"]]}}, "missing key 'probs'"),
            ("crra-table", {"lotteries": [{"label": "a"}]}, "missing key 'outcomes'"),
            ("estimate", {"items": ["a", "b"]}, "missing key 'orderings'"),
            # Outcomes of the wrong shape ended in tracebacks; strings and bools were numbers.
            ("crra-table", {"lotteries": [{"label": "a", "outcomes": [[50, 0.5, 1]]}]},
             "a lottery needs (payoff, probability) pairs, got [[50, 0.5, 1]]"),
            ("crra-table", {"lotteries": [{"label": "a", "outcomes": [[50]]}]},
             "a lottery needs (payoff, probability) pairs, got [[50]]"),
            ("crra-table", {"lotteries": [{"label": "a", "outcomes": [[None, 1.0]]}]},
             "lottery outcomes must be numbers, got [[None, 1.0]]"),
            ("crra-table", {"lotteries": [{"label": "a", "outcomes": [["50", 0.5], [0, 0.5]]}]},
             "lottery outcomes must be numbers, got [['50', 0.5], [0, 0.5]]"),
            ("crra-table", {"lotteries": [{"label": "a", "outcomes": [[True, 0.5], [0, 0.5]]}]},
             "lottery outcomes must be numbers, got [[True, 0.5], [0, 0.5]]"),
            ("crra-table", {"lotteries": [{"label": 5, "outcomes": [[50, 1.0]]}]},
             "a lottery label must be a string, got 5"),
            # A list-valued key holding a number ended in "'int' object is not
            # iterable"; a string ordering was read as its characters.
            ("crra-table", {"lotteries": 5}, "lotteries must be a JSON list, got int"),
            ("satisficing", {"thresholds": 5}, "thresholds must be a JSON list, got int"),
            ("estimate", {"orderings": 5}, "orderings must be a JSON list, got int"),
            ("estimate", {"orderings": [5]}, "an ordering must be a JSON list, got int"),
            ("estimate", {"orderings": ["ab"]}, "an ordering must be a JSON list, got str"),
        ],
    )
    def test_json_of_the_wrong_shape_is_exit_one(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "doc.json"
        satisficing = {"items": ["x", "y"], "utilities": [1, 2], "n_draws": 10,
                       "thresholds": [{"type": "fixed", "value": 1.5}]}
        path.write_text(json.dumps({**satisficing, **doc} if command == "satisficing" else doc))
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b\n1,0.5,0.5\n")
        args = {
            "mm": ["generate", "--model", "mm", "--config", path, "--out", tmp_path / "o.csv"],
            "satisficing": ["generate", "--model", "satisficing", "--config", path,
                            "--out", tmp_path / "o.csv"],
            "crra-table": ["crra-table", "--lotteries", path],
            "estimate": ["estimate", "--pi", pi, "--no-outside", "--orderings", path],
        }[command]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "command, value",
        [("test", "nan"), ("test", "abc"), ("survive", "nan"), ("survive", "inf"),
         ("survive", "-1e-9")],
    )
    def test_bad_tau_or_tol_is_exit_one(self, tmp_path, capsys, command, value):
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b\n1,0.5,0.5\n2,0.25,0.75\n")
        counts = tmp_path / "counts.csv"
        counts.write_text("period,count\n1,50\n2,50\n")
        args = {
            "test": ["test", "--pi", pi, "--counts", counts, "--no-outside",
                     "--orderings", "full", f"--tau={value}"],
            "survive": ["survive", "--pi", pi, f"--tol={value}"],
        }[command]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("tol", [["--tol", "-1e-9"], ["--tol=-1e-9"]])
    def test_negative_exponent_reaches_the_tol_check(self, tmp_path, capsys, tol):
        """``-1e-9`` is a value, not an option, so ``survive`` rejects it as a tolerance."""
        pi = tmp_path / "pi.csv"
        pi.write_text("period,a,b\n1,0.5,0.5\n2,0.25,0.75\n")
        assert run(["survive", "--pi", pi, *tol]) == 1
        err = capsys.readouterr().err
        assert err == "error: tol must be finite and nonnegative, got -1e-09\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["survive", "--tol", "abc"],
            ["survive", "--tol", "-1e"],
            ["estimate", "--sims", "many"],
            ["estimate", "--seed", "1.5"],
            ["test", "--counts", "counts.csv", "--boot", "x"],
            ["test", "--counts", "counts.csv", "--alpha", "five"],
        ],
    )
    def test_malformed_number_is_exit_one(self, capsys, args):
        """Argparse's own rejections are validation problems, not numerical failures."""
        with pytest.raises(SystemExit) as exc:
            run(args[:1] + ["--pi", "pi.csv"] + args[1:])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: timedchoice {args[0]} ")
        assert f"\nerror: argument {args[-2]}: " in err
        assert "Traceback" not in err


class TestParser:
    @pytest.fixture
    def pi_path(self, tmp_path):
        path = tmp_path / "pi.csv"
        path.write_text("period,a,b,c\n1,0.5,0.3,0.2\n2,0.2,0.5,0.3\n")
        return path

    def test_built_once_per_process(self, pi_path, capsys, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            assert run(["survive", "--pi", pi_path]) == 0
        assert progs.count("timedchoice") <= 1

    def test_reuse_after_a_usage_error(self, pi_path, capsys):
        assert run(["survive", "--pi", pi_path]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run(["survive"])
        assert exc.value.code == 1
        assert "required: --pi" in capsys.readouterr().err
        assert run(["survive", "--pi", pi_path]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_model_commands_share_options(self, command):
        extra = ["--counts", "c.csv"] if command == "test" else []
        shared = ["--pi", "p.csv", "--orderings", "full", "--sims", "7", "--seed", "3",
                  "--outside", "o", "--out", "r.json"]
        args = cli.build_parser().parse_args([command, *shared, *extra])
        assert (args.pi, args.orderings, args.sims, args.seed, args.outside, args.no_outside,
                args.out) == ("p.csv", "full", 7, 3, "o", False, "r.json")
        args = cli.build_parser().parse_args([command, "--pi", "p.csv", "--no-outside", *extra])
        assert (args.orderings, args.sims, args.seed, args.outside, args.no_outside,
                args.out) == ("crra", 1000, 0, None, True, None)

    @pytest.mark.parametrize("outside", ["a", "b", "lO"])
    def test_full_orderings_rank_the_outside_item_last(self, tmp_path, capsys, outside):
        menu = tc.Menu(items=("a", "b", "lO", "c"))
        pi = tc.ChoiceDataset(pi=np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]]))
        pi_path = tmp_path / "pi.csv"
        dataio.write_pi_csv(pi_path, pi, menu)
        out = tmp_path / "est.json"
        assert run(["estimate", "--pi", pi_path, "--orderings", "full", "--outside", outside,
                    "--sims", 2, "--out", out]) == 0
        got = [e["ordering"] for e in json.loads(out.read_text())["preference_weights"]]
        rest = [x for x in menu.items if x != outside]
        assert got == [[*p, outside] for p in itertools.permutations(rest)]
