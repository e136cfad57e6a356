import json

import numpy as np
import pytest

import timedchoice as tc
from timedchoice import dataio
from timedchoice.cli import main


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
