import json

import numpy as np
import pytest

import timedchoice as tc
from timedchoice import dataio
from timedchoice.errors import ValidationError


class TestPiCsv:
    def test_round_trip(self, tmp_path, menu3):
        pi = tc.ChoiceDataset(
            pi=np.array([[0.25, 0.5, 0.25], [0.1, 0.2, 0.7]]),
            period_labels=("early", "late"),
        )
        path = tmp_path / "pi.csv"
        dataio.write_pi_csv(path, pi, menu3)
        loaded, menu = dataio.read_pi_csv(path)
        np.testing.assert_array_equal(loaded.pi, pi.pi)
        assert loaded.period_labels == ("early", "late")
        assert menu.items == menu3.items

    def test_full_precision_round_trip(self, tmp_path, menu2):
        values = np.array([[1 / 3, 2 / 3], [0.1234567890123456, 0.8765432109876544]])
        pi = tc.ChoiceDataset(pi=values)
        path = tmp_path / "pi.csv"
        dataio.write_pi_csv(path, pi, menu2)
        loaded, _ = dataio.read_pi_csv(path)
        np.testing.assert_array_equal(loaded.pi, values)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "pi.csv"
        path.write_text("period,a,b\n1,0.5,0.5\n\n2,0.25,0.75\n\n")
        dataset, _ = dataio.read_pi_csv(path)
        np.testing.assert_array_equal(dataset.pi, [[0.5, 0.5], [0.25, 0.75]])
        assert dataset.period_labels == ("1", "2")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pi.csv"
        path.write_text("wrong,a,b\n1,0.5,0.5\n")
        with pytest.raises(ValidationError):
            dataio.read_pi_csv(path)


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.csv"
        dataio.write_counts_csv(path, (10, 20, 30))
        assert dataio.read_counts_csv(path) == (10, 20, 30)

    def test_header_check(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            dataio.read_counts_csv(path)


class TestObservationsCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "respondent_id,stopping_time,choice\nr1,0,a\nr2,3.5,b\n"
        )
        observations = dataio.read_observations_csv(path)
        assert len(observations) == 2
        assert observations[1].stopping_time == 3.5
        assert observations[1].choice == "b"

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("id,time\n1,2\n")
        with pytest.raises(ValidationError):
            dataio.read_observations_csv(path)


class TestJsonDocuments:
    def test_orderings_round_trip(self, menu3, orderings3):
        doc = dataio.orderings_to_json(orderings3, menu3)
        assert doc["schema_version"] == dataio.SCHEMA_VERSION
        back = dataio.orderings_from_json(doc, menu3)
        assert tuple(o.rank for o in back) == tuple(o.rank for o in orderings3)

    def test_lotteries_round_trip(self):
        lots = tc.experiment_lotteries()
        doc = dataio.lotteries_to_json(lots)
        back = dataio.lotteries_from_json(doc)
        assert back == lots

    def test_estimation_document(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3))
        result = tc.estimate(
            pi, menu3, orderings3, 5, tc.SamplerConfig(d_t=3, seed=1, outside_mode=False)
        )
        doc = dataio.estimation_to_json(result, menu3, orderings3)
        assert doc["schema_version"] == dataio.SCHEMA_VERSION
        weights = [entry["weight"] for entry in doc["preference_weights"]]
        assert sum(weights) == pytest.approx(1.0)
        json.dumps(doc)  # serializable

    def test_rule_csv(self, tmp_path, menu3, orderings3):
        rule = tc.sample_attention_rule(
            menu3, orderings3, tc.SamplerConfig(d_t=2, seed=0, outside_mode=False)
        )
        path = tmp_path / "rule.csv"
        dataio.write_rule_csv(path, rule, menu3)
        header = path.read_text().splitlines()[0]
        assert header.startswith("period,pref0|a,")
        assert header.count("|") == rule.u.shape[1]

    @pytest.mark.parametrize("outside_mode", [False, True])
    def test_rule_csv_header_names_each_set_by_its_bits(self, tmp_path, outside_mode):
        menu = tc.Menu(items=("a", "o", "b", "c"), outside_index=1)
        rule = tc.gen_topn(menu, 2, ("o", "c", "a", "b"), d_pref=2, outside_mode=outside_mode)
        path = tmp_path / "rule.csv"
        dataio.write_rule_csv(path, rule, menu)
        want = [
            f"pref{i}|" + "+".join(menu.items[b] for b in range(4) if mask >> b & 1)
            for i in range(2) for mask in rule.set_index.masks
        ]
        assert path.read_text().splitlines()[0].split(",") == ["period", *want]


class TestBundledData:
    def test_experiment_dataset_shape(self, experiment_data):
        pi, menu = experiment_data
        assert pi.pi.shape == (6, 6)
        assert menu.items == ("l1", "l2", "l3", "l4", "l5", "lO")
        assert menu.outside_index == 5

    def test_first_period_all_outside(self, experiment_data):
        pi, _ = experiment_data
        np.testing.assert_array_equal(pi.pi[0], [0, 0, 0, 0, 0, 1])

    def test_rows_sum_exactly_to_one(self, experiment_data):
        pi, _ = experiment_data
        np.testing.assert_array_equal(pi.pi.sum(axis=1), np.ones(6))

    def test_known_cells(self, experiment_data):
        pi, _ = experiment_data
        assert pi.pi[1, 0] == pytest.approx(14 / 98)
        assert pi.pi[4, 3] == pytest.approx(2 / 96)
        assert pi.pi[5, 1] == pytest.approx(31 / 100)
        assert pi.period_counts == (25, 98, 98, 98, 96, 100)
