"""Statistical racing."""

import random

import pytest

from repro.tuning.race import race

# Elimination has a defined answer on tied and near-tied costs, so no
# numerical warning may escape it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _noisy_evaluator(true_costs, sigma=0.02, seed=0):
    rng = random.Random(seed)

    def evaluate(config, instance):
        return true_costs[config["id"]] + rng.gauss(0, sigma)

    return evaluate


class TestRace:
    def test_eliminates_clearly_inferior_configs(self):
        configs = [{"id": i} for i in range(6)]
        true_costs = {0: 0.1, 1: 0.12, 2: 0.5, 3: 0.6, 4: 0.7, 5: 0.9}
        result = race(
            configs,
            instances=list(range(30)),
            evaluate=_noisy_evaluator(true_costs),
            first_test=4,
        )
        assert result.survivors[0] in (0, 1)
        assert len(result.survivors) < 6
        assert set(result.eliminated_after) & {2, 3, 4, 5}

    def test_ttest_variant_also_eliminates(self):
        configs = [{"id": i} for i in range(4)]
        true_costs = {0: 0.1, 1: 0.8, 2: 0.9, 3: 0.85}
        result = race(
            configs,
            instances=list(range(30)),
            evaluate=_noisy_evaluator(true_costs),
            first_test=4,
            test="ttest",
        )
        assert result.survivors[0] == 0
        assert len(result.survivors) < 4

    def test_min_survivors_respected(self):
        configs = [{"id": i} for i in range(5)]
        true_costs = {0: 0.1, 1: 0.9, 2: 0.9, 3: 0.9, 4: 0.9}
        result = race(
            configs,
            instances=list(range(40)),
            evaluate=_noisy_evaluator(true_costs),
            first_test=3,
            min_survivors=3,
        )
        assert len(result.survivors) >= 3

    def test_budget_bounds_evaluations(self):
        configs = [{"id": i} for i in range(5)]
        true_costs = {i: 0.5 for i in range(5)}
        result = race(
            configs,
            instances=list(range(100)),
            evaluate=_noisy_evaluator(true_costs),
            budget=37,
        )
        assert result.evaluations <= 37

    def test_identical_configs_not_eliminated(self):
        configs = [{"id": i} for i in range(3)]
        result = race(
            configs,
            instances=list(range(12)),
            evaluate=lambda c, i: 0.5,
            first_test=3,
        )
        assert len(result.survivors) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            race([], [1], lambda c, i: 0.0)
        with pytest.raises(ValueError):
            race([{}], [], lambda c, i: 0.0)
        with pytest.raises(ValueError):
            race([{}], [1], lambda c, i: 0.0, test="anova")

    def test_early_exit_stops_lone_candidate_after_one_instance(self):
        """A lone survivor has already won: the remaining instance block
        is never evaluated (regression for the full-block walk the old
        loop performed)."""
        calls = []

        def evaluate(config, instance):
            calls.append(instance)
            return 0.5

        result = race([{"id": 0}], instances=list(range(10)),
                      evaluate=evaluate)
        assert result.survivors == [0]
        assert result.instances_used == 1 and result.evaluations == 1
        assert calls == [0]

    def test_early_exit_false_restores_full_block(self):
        result = race([{"id": 0}], instances=list(range(10)),
                      evaluate=lambda c, i: 0.5, early_exit=False)
        assert result.instances_used == 10 and result.evaluations == 10

    def test_early_exit_after_elimination_to_min_survivors_one(self):
        configs = [{"id": i} for i in range(4)]
        true_costs = {0: 0.1, 1: 0.8, 2: 0.9, 3: 0.85}
        kwargs = dict(
            instances=list(range(30)),
            evaluate=_noisy_evaluator(true_costs),
            first_test=4, min_survivors=1, test="ttest",
        )
        early = race(configs, **kwargs)
        full = race(configs, early_exit=False, **kwargs)
        assert early.survivors == [0] == full.survivors
        assert early.instances_used < 30
        assert full.instances_used == 30
        assert early.eliminated_after == full.eliminated_after

    def test_early_exit_identical_across_modes(self):
        def evaluate(config, instance):
            return 0.1 * config["id"] + 0.01 * instance

        records = []
        for mode in ("sync", "async"):
            result = race([{"id": 0}], instances=list(range(8)),
                          evaluate=evaluate, mode=mode, poll_interval=0.0)
            records.append(result.decision_record())
        assert records[0] == records[1]
        assert records[0]["instances_used"] == 1

    def test_survivors_ordered_by_mean_cost(self):
        configs = [{"id": i} for i in range(4)]
        true_costs = {0: 0.4, 1: 0.2, 2: 0.3, 3: 0.1}
        result = race(
            configs,
            instances=list(range(8)),
            evaluate=_noisy_evaluator(true_costs, sigma=0.0),
            first_test=9,  # no elimination: pure evaluation
        )
        means = [result.mean_costs[i] for i in result.survivors]
        assert means == sorted(means)
        assert result.survivors[0] == 3
