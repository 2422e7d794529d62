import numpy as np
import pytest

from minrel import (
    Dataset,
    InvalidInputError,
    RankingResult,
    average_position,
    compare_criteria,
    gen_combined,
    gen_relevance_suite_dataset,
    rank_variables,
)


def _product_with_noise(seed, m=100, noise=5):
    rng = np.random.default_rng(seed)
    b = rng.random(m)
    c = rng.random(m)
    columns = {"A": b * c, "B": b, "C": c}
    for i in range(noise):
        columns[f"N{i}"] = rng.random(m)
    return Dataset.from_columns(columns)


def test_rank_variables_excludes_target_and_sorts():
    ds = _product_with_noise(0)
    ranking = rank_variables(ds, "A", "max_iota_sq")
    assert ranking.target == "A"
    assert "A" not in ranking.names()
    assert len(ranking.ordered) == ds.n - 1
    scores = [score for _, score in ranking.ordered]
    assert scores == sorted(scores, reverse=True)


def test_compare_criteria_sorts_each_column_once(walks, sort_counter):
    for _ in walks:
        sort_counter.clear()
        bench = gen_relevance_suite_dataset(40, seed=3)
        record = compare_criteria(bench.dataset, bench.targets)
        # Three targets and two criteria all read the one Dataset.columns.
        assert len(record.outcomes) == 3
        assert sum(sort_counter) == bench.dataset.n


def test_rank_variables_majority_puts_factors_on_top():
    top_two_hits = 0
    for seed in range(50):
        ds = _product_with_noise(seed)
        ranking = rank_variables(ds, "A", "max_iota_sq")
        if set(ranking.names()[:2]) == {"B", "C"}:
            top_two_hits += 1
    assert top_two_hits > 25


def test_rank_variables_scores_equal_direct_coefficient_calls():
    from minrel import max_iota_sq, spearman

    ds = _product_with_noise(7, m=50)
    target = ds.column("A")
    rho_scores = dict(rank_variables(ds, "A", "rho2").ordered)
    iota_scores = dict(rank_variables(ds, "A", "max_iota_sq").ordered)
    for name in ds.names:
        if name == "A":
            continue
        assert rho_scores[name] == spearman(ds.column(name), target).value ** 2
        assert iota_scores[name] == max_iota_sq(ds.column(name), target)


def test_rank_variables_validation():
    ds = _product_with_noise(1)
    with pytest.raises(InvalidInputError, match="unknown column"):
        rank_variables(ds, "Z", "rho2")
    with pytest.raises(InvalidInputError, match="unknown criterion"):
        rank_variables(ds, "A", "pearson2")
    with pytest.raises(InvalidInputError) as raised:
        rank_variables(Dataset.from_columns({"A": [1.0, 2.0, 3.0]}), "A", "rho2")
    assert str(raised.value) == "ranking needs at least 2 columns"


def test_ranking_position_of_a_missing_name_is_rejected():
    ranking = rank_variables(_product_with_noise(1), "A", "rho2")
    assert ranking.position(ranking.names()[2]) == 3
    with pytest.raises(InvalidInputError) as raised:
        ranking.position("A")
    assert str(raised.value) == "column 'A' is not in the ranking"


def test_rank_variables_deterministic_tie_break():
    values = np.random.default_rng(3).normal(size=50)
    target = values + np.random.default_rng(4).normal(size=50)
    ds = Dataset.from_columns({"y": target, "dup1": values, "dup2": values})
    ranking = rank_variables(ds, "y", "rho2")
    # identical columns share a score; dataset order breaks the tie
    assert ranking.names() == ("dup1", "dup2")
    assert ranking.ordered[0][1] == ranking.ordered[1][1]
    again = rank_variables(ds, "y", "rho2")
    assert ranking == again


def test_combined_family_criteria_disagree_about_g():
    reps = 20
    rho_scores = {name: 0.0 for name in ("B", "C", "D", "E", "G")}
    iota_scores = {name: 0.0 for name in ("B", "C", "D", "E", "G")}
    for rep in range(reps):
        ds = gen_combined(1000, seed=300 + rep).dataset
        rho = rank_variables(ds, "A", "rho2")
        restricted = rank_variables(ds, "A", "iota_sq")
        rho_scores = {n: rho_scores[n] + dict(rho.ordered)[n] for n in rho_scores}
        iota_scores = {n: iota_scores[n] + dict(restricted.ordered)[n] for n in iota_scores}
    assert max(rho_scores, key=rho_scores.get) == "G"
    for factor in ("B", "C", "D"):
        assert iota_scores[factor] > iota_scores["G"]


def test_average_position_examples():
    ranking = RankingResult(
        target="t", criterion="rho2", ordered=(("v3", 0.9), ("v1", 0.5), ("v2", 0.1))
    )
    assert average_position(ranking, {"v1", "v2"}).avg_position == 2.5
    assert average_position(ranking, {"v3", "v1", "v2"}).avg_position == 2.0
    assert average_position(ranking, {"v3", "v1"}).avg_position == 1.5


def test_average_position_validation():
    ranking = RankingResult(target="t", criterion="rho2", ordered=(("v1", 0.5),))
    with pytest.raises(InvalidInputError, match="empty"):
        average_position(ranking, set())
    with pytest.raises(InvalidInputError, match="not in ranking"):
        average_position(ranking, {"v9"})


def test_average_position_ignores_non_relevant_labels():
    first = RankingResult(
        target="t", criterion="rho2", ordered=(("a", 3.0), ("keep", 2.0), ("b", 1.0))
    )
    relabeled = RankingResult(
        target="t", criterion="rho2", ordered=(("x", 3.0), ("keep", 2.0), ("y", 1.0))
    )
    assert (
        average_position(first, {"keep"}).avg_position
        == average_position(relabeled, {"keep"}).avg_position
    )


def test_compare_criteria_same_criterion_draws():
    ds = _product_with_noise(5)
    record = compare_criteria(
        ds, {"A": ("B", "C")}, criterion_a="rho2", criterion_b="rho2"
    )
    assert record.draws == 1 and record.wins == 0 and record.losses == 0


def test_compare_criteria_antisymmetry_and_totals():
    wins = losses = draws = 0
    for seed in range(10):
        ds = _product_with_noise(seed, m=60)
        forward = compare_criteria(ds, {"A": ("B", "C")})
        backward = compare_criteria(
            ds, {"A": ("B", "C")}, criterion_a="rho2", criterion_b="max_iota_sq"
        )
        assert forward.wins == backward.losses
        assert forward.losses == backward.wins
        assert forward.draws == backward.draws
        assert forward.wins + forward.losses + forward.draws == len(forward.outcomes) == 1
        wins += forward.wins
        losses += forward.losses
        draws += forward.draws
    assert wins + losses + draws == 10


def test_compare_criteria_constructed_rho_win():
    # relevant = the single best rho2 variable (G); rho2 gives it position 1,
    # the minrelation criterion ranks the factors above it.
    ds = gen_combined(1000, seed=8).dataset
    record = compare_criteria(
        ds, {"A": ("G",)}, criterion_a="rho2", criterion_b="max_iota_sq"
    )
    assert record.wins == 1
    assert record.outcomes[0].avg_position_a == 1.0


def test_compare_criteria_threshold_filters_targets():
    ds = _product_with_noise(9)
    record = compare_criteria(ds, {"A": ("B", "C"), "B": ("C",)}, min_relevant=2)
    assert [o.target for o in record.outcomes] == ["A"]
    with pytest.raises(InvalidInputError):
        compare_criteria(ds, {"A": ("B",)}, min_relevant=0)

