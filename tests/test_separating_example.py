"""Tests for the separating example of Section VII (Figures 1–4, Theorem 14)."""

import pytest

from repro.greengraph import words
from repro.separating import (
    ALPHA,
    BETA0,
    BETA1,
    build_grid_on_merged_paths,
    build_grid_on_single_path,
    build_two_merged_paths,
    chase_t_infinity,
    expected_words,
    figure1_graph,
    grid_label,
    grid_rules,
    longest_alpha_beta_path_length,
    model_prefix,
    observed_words,
    pattern_stage_by_path_length,
    separating_rules,
    t_infinity_rules,
    words_match_paper,
)
from repro.greengraph.labels import ONE, TWO


def test_t_infinity_has_three_rules_and_grid_forty_one():
    assert len(t_infinity_rules()) == 3
    assert len(grid_rules()) == 41
    assert len(separating_rules()) == 44


def test_figure1_chase_applies_exactly_one_rule_per_stage():
    chase = chase_t_infinity(6)
    sizes = [len(s.atoms()) for s in chase.result.stage_snapshots]
    # Figure 1: chase_{i+1} is the result of exactly one rule application,
    # each adding two edges.
    assert sizes == [1 + 2 * i for i in range(len(sizes))]


def test_figure1_words_match_the_paper_language():
    observed = observed_words(8)
    assert observed
    assert observed <= expected_words(8)
    assert ("α", "η1") in observed
    assert ("α", "β1", "η0") in observed
    assert words_match_paper(8)


def test_figure1_alpha_beta_path_grows_with_chase_depth():
    assert longest_alpha_beta_path_length(4) < longest_alpha_beta_path_length(8)


def test_figure1_graph_has_no_one_two_pattern():
    assert not figure1_graph(8).contains_one_two_pattern()


def test_merged_paths_builder_shapes():
    graph, long_path, short_path = build_two_merged_paths(4, 2)
    assert long_path[0] == short_path[0]
    assert long_path[-1] == short_path[-1]
    assert len(long_path) > len(short_path)
    assert graph.contains_empty_edge()
    # The two β0 edges into the merged endpoint trigger the grid.
    merged_target = long_path[-1]
    incoming_beta0 = [e for e in graph.edges_with_label(BETA0) if e.target == merged_target]
    assert len(incoming_beta0) == 2


def test_merged_paths_builder_rejects_equal_lengths():
    with pytest.raises(ValueError):
        build_two_merged_paths(3, 3)


def test_grid_on_merged_paths_produces_one_two_pattern():
    report = build_grid_on_merged_paths(3, 2, max_stages=12)
    assert report.has_pattern
    assert report.one_edges > 0 and report.two_edges > 0
    assert report.foam_edges > 0


def test_grid_on_single_path_stays_pattern_free():
    report = build_grid_on_single_path(chase_stages=7, max_stages=12)
    assert not report.has_pattern


def test_longer_difference_still_produces_pattern():
    report = build_grid_on_merged_paths(4, 2, max_stages=16)
    assert report.has_pattern


def test_pattern_stage_on_merged_paths_is_the_first_pattern_stage():
    stages = pattern_stage_by_path_length(((3, 2), (4, 2), (5, 3)))
    assert stages == {(3, 2): 7, (4, 2): 9, (5, 3): 13}
    # The stage is found by bisection; check it against the stage snapshots.
    chase = build_grid_on_merged_paths(3, 2).chase
    before, at = (chase.stage_graph(k).contains_one_two_pattern() for k in (6, 7))
    assert (before, at) == (False, True)
    assert model_prefix(12).pattern_stage is None


def test_model_prefix_of_full_rule_set_is_pattern_free():
    report = model_prefix(6, max_atoms=60_000)
    assert not report.has_pattern


def test_grid_label_identifies_one_and_two():
    assert grid_label("n", "α", False, False) == ONE
    assert grid_label("w", "α", False, False) == TWO
    assert grid_label("n", "β", False, False) not in (ONE, TWO)


def test_grid_report_histogram_contains_skeleton_and_foam():
    report = build_grid_on_merged_paths(3, 2, max_stages=10)
    histogram = report.label_histogram()
    assert ALPHA.name in histogram
    assert BETA1.name in histogram
    assert any(name.startswith("⟨") for name in histogram)


def test_model_prefix_keeps_the_skeleton_language_alive():
    # The grid rules add foam but never α/β/η edges, so the characteristic
    # skeleton words of Figure 1 are still among the words of the prefix.
    prefix_words = words(model_prefix(6).graph, max_length=20)
    assert ("α", "η1") in prefix_words
    assert ("α", "β1", "η0") in prefix_words
