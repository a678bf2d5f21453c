"""Differential and cache tests for the worst-case-optimal executor.

The contract under test: ``strategy="wcoj"`` —
:func:`repro.query.wcoj.execute_wcoj` behind the shared compiled-runtime
surface — produces **bit-identical answer sets** to the ``nested`` and
``hash`` executors and to the authoritative
:class:`~repro.core.homomorphism.HomomorphismProblem` oracle, on random
cyclic CQs, the spider corpus, fix/frozen/rigid/repeated-variable bodies
and the engine's delta seed-window discipline (serial and ``workers=2``);
and the sorted-trie cache extends along the watermark and invalidates on
index rebuilds without ever corrupting a suspended evaluation.
"""

import random

import pytest

from repro.chase import chase, parse_tgds
from repro.core.atoms import Atom
from repro.core.homomorphism import HomomorphismProblem
from repro.core.structure import Structure
from repro.core.terms import Constant, Variable
from repro.engine import AtomIndex, make_engine, run_chase
from repro.engine.delta import compiled_delta_matches, select_delta_executor
from repro.greenred.coloring import Color, dalt_structure
from repro.query import (
    EvalContext,
    all_homomorphisms,
    compiled_for,
    execute,
    execute_hash,
    execute_nested,
    execute_wcoj,
    iter_homomorphisms,
    trie_cache_for,
)
from repro.spiders.anatomy import add_real_spider
from repro.spiders.ideal import IdealSpider, SpiderUniverse
from repro.spiders.queries import spider_query_matches, unary_query_body
from repro.spiders.algebra import SpiderQuerySpec

from delta_oracle import reference_delta_matches

STRATEGIES = ("nested", "hash", "wcoj")


def canonical(assignments):
    return frozenset(
        frozenset((repr(k), repr(v)) for k, v in a.items()) for a in assignments
    )


def assert_all_strategies_match_oracle(body, target, fix=None, frozen=()):
    """Every executor must reproduce the reference solution set exactly."""
    oracle = canonical(
        HomomorphismProblem(list(body), target, fix=dict(fix or {}), frozen=frozen)
        .solutions()
    )
    context = EvalContext()
    for strategy in STRATEGIES + ("auto",):
        got = canonical(
            iter_homomorphisms(
                list(body),
                target,
                fix=dict(fix or {}),
                frozen=frozen,
                context=context,
                strategy=strategy,
            )
        )
        assert got == oracle, f"strategy={strategy}"
    return oracle


def random_graph(rng, nodes, edges, predicate="R"):
    chosen = set()
    while len(chosen) < edges:
        chosen.add((rng.randrange(nodes), rng.randrange(nodes)))
    return Structure(
        [Atom(predicate, (f"n{a}", f"n{b}")) for a, b in sorted(chosen)]
    )


# ----------------------------------------------------------------------
# Differential property suite: random cyclic CQs and curated shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_random_cyclic_cqs_match_oracle_under_every_executor(seed):
    """Random bodies with cycles, repeats and shared variables vs the oracle."""
    rng = random.Random(1000 + seed)
    target = random_graph(rng, rng.randint(8, 16), rng.randint(20, 60))
    pool = [Variable(name) for name in ("x", "y", "z", "w")]
    body = []
    for _ in range(rng.randint(3, 5)):
        body.append(
            Atom("R", (rng.choice(pool), rng.choice(pool)))
        )
    assert_all_strategies_match_oracle(body, target)


def test_triangle_and_four_clique_match_oracle():
    rng = random.Random(42)
    target = random_graph(rng, 30, 180)
    x, y, z, w = (Variable(n) for n in "xyzw")
    triangle = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    oracle = assert_all_strategies_match_oracle(triangle, target)
    assert oracle  # the config is dense enough to actually have triangles
    clique = [
        Atom("R", (x, y)), Atom("R", (x, z)), Atom("R", (x, w)),
        Atom("R", (y, z)), Atom("R", (y, w)), Atom("R", (z, w)),
    ]
    assert_all_strategies_match_oracle(clique, target)


def test_fix_frozen_rigid_and_repeated_variables():
    """The full pre-binding surface: fix images, frozen elements, constants,
    self-loop repeats — the compiled-program features the trie filters and
    pre-bound seek levels must honour."""
    c = Constant("c")
    atoms = [
        Atom("R", ("a", "b")), Atom("R", ("b", "a")), Atom("R", ("a", "a")),
        Atom("R", ("b", c)), Atom("R", (c, "a")), Atom("R", ("b", "d")),
        Atom("R", ("d", c)),
    ]
    target = Structure(atoms)
    x, y, z = (Variable(n) for n in "xyz")
    # Cyclic body with a self-loop repeat and a rigid constant.
    body = [Atom("R", (x, x)), Atom("R", (x, y)), Atom("R", (y, z)),
            Atom("R", (z, x)), Atom("R", (y, c))]
    assert_all_strategies_match_oracle(body, target)
    # fix: pre-bound images become leading seek levels.
    body = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    assert_all_strategies_match_oracle(body, target, fix={x: "a"})
    assert_all_strategies_match_oracle(body, target, fix={x: "zzz-missing"})
    # frozen elements must map to themselves.
    body = [Atom("R", ("a", y)), Atom("R", (y, "a"))]
    assert_all_strategies_match_oracle(body, target, frozen=("a",))


def test_spider_corpus_differential():
    """The paper's own query corpus under all three executors."""
    universe = SpiderUniverse(("1", "2"))
    structure = Structure(domain=())
    species = []
    for upper in (None, "1", "2"):
        for lower in (None, "1"):
            species.append(IdealSpider(Color.GREEN, upper, lower))
            species.append(IdealSpider(Color.RED, upper, lower))
    for index, kind in enumerate(species):
        add_real_spider(
            structure, universe, kind, f"t{index % 3}", f"ant{index}",
            vertex_prefix=f"sp{index}",
        )
    corpus = dalt_structure(structure)
    spec = SpiderQuerySpec(upper="1", lower="1")
    body = unary_query_body(universe, spec, prefix="s")
    oracle = canonical(
        HomomorphismProblem(list(body.atoms), corpus).solutions()
    )
    for strategy in STRATEGIES:
        context = EvalContext(default_strategy=strategy)
        got = canonical(spider_query_matches(universe, spec, corpus, context=context))
        assert got == oracle, f"strategy={strategy}"


def test_empty_and_unsatisfiable_bodies():
    target = Structure([Atom("R", ("a", "b"))])
    context = EvalContext()
    x, y, z = (Variable(n) for n in "xyz")
    assert list(iter_homomorphisms([], target, context=context, strategy="wcoj")) == [{}]
    triangle = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    assert (
        list(iter_homomorphisms(triangle, target, context=context, strategy="wcoj"))
        == []
    )
    # A predicate the index has never seen.
    assert (
        list(
            iter_homomorphisms([Atom("S", (x, y))], target, context=context,
                               strategy="wcoj")
        )
        == []
    )


# ----------------------------------------------------------------------
# Strategy dispatch and auto-selection
# ----------------------------------------------------------------------
def test_unknown_strategy_is_rejected_before_dispatch():
    rng = random.Random(3)
    target = random_graph(rng, 40, 300)
    context = EvalContext()
    index = context.index_for(target)
    x, y, z = (Variable(n) for n in "xyz")
    triangle = (Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x)))
    compiled = compiled_for(index, triangle, frozenset())
    # The shape recommends the hash join, but an unknown name must fail the
    # validation *before* any executor branch is considered — and the error
    # must advertise the full strategy surface, wcoj included.
    assert compiled.hash_recommended
    with pytest.raises(ValueError, match="wcoj"):
        execute(compiled, index, compiled.fresh_registers(), strategy="hsah")
    with pytest.raises(ValueError, match="nested"):
        list(iter_homomorphisms(list(triangle), target, context=context,
                                strategy="bogus"))


def test_auto_upgrades_large_cyclic_bodies_to_wcoj():
    rng = random.Random(5)
    x, y, z = (Variable(n) for n in "xyz")
    triangle = (Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x)))
    big = random_graph(rng, 40, 300)
    index = EvalContext().index_for(big)
    compiled = compiled_for(index, triangle, frozenset())
    assert compiled.cyclic
    assert compiled.wcoj_recommended
    # Small cyclic bodies stay below the threshold; acyclic ones never
    # recommend the generic join at all.
    small = random_graph(rng, 8, 20)
    index = EvalContext().index_for(small)
    compiled = compiled_for(index, triangle, frozenset())
    assert compiled.cyclic and not compiled.wcoj_recommended
    path = (Atom("R", (x, y)), Atom("R", (y, z)))
    index = EvalContext().index_for(big)
    compiled = compiled_for(index, path, frozenset())
    assert not compiled.cyclic and not compiled.wcoj_recommended


def test_context_default_strategy_is_threaded_through():
    rng = random.Random(6)
    target = random_graph(rng, 20, 80)
    x, y, z = (Variable(n) for n in "xyz")
    triangle = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    oracle = canonical(HomomorphismProblem(triangle, target).solutions())
    context = EvalContext(default_strategy="wcoj")
    got = canonical(all_homomorphisms(triangle, target, context=context))
    assert got == oracle
    # The wcoj trie cache was actually exercised (not a silent fallback).
    index = context.index_for(target)
    assert index.trie_cache is not None and index.trie_cache.builds > 0


# ----------------------------------------------------------------------
# Trie cache: growth extension, rebuild invalidation, snapshot safety
# ----------------------------------------------------------------------
def _triangle_solutions(context, target, strategy="wcoj"):
    x, y, z = (Variable(n) for n in "xyz")
    triangle = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    return canonical(
        iter_homomorphisms(triangle, target, context=context, strategy=strategy)
    )


def test_trie_cache_extends_on_growth_and_invalidates_on_rebuild():
    rng = random.Random(9)
    target = random_graph(rng, 12, 40)
    context = EvalContext()
    x, y, z = (Variable(n) for n in "xyz")
    triangle = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    first = _triangle_solutions(context, target)
    index = context.index_for(target)
    cache = trie_cache_for(index)
    builds = cache.builds
    assert builds > 0 and cache.extensions == 0
    # Repeated evaluation against the unchanged snapshot: pure hits (served
    # by the compiled query's preamble cache or the trie cache, never a new
    # build).
    assert _triangle_solutions(context, target) == first
    assert cache.builds == builds
    # Growth: close one new triangle; the cached tries must be *extended*
    # (merge of the appended stamp window), not rebuilt.
    target.add_atom(Atom("R", ("g1", "g2")))
    target.add_atom(Atom("R", ("g2", "g3")))
    target.add_atom(Atom("R", ("g3", "g1")))
    grown = _triangle_solutions(context, target)
    assert cache.extensions > 0
    assert grown == canonical(
        HomomorphismProblem(triangle, target).solutions()
    )
    assert grown > first  # strictly more solutions: the new triangle showed up
    # Rebuild: removing an atom bumps the index's rebuild counter and must
    # drop every cached trie (posting rows were replaced wholesale).
    removed = Atom("R", ("g3", "g1"))
    target.remove_atom(removed)
    after_rebuild = _triangle_solutions(context, target)
    assert cache.invalidations > 0
    assert after_rebuild == canonical(
        HomomorphismProblem(triangle, target).solutions()
    )
    assert after_rebuild == first


def test_suspended_wcoj_generator_survives_growth():
    """Extension must never mutate a row list a paused evaluation captured."""
    rng = random.Random(11)
    target = random_graph(rng, 10, 40)
    context = EvalContext()
    x, y, z = (Variable(n) for n in "xyz")
    triangle = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    expected = canonical(HomomorphismProblem(triangle, target).solutions())
    suspended = iter_homomorphisms(triangle, target, context=context,
                                   strategy="wcoj")
    collected = []
    first = next(suspended, None)
    if first is not None:
        collected.append(dict(first))
    # Grow the structure (extends the cached tries under a new snapshot key)
    # and run a fresh evaluation while the old generator is still paused.
    target.add_atom(Atom("R", ("h1", "h2")))
    target.add_atom(Atom("R", ("h2", "h3")))
    target.add_atom(Atom("R", ("h3", "h1")))
    _ = _triangle_solutions(context, target)
    collected.extend(dict(s) for s in suspended)
    # The paused generator saw exactly its own snapshot: no new-triangle
    # solutions, no duplicates, nothing lost.
    assert canonical(collected) == expected


def test_wcoj_matches_nested_on_delta_seed_windows():
    """Seeded (delta-window) compiled queries: wcoj == nested, window by window."""
    tgds = parse_tgds(
        "R(x,y), R(y,z), R(z,x) -> T(x,y,z)",
        "R(x,y), R(y,z) -> R(x,z)",
    )
    rng = random.Random(13)
    target = random_graph(rng, 8, 24)
    index = AtomIndex(target)
    stage_start = index.watermark()
    # Split the prefix in half so all four window tags are exercised.
    delta_lo = stage_start // 2
    for tgd in tgds:
        reference = canonical(
            reference_delta_matches(tgd, index, delta_lo, stage_start)
        )
        for strategy in ("nested", "hash", "wcoj", "auto"):
            got = canonical(
                compiled_delta_matches(
                    tgd, index, delta_lo, stage_start, strategy=strategy
                )
            )
            assert got == reference, f"{tgd.name} strategy={strategy}"
        # Seed sub-windows partition the match set under wcoj exactly as
        # they do under nested (the parallel pool's splitting invariant).
        mid = (delta_lo + stage_start) // 2
        left = canonical(
            compiled_delta_matches(tgd, index, delta_lo, stage_start,
                                   seed_window=(delta_lo, mid), strategy="wcoj")
        )
        right = canonical(
            compiled_delta_matches(tgd, index, delta_lo, stage_start,
                                   seed_window=(mid, stage_start), strategy="wcoj")
        )
        assert left | right == reference
        assert not (left & right)


def test_select_delta_executor_dispatch():
    rng = random.Random(15)
    target = random_graph(rng, 40, 300)
    index = AtomIndex(target)
    x, y, z = (Variable(n) for n in "xyz")
    triangle = (Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x)))
    compiled = compiled_for(index, triangle, frozenset(), seed=0)
    assert select_delta_executor(compiled, "nested") is execute_nested
    assert select_delta_executor(compiled, "hash") is execute_hash
    assert select_delta_executor(compiled, "wcoj") is execute_wcoj
    assert select_delta_executor(compiled, "auto") is execute_wcoj
    path = (Atom("R", (x, y)), Atom("R", (y, z)))
    acyclic = compiled_for(index, path, frozenset(), seed=0)
    assert select_delta_executor(acyclic, "auto") is execute_nested
    with pytest.raises(ValueError, match="wcoj"):
        select_delta_executor(compiled, "leapfrog")


# ----------------------------------------------------------------------
# Engine bit-identity under WCOJ delta matching (serial and parallel)
# ----------------------------------------------------------------------
def _cyclic_rules_and_instance(seed):
    rng = random.Random(seed)
    tgds = parse_tgds(
        "R(x,y), R(y,z), R(z,x) -> S(x,z)",
        "R(x,y), S(y,z) -> R(x,z)",
        "S(x,y), S(y,z), S(z,x) -> R(y,x)",
    )
    nodes = rng.randint(4, 7)
    facts = set()
    for _ in range(rng.randint(8, 18)):
        facts.add(
            Atom("R", (f"e{rng.randrange(nodes)}", f"e{rng.randrange(nodes)}"))
        )
    return tgds, Structure(sorted(facts, key=repr))


def assert_chase_bits_equal(expected, produced, label):
    assert produced.stages_run == expected.stages_run, label
    assert produced.reached_fixpoint == expected.reached_fixpoint, label
    assert produced.structure.atoms() == expected.structure.atoms(), label
    assert produced.structure.domain() == expected.structure.domain(), label
    assert len(produced.provenance) == len(expected.provenance), label
    for expected_step, produced_step in zip(expected.provenance, produced.provenance):
        assert produced_step.trigger == expected_step.trigger, label
        assert produced_step.new_atoms == expected_step.new_atoms, label


@pytest.mark.parametrize("seed", range(4))
def test_chase_is_bit_identical_under_wcoj_matching(seed):
    tgds, instance = _cyclic_rules_and_instance(seed)
    reference = chase(tgds, instance, 3, 400)
    for match_strategy in ("wcoj", "auto"):
        produced = run_chase(
            tgds, instance, 3, 400, match_strategy=match_strategy
        )
        assert_chase_bits_equal(
            reference, produced, f"match_strategy={match_strategy} seed={seed}"
        )


def test_chase_is_bit_identical_under_wcoj_with_workers():
    tgds, instance = _cyclic_rules_and_instance(99)
    reference = chase(tgds, instance, 3, 400)
    produced = run_chase(
        tgds, instance, 3, 400, workers=2, match_strategy="wcoj"
    )
    assert_chase_bits_equal(reference, produced, "workers=2 wcoj")


def test_reference_engine_rejects_match_strategy():
    tgds = parse_tgds("R(x,y) -> R(y,x)")
    with pytest.raises(ValueError, match="match strategies"):
        make_engine("reference", tgds, match_strategy="wcoj")
    # "nested" (the no-op value) stays accepted for config-driven callers.
    make_engine("reference", tgds, match_strategy="nested")


def test_wcoj_state_does_not_survive_watermark_preserving_rebuild():
    """The wcoj sibling of the nested/hash preamble traps in
    ``test_query_eval.py``: removing the only atom rebuilds the index with
    zero re-inserts, so the watermark is unchanged while every posting list
    (and thus every trie row) went stale — both the per-compiled-query
    preamble and the trie cache must be dropped via the rebuild counter."""
    target = Structure([Atom("R", ("a", "b"))])
    context = EvalContext()
    index = context.index_for(target)
    x, y = Variable("x"), Variable("y")
    compiled = compiled_for(index, (Atom("R", (x, y)),), frozenset())
    hi = index.watermark()
    assert (
        len(list(execute_wcoj(compiled, index, compiled.fresh_registers(), hi=hi)))
        == 1
    )
    target.remove_atom(Atom("R", ("a", "b")))
    assert index.watermark() == hi  # same hi, rebuilt tables
    assert (
        list(
            execute_wcoj(
                compiled, index, compiled.fresh_registers(), hi=index.watermark()
            )
        )
        == []
    )
    target.add_atom(Atom("R", ("c", "d")))
    assert (
        len(
            list(
                execute_wcoj(
                    compiled, index, compiled.fresh_registers(), hi=index.watermark()
                )
            )
        )
        == 1
    )


def test_eval_context_rejects_unknown_default_strategy():
    with pytest.raises(ValueError, match="wcoj"):
        EvalContext(default_strategy="wcjo")
    for name in ("auto", "nested", "hash", "wcoj"):
        assert EvalContext(default_strategy=name).default_strategy == name
