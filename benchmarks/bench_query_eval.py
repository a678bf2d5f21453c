"""E17: planned index-backed query evaluation vs reference search — JSON rows.

Each row printed by this module is a single JSON object, so the output can be
collected across commits into a perf trajectory (same shape as E16):

    PYTHONPATH=src python -m pytest benchmarks/bench_query_eval.py \
        --benchmark-disable -q -s | grep '"experiment": "E17"'

The speedup rows also assert the acceptance bar of the query subsystem: on
the largest determinacy/certificate configuration the planned evaluator of
:mod:`repro.query` must be at least 10× faster than the reference
:class:`~repro.core.homomorphism.HomomorphismProblem` while producing the
*identical* match set, and the post-chase certificate check must reuse the
index the semi-naive engine donated (no rebuild).
"""

import json

import pytest

import repro.query as q
from repro.obs import CLOCK, peak_rss_kb
from repro.chase import parse_tgds
from repro.core.atoms import Atom
from repro.core.builders import parse_cq, structure_from_text
from repro.core.homomorphism import HomomorphismProblem
from repro.core.structure import Structure
from repro.core.terms import Variable
from repro.engine import run_chase
from repro.greenred.coloring import Color, dalt_structure, paint_name
from repro.greenred.tq import build_tq
from repro.spiders.algebra import SpiderQuerySpec
from repro.spiders.anatomy import add_real_spider
from repro.spiders.ideal import IdealSpider, SpiderUniverse
from repro.spiders.queries import spider_query_matches, unary_query_body

from direct_executors import executor_solutions

#: The speedup bar asserted on the largest compared configuration.
MIN_SPEEDUP = 10.0

#: The bar for cached-plan re-evaluation (compiled runtime) against a cold
#: compile on every call (plan cache cleared before each evaluation).
MIN_CACHED_SPEEDUP = 5.0

#: (green chain length, chase stage bound).  The certificate structures are
#: bounded chase prefixes of ``T_Q`` for the composition view — the exact
#: shape the determinacy checkers verify triggers and certificates against.
TRAJECTORY = ((40, 8), (60, 10), (80, 12))


def _canonical(solutions):
    return frozenset(
        frozenset((repr(k), repr(v)) for k, v in s.items()) for s in solutions
    )


def _certificate_structure(length: int, stages: int):
    """A bounded ``chase(T_Q, green chain)`` structure (kept below CI budget)."""
    view = parse_cq("v(x, y) :- R(x, z), R(z, y)")
    tgds = build_tq([view])
    green_r = paint_name("R", Color.GREEN)
    instance = Structure(
        [Atom(green_r, (str(i), str(i + 1))) for i in range(length)]
    )
    result = run_chase(tgds, instance, max_stages=stages, max_atoms=100_000)
    return tgds, result


@pytest.mark.experiment("E17")
@pytest.mark.parametrize("length,stages", TRAJECTORY)
def test_query_eval_trajectory_on_determinacy_structures(
    benchmark, length, stages, report_lines
):
    """Trigger discovery for certificate verification: T_Q bodies over chase prefixes."""
    tgds, result = _certificate_structure(length, stages)
    chased = result.structure

    def planned_matches():
        return [
            match
            for tgd in tgds
            for match in q.all_homomorphisms(list(tgd.body), chased)
        ]

    benchmark(planned_matches)
    started = CLOCK()
    planned = planned_matches()
    planned_seconds = CLOCK() - started
    started = CLOCK()
    reference = [
        match
        for tgd in tgds
        for match in HomomorphismProblem(list(tgd.body), chased).solutions()
    ]
    reference_seconds = CLOCK() - started
    # Differential proof: identical homomorphism sets, not just counts.
    assert _canonical(planned) == _canonical(reference)
    speedup = reference_seconds / max(planned_seconds, 1e-9)
    report_lines(
        json.dumps(
            {
                "experiment": "E17",
                "workload": "determinacy-trigger-discovery",
                "length": length,
                "stages": stages,
                "atoms": len(chased),
                "matches": len(planned),
                "planned_seconds": round(planned_seconds, 6),
                "reference_seconds": round(reference_seconds, 6),
                "speedup": round(speedup, 2),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    )
    if (length, stages) == TRAJECTORY[-1]:
        assert speedup >= MIN_SPEEDUP


@pytest.mark.experiment("E17")
def test_certificate_check_reuses_chased_index(benchmark, report_lines):
    """The anchored red-path certificate check on a chased structure.

    Asserts the index hand-off: the structure produced by the semi-naive
    engine is queried through the very index the engine maintained — the
    shared evaluation context must not build a new one.
    """
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    length = 60
    instance = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(length))
    )
    result = run_chase(tgds, instance, 200, 500_000)
    chased = result.structure
    donated = q.shared_context.peek(chased)
    assert donated is not None, "chase engine did not donate its index"
    hops = 8
    variables = [Variable(f"x{i}") for i in range(hops + 1)]
    atoms = [Atom("S", (variables[i], variables[i + 1])) for i in range(hops)]
    fix = {variables[0]: "0", variables[hops]: str(length)}
    built_before = q.shared_context.indexes_built

    def planned_check():
        return next(q.all_homomorphisms(atoms, chased, fix=fix, limit=1), None)

    witness = benchmark(planned_check)
    started = CLOCK()
    witness = planned_check()
    planned_seconds = CLOCK() - started
    started = CLOCK()
    reference = next(
        HomomorphismProblem(atoms, chased, fix=fix).solutions(limit=1), None
    )
    reference_seconds = CLOCK() - started
    assert (witness is None) == (reference is None)
    assert q.shared_context.indexes_built == built_before, "index was rebuilt"
    assert q.shared_context.peek(chased) is donated
    report_lines(
        json.dumps(
            {
                "experiment": "E17",
                "workload": "post-chase-certificate-check",
                "length": length,
                "hops": hops,
                "atoms": len(chased),
                "holds": witness is not None,
                "index_reused": True,
                "planned_seconds": round(planned_seconds, 6),
                "reference_seconds": round(reference_seconds, 6),
                "speedup": round(reference_seconds / max(planned_seconds, 1e-9), 2),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    )


@pytest.mark.experiment("E17")
def test_plan_cache_repeated_reevaluation(benchmark, report_lines):
    """Cached-plan re-evaluation vs a cold compile per call.

    The workload is the chase's own hot shape: the same certificate query is
    re-checked (``limit=1``) against an unchanged chased structure over and
    over — trigger discovery and head-satisfaction checks re-run identical
    bodies thousands of times per run.  The baseline clears the index's
    plan cache before every call, so it pays join-order planning, slot
    layout and register-program compilation each time; the cached runtime
    pays a lookup.
    """
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    length = 60
    instance = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(length))
    )
    chased = run_chase(tgds, instance, 200, 500_000).structure
    hops = 12
    variables = [Variable(f"x{i}") for i in range(hops + 1)]
    atoms = [Atom("S", (variables[i], variables[i + 1])) for i in range(hops)]
    fix = {variables[0]: "0", variables[hops]: str(length)}
    index = q.shared_context.index_for(chased)
    rounds = 400

    def compiled_rounds():
        for _ in range(rounds):
            next(q.iter_homomorphisms(atoms, chased, fix=fix, limit=1), None)

    def baseline_rounds():
        cache = q.plan_cache_for(index)
        for _ in range(rounds):
            cache.entries.clear()
            next(q.iter_homomorphisms(atoms, chased, fix=fix, limit=1), None)

    compiled_rounds()  # warm the plan cache before timing
    benchmark(compiled_rounds)
    started = CLOCK()
    compiled_rounds()
    compiled_seconds = CLOCK() - started
    started = CLOCK()
    baseline_rounds()
    baseline_seconds = CLOCK() - started
    speedup = baseline_seconds / max(compiled_seconds, 1e-9)
    report_lines(
        json.dumps(
            {
                "experiment": "E17",
                "workload": "cached-plan-reevaluation",
                "hops": hops,
                "rounds": rounds,
                "atoms": len(chased),
                "compiled_seconds": round(compiled_seconds, 6),
                "cold_compile_seconds": round(baseline_seconds, 6),
                "speedup": round(speedup, 2),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    )
    assert speedup >= MIN_CACHED_SPEEDUP


@pytest.mark.experiment("E17")
def test_hash_join_beats_greedy_on_cyclic_body(benchmark, report_lines):
    """Triangle enumeration over a random graph: hash join vs nested probing.

    The triangle body ``R(x,y), R(y,z), R(z,x)`` is the canonical cyclic CQ
    where the greedy left-deep order degrades — the closing atom pays an
    index probe (plus selectivity bookkeeping) per partial path.  The hash
    executor scans each posting window once and probes partials in O(1).
    Both executors are called directly on the same compiled plan (the
    policy itself picks the generic join for this body, see E19).
    """
    import random

    rng = random.Random(20260726)
    nodes, edge_count = 250, 2500
    edges = set()
    while len(edges) < edge_count:
        edges.add((rng.randrange(nodes), rng.randrange(nodes)))
    target = Structure([Atom("R", (f"n{a}", f"n{b}")) for a, b in sorted(edges)])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    triangle = [Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x))]
    context = q.EvalContext()
    index = context.index_for(target)
    compiled = q.compiled_for(index, tuple(triangle), frozenset(), context=context)
    assert compiled.hash_recommended, "the planner must flag the hash join here"

    def hash_triangles():
        return executor_solutions(q.execute_hash, triangle, target, context)

    benchmark(hash_triangles)
    started = CLOCK()
    hashed = hash_triangles()
    hash_seconds = CLOCK() - started
    started = CLOCK()
    nested = executor_solutions(q.execute_nested, triangle, target, context)
    nested_seconds = CLOCK() - started
    reference = list(HomomorphismProblem(triangle, target).solutions())
    assert _canonical(hashed) == _canonical(nested) == _canonical(reference)
    report_lines(
        json.dumps(
            {
                "experiment": "E17",
                "workload": "hash-join-triangle",
                "nodes": nodes,
                "edges": edge_count,
                "triangles": len(hashed),
                "hash_seconds": round(hash_seconds, 6),
                "nested_seconds": round(nested_seconds, 6),
                "speedup": round(nested_seconds / max(hash_seconds, 1e-9), 2),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    )
    assert hash_seconds < nested_seconds, "hash join must beat greedy probing"


@pytest.mark.experiment("E17")
def test_spider_query_matching(benchmark, report_lines):
    """The paper's own worst-case bodies: spider queries over a spider corpus."""
    universe = SpiderUniverse(("1", "2", "3"))
    structure = Structure(domain=())
    species = []
    for upper in (None, "1", "2", "3"):
        for lower in (None, "1", "2"):
            species.append(IdealSpider(Color.GREEN, upper, lower))
            species.append(IdealSpider(Color.RED, upper, lower))
    for index, kind in enumerate(species):
        add_real_spider(
            structure,
            universe,
            kind,
            f"t{index % 3}",
            f"ant{index}",
            vertex_prefix=f"sp{index}",
        )
    corpus = dalt_structure(structure)
    spec = SpiderQuerySpec(upper="1", lower="2")
    body = unary_query_body(universe, spec, prefix="s")

    def planned_matches():
        return list(spider_query_matches(universe, spec, corpus))

    benchmark(planned_matches)
    started = CLOCK()
    planned = planned_matches()
    planned_seconds = CLOCK() - started
    started = CLOCK()
    reference = list(HomomorphismProblem(list(body.atoms), corpus).solutions())
    reference_seconds = CLOCK() - started
    assert _canonical(planned) == _canonical(reference)
    report_lines(
        json.dumps(
            {
                "experiment": "E17",
                "workload": "spider-query-matching",
                "spiders": len(species),
                "atoms": len(corpus),
                "matches": len(planned),
                "planned_seconds": round(planned_seconds, 6),
                "reference_seconds": round(reference_seconds, 6),
                "speedup": round(reference_seconds / max(planned_seconds, 1e-9), 2),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    )
