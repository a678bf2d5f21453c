"""E19: worst-case-optimal generic join vs binary joins — JSON rows.

Each row printed by this module is a single JSON object, collected across
commits into the perf trajectory (same shape as E16–E18):

    PYTHONPATH=src python -m pytest benchmarks/bench_wcoj.py \
        --benchmark-disable -q -s | grep '"experiment": "E19"'

Three workload families, all cyclic bodies evaluated under every executor
— each called directly on the same compiled plan — with the solution sets
asserted identical:

* ``triangle-random`` — triangles on a dense uniform random graph: output
  is large, so all executors pay per-solution costs and WCOJ roughly ties
  the hash join (the honest row: generic join is not a universal win);
* ``triangle-hub`` — triangles on a skewed hub graph where the number of
  2-paths grows *quadratically* while the output stays linear: the textbook
  AGM-gap instance where **every** binary join order (nested and hash
  alike) materialises an intermediate asymptotically larger than the
  output.  The acceptance bar lives here: WCOJ must beat the hash executor
  by at least :data:`MIN_WCOJ_SPEEDUP`× on the densest hub config;
* ``four-clique`` — the 6-atom, 4-variable clique body on a dense random
  graph, the denser pattern family the spider/green-graph workloads
  approximate.
"""

import json
import random

import pytest

import repro.query as q
from repro.core.atoms import Atom
from repro.core.homomorphism import HomomorphismProblem
from repro.core.structure import Structure
from repro.core.terms import Variable
from repro.obs import CLOCK, peak_rss_kb

from direct_executors import executor_solutions

#: WCOJ must beat the hash join by this factor on the densest hub config.
MIN_WCOJ_SPEEDUP = 2.0

#: (nodes, edges) of the uniform-random triangle configs.
RANDOM_TRIANGLE = ((120, 1200), (250, 2500))

#: Spoke counts of the skewed hub configs (atoms = 3 × k); the last one is
#: the densest and carries the speedup bar.
HUB_TRIANGLE = (200, 400)

#: (nodes, edges) of the 4-clique configs.
FOUR_CLIQUE = ((60, 900), (80, 1600))

X, Y, Z, W = (Variable(name) for name in "xyzw")
TRIANGLE = [Atom("R", (X, Y)), Atom("R", (Y, Z)), Atom("R", (Z, X))]
CLIQUE = [
    Atom("R", (X, Y)), Atom("R", (X, Z)), Atom("R", (X, W)),
    Atom("R", (Y, Z)), Atom("R", (Y, W)), Atom("R", (Z, W)),
]


def _canonical(solutions):
    return frozenset(
        frozenset((repr(k), repr(v)) for k, v in s.items()) for s in solutions
    )


def random_graph(seed, nodes, edges):
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < edges:
        chosen.add((rng.randrange(nodes), rng.randrange(nodes)))
    return Structure([Atom("R", (f"n{a}", f"n{b}")) for a, b in sorted(chosen)])


def hub_graph(spokes):
    """``k`` sources → hub → ``k`` sinks, plus ``k`` closing back-edges.

    2-paths through the hub: ``k²``.  Triangles: ``k`` (each sink closes
    back to exactly one source), i.e. ``3k`` homomorphisms.  Any binary plan
    materialises (or probes) the quadratic path set; generic join intersects
    per variable and never leaves the linear support.
    """
    atoms = []
    for i in range(spokes):
        atoms.append(Atom("R", (f"s{i}", "hub")))
        atoms.append(Atom("R", ("hub", f"t{i}")))
        atoms.append(Atom("R", (f"t{i}", f"s{(spokes - i) % spokes}")))
    return Structure(atoms)


#: The executors every row compares, by name.
EXECUTORS = {"nested": q.execute_nested, "hash": q.execute_hash, "wcoj": q.execute_wcoj}


def _timed_solutions(body, target, executor):
    """(seconds, canonical solution set) on a per-executor fresh context."""
    context = q.EvalContext()
    executor_solutions(executor, body, target, context)
    started = CLOCK()
    solutions = executor_solutions(executor, body, target, context)
    return CLOCK() - started, _canonical(solutions)


def _row(workload, body, target, report_lines, oracle_check=False, **extra):
    timings = {}
    answers = {}
    for name, executor in EXECUTORS.items():
        timings[name], answers[name] = _timed_solutions(body, target, executor)
    assert answers["wcoj"] == answers["hash"] == answers["nested"]
    if oracle_check:
        assert answers["wcoj"] == _canonical(
            HomomorphismProblem(body, target).solutions()
        )
    speedup_vs_hash = timings["hash"] / max(timings["wcoj"], 1e-9)
    row = {
        "experiment": "E19",
        "workload": workload,
        **extra,
        "atoms": len(target),
        "matches": len(answers["wcoj"]),
        "nested_seconds": round(timings["nested"], 6),
        "hash_seconds": round(timings["hash"], 6),
        "wcoj_seconds": round(timings["wcoj"], 6),
        "wcoj_vs_hash": round(speedup_vs_hash, 2),
        "wcoj_vs_nested": round(
            timings["nested"] / max(timings["wcoj"], 1e-9), 2
        ),
        "peak_rss_kb": peak_rss_kb(),
    }
    report_lines(json.dumps(row))
    return speedup_vs_hash


@pytest.mark.experiment("E19")
@pytest.mark.parametrize("nodes,edges", RANDOM_TRIANGLE)
def test_triangle_on_random_graph(benchmark, nodes, edges, report_lines):
    target = random_graph(20260726, nodes, edges)
    context = q.EvalContext()
    compiled = q.compiled_for(
        context.index_for(target), tuple(TRIANGLE), frozenset(), context=context
    )
    assert q.choose_executor(compiled) is q.execute_wcoj, "policy must pick wcoj"
    benchmark(lambda: executor_solutions(q.execute_wcoj, TRIANGLE, target, context))
    _row(
        "triangle-random", TRIANGLE, target, report_lines,
        oracle_check=(nodes, edges) == RANDOM_TRIANGLE[0],
        nodes=nodes, edges=edges,
    )


@pytest.mark.experiment("E19")
@pytest.mark.parametrize("spokes", HUB_TRIANGLE)
def test_triangle_on_skewed_hub(benchmark, spokes, report_lines):
    target = hub_graph(spokes)
    context = q.EvalContext()
    benchmark(lambda: executor_solutions(q.execute_wcoj, TRIANGLE, target, context))
    speedup = _row(
        "triangle-hub", TRIANGLE, target, report_lines,
        oracle_check=spokes == HUB_TRIANGLE[0],
        spokes=spokes, two_paths=spokes * spokes,
    )
    if spokes == HUB_TRIANGLE[-1]:
        # The acceptance bar of the subsystem (ROADMAP (j) / ISSUE 5): on the
        # densest quadratic-gap config the generic join must beat the best
        # binary executor by ≥ 2×.
        assert speedup >= MIN_WCOJ_SPEEDUP, (
            f"wcoj only {speedup:.2f}× over hash on the densest hub config"
        )


@pytest.mark.experiment("E19")
@pytest.mark.parametrize("nodes,edges", FOUR_CLIQUE)
def test_four_clique_on_random_graph(benchmark, nodes, edges, report_lines):
    target = random_graph(48104, nodes, edges)
    context = q.EvalContext()
    benchmark(lambda: executor_solutions(q.execute_wcoj, CLIQUE, target, context))
    _row(
        "four-clique", CLIQUE, target, report_lines,
        oracle_check=False,  # the oracle needs minutes on these configs
        nodes=nodes, edges=edges,
    )
