"""The join-executor selection policy and its two observers.

:func:`repro.query.compile.choose_executor` is the only place the compiled
runtime decides between the nested, hash and worst-case-optimal executors.
These checks pin what it picks per body shape, and that ``explain`` reports
the very executor a real evaluation runs (read back from its
``query.execute`` trace event).
"""

import json
import random

import pytest

import repro.obs as obs
from repro.core.atoms import Atom
from repro.core.structure import Structure
from repro.core.terms import Variable
from repro.query import (
    EvalContext,
    all_homomorphisms,
    choose_executor,
    compiled_for,
    execute_hash,
    execute_nested,
    execute_wcoj,
)

X, Y, Z, W = (Variable(name) for name in "xyzw")

#: ``(shape, body, executor)``: a 2-atom chain stays nested, an acyclic
#: 3-atom path opening on a 300-row unbound scan (≥ 128) takes the hash
#: join, and a triangle over 300-row postings (≥ 64) the generic join.
SHAPES = [
    ("chain", (Atom("R", (X, Y)), Atom("R", (Y, Z))), execute_nested),
    (
        "acyclic-wide-scan",
        (Atom("R", (X, Y)), Atom("R", (Y, Z)), Atom("R", (Z, W))),
        execute_hash,
    ),
    (
        "triangle",
        (Atom("R", (X, Y)), Atom("R", (Y, Z)), Atom("R", (Z, X))),
        execute_wcoj,
    ),
]


def _graph():
    rng = random.Random(2016)
    edges = set()
    while len(edges) < 300:
        edges.add((rng.randrange(60), rng.randrange(60)))
    return Structure([Atom("R", (f"n{a}", f"n{b}")) for a, b in sorted(edges)])


@pytest.mark.parametrize("shape, body, executor", SHAPES, ids=[s[0] for s in SHAPES])
def test_choose_executor_per_shape(shape, body, executor):
    context = EvalContext()
    compiled = compiled_for(
        context.index_for(_graph()), body, frozenset(), context=context
    )
    assert choose_executor(compiled) is executor, shape
    # Only the first solution wanted: the lazy nested descent, whatever
    # the shape.
    assert choose_executor(compiled, first_only=True) is execute_nested, shape


@pytest.mark.parametrize("shape, body, executor", SHAPES, ids=[s[0] for s in SHAPES])
def test_explain_reports_the_executor_evaluation_runs(shape, body, executor):
    target = _graph()
    context = EvalContext()
    text = obs.explain(target, body, context=context)
    explained = next(
        line.split(": ", 1)[1]
        for line in text.splitlines()
        if line.startswith("executor: ")
    )
    lines = []
    obs.enable_tracing(lines.append)
    try:
        solutions = list(all_homomorphisms(list(body), target, context=context))
    finally:
        obs.disable_tracing()
    assert solutions, shape  # the graph is dense enough for every shape
    executed = [
        record["executor"]
        for record in map(json.loads, lines)
        if record["name"] == "query.execute"
    ]
    assert executed == [explained] == [executor.__name__[len("execute_"):]], shape
