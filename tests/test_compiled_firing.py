"""Compiled firing: the stored TGD classification and the full-head path.

A TGD classifies its variables once, at construction, and the engine reads
the stored sets and name-ordered tuples for every trigger.  Under the lazy
strategy a full TGD (no existential variable) issues no head query: its
head is a set of ground atoms, so the insertion itself decides whether the
trigger was active.  The reference chase keeps its own evaluator-backed
head check, so the differentials below hold two independent head checks
against each other.
"""

import json
import pickle

import pytest

import repro.obs as obs
from repro.chase import chase, parse_tgds
from repro.chase.tgd import TGD, rename_tgd_predicates, standardise_apart
from repro.core.builders import structure_from_text
from repro.core.terms import Variable
from repro.engine import run_chase
from repro.engine.shm import SHM_AVAILABLE

from chase_bits import assert_bit_identical

# ----------------------------------------------------------------------
# The stored classification
# ----------------------------------------------------------------------
RULE_TEXTS = (
    "R(x,y), R(y,z) -> S(x,z)",
    "R(x,y) -> S(y,w), T(w,x,#c)",
    "R(x,x) -> U(x)",
    "R(x,y), S(y,#a) -> V(v,u), V(u,y)",
    "R(x,y) -> W(z)",
)


def _from_scratch(tgd):
    body = {v for atom in tgd.body for v in atom.args if isinstance(v, Variable)}
    head = {v for atom in tgd.head for v in atom.args if isinstance(v, Variable)}
    return {
        "body_variables": frozenset(body),
        "head_variables": frozenset(head),
        "frontier": frozenset(body & head),
        "existential_variables": frozenset(head - body),
        "is_full": not (head - body),
    }


VARIANTS = {
    "parsed": lambda tgds: tgds,
    "standardised": standardise_apart,
    "renamed": lambda tgds: [
        rename_tgd_predicates(tgd, lambda p: p + "_r") for tgd in tgds
    ],
    "unpickled": lambda tgds: pickle.loads(pickle.dumps(tgds)),
}


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_stored_classification_equals_its_definition(label):
    for tgd in VARIANTS[label](parse_tgds(*RULE_TEXTS)):
        expected = _from_scratch(tgd)
        assert tgd.body_variables() == expected["body_variables"], label
        assert tgd.head_variables() == expected["head_variables"], label
        assert tgd.frontier() == expected["frontier"], label
        assert tgd.existential_variables() == expected["existential_variables"], label
        assert tgd.is_full() is expected["is_full"], label
        assert tgd.sorted_frontier == tuple(
            sorted(expected["frontier"], key=lambda v: v.name)
        ), label
        assert tgd.sorted_existentials == tuple(
            sorted(expected["existential_variables"], key=lambda v: v.name)
        ), label
        assert tgd.body_query().free_variables == tgd.sorted_frontier, label
        assert tgd.head_query().free_variables == tgd.sorted_frontier, label


def test_classification_leaves_equality_hashing_and_pickling_alone():
    first = parse_tgds(*RULE_TEXTS)
    second = parse_tgds(*RULE_TEXTS)
    for a, b in zip(first, second):
        assert a is not b
        assert a == b and hash(a) == hash(b)
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and hash(clone) == hash(a)
    # Name, body and head still decide equality; the stored sets do not.
    assert TGD.parse(RULE_TEXTS[0], "one") != TGD.parse(RULE_TEXTS[0], "two")
    assert len(set(first) | set(second)) == len(RULE_TEXTS)


# ----------------------------------------------------------------------
# Full heads: the insertion is the head check
# ----------------------------------------------------------------------
CHAIN = ", ".join(f"R({i},{i + 1})" for i in range(6))

CASES = {
    # S(1,2) is in the input, so the trigger at (1,2) adds only T(2,1).
    "two-atom-head-one-present": (
        ("R(x,y) -> S(x,y), T(y,x)", "S(x,y), R(y,z) -> S(x,z)"),
        CHAIN + ", S(1,2)",
    ),
    "repeated-frontier-variable": (
        ("R(x,y) -> S(x,x)", "S(x,x), R(x,y) -> S(y,y)"),
        CHAIN + ", S(3,3)",
    ),
    # #c is new at the first firing, so it is reported as a new element.
    "head-constant": (
        ("R(x,y) -> U(x,#c)", "U(x,#c), R(x,y) -> U(y,#c)"),
        CHAIN,
    ),
    "head-equals-body-atom": (
        ("R(x,y) -> R(x,y)", "R(x,y), S(y,z) -> S(y,z), R(x,y)"),
        CHAIN + ", S(2,7), S(4,8)",
    ),
    "mixed-full-and-existential": (
        (
            "R(x,y) -> S(x,y)",
            "S(x,y), R(y,z) -> S(x,z)",
            "S(x,y) -> E(y,w)",
            "E(x,w), R(x,y) -> F(w,y), S(x,y)",
        ),
        CHAIN,
    ),
}

WORKERS = [0, 2] if SHM_AVAILABLE else [0]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_full_head_firing_is_bit_identical_to_reference(case, workers):
    texts, facts = CASES[case]
    tgds = parse_tgds(*texts)
    instance = structure_from_text(facts)
    expected = chase(tgds, instance, max_stages=12)
    produced = run_chase(tgds, instance, max_stages=12, workers=workers)
    assert_bit_identical(expected, produced, (case, workers))
    faults = produced.stats.faults
    assert faults.get("detected", 0) == faults.get("degraded", 0) == 0, faults


def test_head_equal_to_a_body_atom_never_fires():
    texts, facts = CASES["head-equals-body-atom"]
    result = run_chase(parse_tgds(*texts), structure_from_text(facts))
    assert result.stages_run == 0 and result.reached_fixpoint
    assert len(result.provenance) == 0
    assert result.stats.fired == 0 and result.stats.candidates > 0


def _fire_span_executions(tgds, facts):
    """``query.execute`` events emitted inside ``chase.fire`` spans."""
    lines = []
    obs.enable_tracing(lines.append)
    try:
        result = run_chase(tgds, structure_from_text(facts))
    finally:
        obs.disable_tracing()
    records = [json.loads(line) for line in lines]
    fire_spans = {
        record["id"]
        for record in records
        if record["type"] == "B" and record["name"] == "chase.fire"
    }
    executions = [
        record
        for record in records
        if record["name"] == "query.execute" and record["in"] in fire_spans
    ]
    return result, executions


def test_full_tgd_fires_without_a_head_query():
    result, executions = _fire_span_executions(
        parse_tgds("R(x,y) -> S(x,y)", "S(x,y), R(y,z) -> S(x,z)"), CHAIN
    )
    assert result.stats.fired > 0
    assert executions == []


def test_existential_tgd_keeps_its_head_probe():
    result, executions = _fire_span_executions(
        parse_tgds("R(x,y) -> S(y,w)"), CHAIN
    )
    assert result.stats.fired > 0
    # One first-solution probe per deduplicated candidate.
    assert len(executions) == result.stats.deduped
    assert all(record["first_only"] for record in executions)
