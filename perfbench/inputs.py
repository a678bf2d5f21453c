"""Seeded inputs of the three workloads, and the outputs they must produce.

Every generator is a pure function of ``seed``: the seed picks node labels
and the order of service operations, never the shape or size of the work,
so runs with different seeds measure the same amount of work.  The expected
outputs are computed here without the chase engine (closed forms, a
plain-Python triangle enumeration) or, for the service mirror, with the
library in the benchmark process before anything is timed.
"""

import random

from repro.chase.tgd import parse_tgds
from repro.core.atoms import Atom
from repro.core.builders import parse_cq, parse_facts
from repro.core.structure import Structure
from repro.engine import run_chase
from repro.query import evaluate
from repro.query.context import EvalContext

# -- chase-deep --------------------------------------------------------------
#: Edges of the chain the transitive-closure rules run over: 99 stages and
#: 5,050 atoms, long enough that firing and per-stage snapshots dominate.
DEEP_CHAIN = 100
DEEP_RULES = ("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")


def _labels(rng, count):
    return [f"v{label}" for label in rng.sample(range(10**6), count)]


def chase_deep(seed):
    """``(tgds, instance, expected_atoms)`` for the E16 transitive closure."""
    nodes = _labels(random.Random(seed), DEEP_CHAIN + 1)
    chain = [Atom("R", (nodes[i], nodes[i + 1])) for i in range(DEEP_CHAIN)]
    closure = [
        Atom("S", (nodes[i], nodes[j]))
        for i in range(DEEP_CHAIN + 1)
        for j in range(i + 2, DEEP_CHAIN + 1)
    ]
    return parse_tgds(*DEEP_RULES), Structure(chain), frozenset(chain + closure)


# -- chase-wide --------------------------------------------------------------
#: 8 independent triangle rules over 3,000 random edges each on 300 nodes:
#: one stage, 24,000 input atoms, discovery-bound.
WIDE_RULES = 8
WIDE_NODES = 300
WIDE_EDGES = 3000


#: The edge sets are drawn once from this fixed seed; the run's seed only
#: relabels the nodes, so every seed finds the same 7,965 triangle matches.
WIDE_GRAPH_SEED = 7


def chase_wide(seed):
    """``(tgds, instance, edges)``; ``edges[i]`` are rule *i*'s pairs."""
    graph = random.Random(WIDE_GRAPH_SEED)
    names = _labels(random.Random(seed), WIDE_NODES)
    edges = []
    for _ in range(WIDE_RULES):
        pairs = set()
        while len(pairs) < WIDE_EDGES:
            a, b = graph.randrange(WIDE_NODES), graph.randrange(WIDE_NODES)
            if a != b:
                pairs.add((names[a], names[b]))
        edges.append(sorted(pairs))
    tgds = parse_tgds(
        *[
            f"E{i}(x,y), E{i}(y,z), E{i}(z,x) -> W{i}(x)"
            for i in range(WIDE_RULES)
        ]
    )
    atoms = [
        Atom(f"E{i}", pair) for i, pairs in enumerate(edges) for pair in pairs
    ]
    return tgds, Structure(atoms), edges


def triangle_heads(edges):
    """``{("W<i>", x)}`` for every vertex *x* on a directed triangle of rule *i*."""
    heads = set()
    for i, pairs in enumerate(edges):
        out = {}
        for a, b in pairs:
            out.setdefault(a, set()).add(b)
        for x, y in pairs:
            if any(x in out.get(z, ()) for z in out.get(y, ())):
                heads.add((f"W{i}", x))
    return heads


# -- service-mix -------------------------------------------------------------
#: Facts of the base chain, chased once at set-up and at every episode start.
MIX_BASE = 400
MIX_RULES = ("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> T(x,z)")
MIX_QUERIES = (
    "q(x,y) :- R(x,z), S(z,y)",
    "q(x) :- T(x,y), R(y,z)",
    "q(x,y) :- S(x,z), S(z,y)",
)
#: An episode is 10 blocks of 16 reads and 3 writes of 4 facts in a seeded
#: order, each block closed by a re-chase (80/15/5 %).  The base therefore
#: has the same size at every chase, and the work is the same for every seed.
MIX_BLOCKS = 10
MIX_BLOCK_READS, MIX_BLOCK_WRITES = 16, 3
MIX_FACTS_PER_WRITE = 4


def _facts_text(nodes, lo, hi):
    return ", ".join(f"R({nodes[i]}, {nodes[i + 1]})" for i in range(lo, hi))


def service_episode(seed):
    """``(base_facts, ops)``: one episode of the service mix and its answers.

    An episode starts by reloading the base chain and chasing it, then
    runs the blocks of reads, writes and re-chases.  Repeating the
    same episode keeps every run's work fixed however fast the server is:
    with a fixed-duration stream a faster server would append more facts
    and slow its own later chases.  ``ops`` holds ``(kind, argument,
    expected)``: the fact or query text, and the atom or answer count the
    response must report, worked out on a mirror of the facts with the
    library in this process.
    """
    rng = random.Random(seed)
    total = MIX_BASE + MIX_BLOCKS * MIX_BLOCK_WRITES * MIX_FACTS_PER_WRITE
    nodes = _labels(rng, total + 1)
    base_facts = _facts_text(nodes, 0, MIX_BASE)
    queries = [parse_cq(text) for text in MIX_QUERIES]
    tgds = parse_tgds(*MIX_RULES)
    context = EvalContext()

    mirror = Structure(parse_facts(base_facts))
    chased = run_chase(tgds, mirror, keep_snapshots=False).structure
    counts = [len(evaluate(q, chased, context=context)) for q in queries]
    ops = [("load", base_facts, len(mirror)), ("chase", None, len(chased))]
    appended = MIX_BASE
    for block in range(MIX_BLOCKS):
        kinds = ["query"] * MIX_BLOCK_READS + ["extend"] * MIX_BLOCK_WRITES
        rng.shuffle(kinds)
        kinds.append("chase")
        # Every block reads each query equally often, in a seeded order.
        picks = [(block + i) % len(queries) for i in range(MIX_BLOCK_READS)]
        rng.shuffle(picks)
        for kind in kinds:
            if kind == "query":
                pick = picks.pop()
                ops.append(("query", MIX_QUERIES[pick], counts[pick]))
            elif kind == "extend":
                text = _facts_text(nodes, appended, appended + MIX_FACTS_PER_WRITE)
                appended += MIX_FACTS_PER_WRITE
                mirror.add_atoms(parse_facts(text))
                ops.append(("extend", text, len(mirror)))
            else:
                chased = run_chase(tgds, mirror, keep_snapshots=False).structure
                counts = [len(evaluate(q, chased, context=context)) for q in queries]
                ops.append(("chase", None, len(chased)))
    return base_facts, ops
