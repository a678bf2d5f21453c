"""Differential suite: planned index-backed evaluator ≡ reference search.

The backtracking :class:`repro.core.homomorphism.HomomorphismProblem` is the
authoritative oracle for homomorphism semantics; `repro.query` must return
*exactly* the same solution sets — including ``fix`` pre-bindings, ``frozen``
elements and rigid constants — on random conjunctive queries, random
structures and the spider-query corpus.  The suite also locks in the two
sharing properties of the new layer: per-structure indexes are cached and
maintained incrementally, and a structure chased by the semi-naive engine
arrives in the query layer with its index already built (no rebuild).
"""

from hypothesis import given, settings, strategies as st

import repro.query as q
from repro.core.atoms import Atom
from repro.core.homomorphism import HomomorphismProblem
from repro.core.structure import Structure
from repro.core.terms import Constant, Variable
from repro.engine import run_chase
from repro.chase.tgd import parse_tgds
from repro.greenred.coloring import dalt_structure
from repro.spiders.algebra import SpiderQuerySpec
from repro.spiders.anatomy import add_real_spider
from repro.spiders.ideal import IdealSpider, SpiderUniverse
from repro.spiders.queries import spider_query_matches, unary_query_body
from repro.greenred.coloring import Color


# ----------------------------------------------------------------------
# Strategies: random structures and CQ bodies over a small vocabulary
# ----------------------------------------------------------------------
_CONSTANT = Constant("c")
_elements = st.one_of(
    st.integers(min_value=0, max_value=4).map(str), st.just(_CONSTANT)
)
_predicates = st.sampled_from(["R", "S", "T"])
_variables = st.sampled_from([Variable(n) for n in ("x", "y", "z", "w")])
_terms = st.one_of(_variables, st.just(_CONSTANT))


@st.composite
def ground_atoms(draw):
    predicate = draw(_predicates)
    arity = 1 if predicate == "T" else 2
    return Atom(predicate, tuple(draw(_elements) for _ in range(arity)))


@st.composite
def structures(draw):
    atoms = draw(st.lists(ground_atoms(), min_size=0, max_size=10))
    return Structure(atoms, domain=[_CONSTANT])


@st.composite
def query_bodies(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    atoms = []
    for _ in range(count):
        predicate = draw(_predicates)
        arity = 1 if predicate == "T" else 2
        atoms.append(Atom(predicate, tuple(draw(_terms) for _ in range(arity))))
    return atoms


def canonical(solutions):
    """Hashable canonical form of a set of assignment dictionaries."""
    return frozenset(
        frozenset((repr(k), v) for k, v in solution.items())
        for solution in solutions
    )


# ----------------------------------------------------------------------
# Random CQs × random structures
# ----------------------------------------------------------------------
@given(query_bodies(), structures())
@settings(max_examples=120, deadline=None)
def test_planned_evaluator_matches_reference_on_random_cqs(atoms, target):
    reference = canonical(HomomorphismProblem(atoms, target).solutions())
    planned = canonical(q.all_homomorphisms(atoms, target))
    assert planned == reference


@given(query_bodies(), structures(), st.dictionaries(_variables, _elements, max_size=2))
@settings(max_examples=80, deadline=None)
def test_planned_evaluator_matches_reference_with_fix(atoms, target, fix):
    reference = canonical(HomomorphismProblem(atoms, target, fix=fix).solutions())
    planned = canonical(q.all_homomorphisms(atoms, target, fix=fix))
    assert planned == reference


@given(query_bodies(), structures(), st.sets(_variables, max_size=2))
@settings(max_examples=80, deadline=None)
def test_planned_evaluator_matches_reference_with_frozen(atoms, target, frozen):
    reference = canonical(
        HomomorphismProblem(atoms, target, frozen=frozen).solutions()
    )
    planned = canonical(q.iter_homomorphisms(atoms, target, frozen=frozen))
    assert planned == reference


@given(query_bodies(), structures())
@settings(max_examples=60, deadline=None)
def test_limit_and_existence_agree_with_reference(atoms, target):
    reference_first = next(HomomorphismProblem(atoms, target).solutions(limit=1), None)
    planned_first = next(q.all_homomorphisms(atoms, target, limit=1), None)
    assert (reference_first is None) == (planned_first is None)
    assert q.exists_homomorphism(atoms, target) == (reference_first is not None)


# ----------------------------------------------------------------------
# The spider-query corpus (the paper's own worst-case bodies)
# ----------------------------------------------------------------------
def _spider_corpus_structure(universe):
    structure = Structure(domain=())
    tails = ["t0", "t1"]
    species = [
        IdealSpider(Color.GREEN),
        IdealSpider(Color.GREEN, upper="1"),
        IdealSpider(Color.RED, lower="2"),
        IdealSpider(Color.RED, upper="2", lower="1"),
    ]
    for index, kind in enumerate(species):
        add_real_spider(
            structure,
            universe,
            kind,
            tails[index % len(tails)],
            f"ant{index}",
            vertex_prefix=f"sp{index}",
        )
    return dalt_structure(structure)


def test_spider_queries_match_reference_on_corpus():
    universe = SpiderUniverse(("1", "2"))
    corpus = _spider_corpus_structure(universe)
    specs = [
        SpiderQuerySpec(),
        SpiderQuerySpec(upper="1"),
        SpiderQuerySpec(lower="2"),
        SpiderQuerySpec(upper="2", lower="1"),
        SpiderQuerySpec(upper="1", lower="1"),
    ]
    for spec in specs:
        body = unary_query_body(universe, spec, prefix="s")
        reference = canonical(
            HomomorphismProblem(list(body.atoms), corpus).solutions()
        )
        planned = canonical(spider_query_matches(universe, spec, corpus))
        assert planned == reference, spec.key()


# ----------------------------------------------------------------------
# Context sharing: cached indexes, incremental maintenance, chase hand-off
# ----------------------------------------------------------------------
def test_context_caches_and_maintains_index_incrementally():
    context = q.EvalContext()
    target = Structure([Atom("R", ("a", "b"))])
    x, y = Variable("x"), Variable("y")
    atoms = [Atom("R", (x, y))]
    assert len(list(q.all_homomorphisms(atoms, target, context=context))) == 1
    assert context.indexes_built == 1
    # The same structure is served by the same index...
    target.add_atom(Atom("R", ("b", "c")))
    assert len(list(q.all_homomorphisms(atoms, target, context=context))) == 2
    assert context.indexes_built == 1
    assert context.indexes_reused >= 1
    # ...which followed the mutation through the structure listener.
    assert context.peek(target) is not None
    assert context.peek(target).count("R") == 2


def test_chased_structure_index_is_reused_not_rebuilt():
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    instance = Structure(
        [Atom("R", (str(i), str(i + 1))) for i in range(8)]
    )
    result = run_chase(tgds, instance, max_stages=50, max_atoms=10_000)
    assert result.reached_fixpoint
    # The semi-naive engine donated its run index to the shared context.
    donated = q.shared_context.peek(result.structure)
    assert donated is not None
    built_before = q.shared_context.indexes_built
    x, z = Variable("x"), Variable("z")
    answers = {
        (s[x], s[z])
        for s in q.all_homomorphisms([Atom("S", (x, z))], result.structure)
    }
    assert ("0", "7") in answers
    # No index was rebuilt for the post-chase query.
    assert q.shared_context.indexes_built == built_before
    assert q.shared_context.peek(result.structure) is donated


def test_evaluator_sees_snapshot_even_while_target_grows():
    target = Structure([Atom("R", ("a", "b"))])
    x, y = Variable("x"), Variable("y")
    solutions = q.all_homomorphisms([Atom("R", (x, y))], target)
    first = next(solutions)
    # Growing the structure mid-consumption must not leak new atoms into
    # this evaluation (the reference search snapshots its candidates too).
    target.add_atom(Atom("R", ("b", "c")))
    rest = list(solutions)
    assert [first] + rest == [{x: "a", y: "b"}]


# ----------------------------------------------------------------------
# Compiled runtime: cyclic bodies, both executors vs the oracle
# ----------------------------------------------------------------------
@st.composite
def cyclic_query_bodies(draw):
    """Bodies containing a variable cycle (plus optional extra atoms)."""
    cycle_length = draw(st.integers(min_value=3, max_value=4))
    cycle_vars = [Variable(n) for n in ("x", "y", "z", "w")][:cycle_length]
    atoms = [
        Atom(draw(st.sampled_from(["R", "S"])),
             (cycle_vars[i], cycle_vars[(i + 1) % cycle_length]))
        for i in range(cycle_length)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        predicate = draw(_predicates)
        arity = 1 if predicate == "T" else 2
        atoms.append(Atom(predicate, tuple(draw(_terms) for _ in range(arity))))
    return atoms


@given(cyclic_query_bodies(), structures())
@settings(max_examples=80, deadline=None)
def test_both_executors_match_reference_on_cyclic_cqs(atoms, target):
    # The generated cycle makes the whole body Berge-cyclic; extra atoms
    # only ever add tree edges (or isolated components) to the incidence
    # graph, so the classifier must flag every generated body.
    assert q.is_cyclic(atoms)
    reference = canonical(HomomorphismProblem(atoms, target).solutions())
    nested = canonical(q.all_homomorphisms(atoms, target, strategy="nested"))
    hashed = canonical(q.all_homomorphisms(atoms, target, strategy="hash"))
    assert nested == reference
    assert hashed == reference


@given(query_bodies(), structures(), st.dictionaries(_variables, _elements, max_size=2))
@settings(max_examples=60, deadline=None)
def test_hash_join_matches_reference_with_fix(atoms, target, fix):
    reference = canonical(HomomorphismProblem(atoms, target, fix=fix).solutions())
    hashed = canonical(q.all_homomorphisms(atoms, target, fix=fix, strategy="hash"))
    assert hashed == reference


def test_auto_strategy_picks_hash_join_for_triangles():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    triangle = (Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x)))
    chain = (Atom("R", (x, y)), Atom("R", (y, z)), Atom("S", (z, x)))
    assert q.is_cyclic(triangle)
    assert q.is_cyclic(chain)  # S closes the same variable cycle
    assert not q.is_cyclic((Atom("R", (x, y)), Atom("R", (y, z)), Atom("T", (z,))))
    target = Structure([Atom("R", (str(i), str((i + 1) % 5))) for i in range(5)])
    context = q.EvalContext()
    index = context.index_for(target)
    compiled = q.compiled_for(index, triangle, frozenset(), context=context)
    assert compiled.hash_recommended


# ----------------------------------------------------------------------
# Interning: round-trip, dense IDs, stability across rebuilds
# ----------------------------------------------------------------------
@given(structures())
@settings(max_examples=60, deadline=None)
def test_interning_round_trip_and_dense_ids(target):
    context = q.EvalContext()
    index = context.index_for(target)
    interner = index.interner
    for atom in target.atoms():
        pid, row = interner.encode_atom(atom)
        assert interner.decode_atom(pid, row) == atom
        assert pid < interner.predicate_count()
        assert all(0 <= tid < interner.term_count() for tid in row)
        # The posting columns carry the same encoding the interner produces.
        posting = index.posting(pid)
        offset = posting.atoms.index(atom)
        assert posting.row(offset) == row
    # IDs are dense: exactly one per distinct term/predicate ever interned.
    assert len({interner.term(i) for i in range(interner.term_count())}) == (
        interner.term_count()
    )


def test_executor_state_does_not_survive_watermark_preserving_rebuild():
    # Removing the only atom rebuilds the index with zero re-inserts, so the
    # watermark comes back unchanged; the cached executor preamble must be
    # keyed on the full (rebuilds, watermark) generation or it would replay
    # row references into the discarded posting lists.
    target = Structure([Atom("R", ("a", "b"))])
    context = q.EvalContext()
    index = context.index_for(target)
    x, y = Variable("x"), Variable("y")
    compiled = q.compiled_for(index, (Atom("R", (x, y)),), frozenset())
    registers = compiled.fresh_registers()
    assert len(list(q.execute_nested(compiled, index, registers, hi=index.watermark()))) == 1
    watermark = index.watermark()
    target.remove_atom(Atom("R", ("a", "b")))
    assert index.watermark() == watermark  # the trap: same hi, rebuilt tables
    assert list(q.execute_nested(compiled, index, registers, hi=index.watermark())) == []
    target.add_atom(Atom("R", ("c", "d")))
    assert [
        {x: "c", y: "d"}
    ] == list(q.all_homomorphisms([Atom("R", (x, y))], target, context=context))


def test_hash_executor_build_tables_are_cached_per_snapshot():
    # ROADMAP follow-up (i): the hash executor must reuse its per-step build
    # tables across evaluations of the same snapshot, mirroring the nested
    # executor's preamble cache, and rebuild them as soon as the snapshot
    # (stamp window + generation) moves.
    target = Structure(
        [Atom("R", (str(i), str((i + 1) % 6))) for i in range(6)]
    )
    context = q.EvalContext()
    index = context.index_for(target)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    triangle = (Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x)))
    compiled = q.compiled_for(index, triangle, frozenset(), context=context)
    hi = index.watermark()
    first = [list(r) for r in q.execute_hash(compiled, index, compiled.fresh_registers(), hi=hi)]
    state_id = id(compiled._hash_state)
    assert compiled._hash_key is not None
    again = [list(r) for r in q.execute_hash(compiled, index, compiled.fresh_registers(), hi=hi)]
    assert again == first
    assert id(compiled._hash_state) == state_id  # tables reused, not rebuilt
    # Growth: the same hi bound keys a different generation — fresh tables,
    # and the closing scan still only sees the stamp window below hi.
    target.add_atom(Atom("R", ("0", "3")))
    bounded = [list(r) for r in q.execute_hash(compiled, index, compiled.fresh_registers(), hi=hi)]
    assert bounded == first
    assert id(compiled._hash_state) != state_id
    # Full-window evaluation after growth sees the new atom's consequences.
    reference = canonical(HomomorphismProblem(list(triangle), target).solutions())
    assert canonical(q.all_homomorphisms(list(triangle), target, strategy="hash", context=context)) == reference


def test_hash_executor_state_does_not_survive_watermark_preserving_rebuild():
    # The hash sibling of the nested-preamble trap above: removing the only
    # atom rebuilds the index with zero re-inserts, so the watermark is
    # unchanged while every posting list object was replaced — the cached
    # build tables must be dropped via the generation component of the key.
    target = Structure([Atom("R", ("a", "b"))])
    context = q.EvalContext()
    index = context.index_for(target)
    x, y = Variable("x"), Variable("y")
    compiled = q.compiled_for(index, (Atom("R", (x, y)),), frozenset())
    hi = index.watermark()
    assert len(list(q.execute_hash(compiled, index, compiled.fresh_registers(), hi=hi))) == 1
    target.remove_atom(Atom("R", ("a", "b")))
    assert index.watermark() == hi  # same hi, rebuilt tables
    assert list(q.execute_hash(compiled, index, compiled.fresh_registers(), hi=index.watermark())) == []
    target.add_atom(Atom("R", ("c", "d")))
    assert len(list(q.execute_hash(compiled, index, compiled.fresh_registers(), hi=index.watermark()))) == 1


def test_hash_executor_cache_fills_lazily_on_empty_prefixes():
    # A run that dies at step 0 must not pay for (or wrongly freeze) the
    # build tables of later steps: the cache extends on demand.
    target = Structure([Atom("S", ("a", "b"))])
    context = q.EvalContext()
    index = context.index_for(target)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    atoms = (Atom("R", (x, y)), Atom("R", (y, z)), Atom("R", (z, x)))
    compiled = q.compiled_for(index, atoms, frozenset(), context=context)
    assert list(q.execute_hash(compiled, index, compiled.fresh_registers(), hi=index.watermark())) == []
    assert len(compiled._hash_state) == 1  # only the failing step was built
    target.add_atoms(Atom("R", (str(i), str((i + 1) % 3))) for i in range(3))
    solutions = list(q.execute_hash(compiled, index, compiled.fresh_registers(), hi=index.watermark()))
    assert len(solutions) == 3  # the triangle, rediscovered after growth


def test_plan_cache_is_cleared_by_watermark_preserving_rebuild():
    # Generation "wraparound" edge: a rebuild that re-inserts nothing leaves
    # the watermark numerically identical, so cache validity must hinge on
    # the rebuilds component, never the watermark alone.
    target = Structure([Atom("R", ("a", "b"))])
    context = q.EvalContext()
    x, y = Variable("x"), Variable("y")
    atoms = [Atom("R", (x, y))]
    assert list(q.all_homomorphisms(atoms, target, context=context))
    assert context.plans_compiled == 1
    index = context.peek(target)
    cache = q.plan_cache_for(index)
    watermark = index.watermark()
    target.remove_atom(Atom("R", ("a", "b")))
    assert index.watermark() == watermark
    assert list(q.all_homomorphisms(atoms, target, context=context)) == []
    assert cache.invalidations >= 1
    assert context.plans_compiled == 2


def test_interned_ids_survive_index_rebuild():
    target = Structure([Atom("R", ("a", "b")), Atom("R", ("b", "c"))])
    context = q.EvalContext()
    index = context.index_for(target)
    before = {e: index.interner.term_id(e) for e in ("a", "b", "c")}
    target.remove_atom(Atom("R", ("b", "c")))  # triggers a full rebuild
    assert index.rebuilds == 1
    for element, tid in before.items():
        assert index.interner.term_id(element) == tid


# ----------------------------------------------------------------------
# Plan cache: exact hits, generation-bump revalidation, growth, rebuilds
# ----------------------------------------------------------------------
def test_plan_cache_reuse_and_invalidation():
    context = q.EvalContext()
    target = Structure([Atom("R", (str(i), str(i + 1))) for i in range(20)])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    atoms = [Atom("R", (x, y)), Atom("R", (y, z))]
    assert list(q.all_homomorphisms(atoms, target, context=context))
    assert context.plans_compiled == 1
    index = context.peek(target)
    cache = q.plan_cache_for(index)
    # Unchanged generation: exact cache hit, no replanning.
    hits_before = cache.hits
    list(q.all_homomorphisms(atoms, target, context=context))
    assert context.plans_compiled == 1
    assert context.plans_reused >= 1
    assert cache.hits > hits_before
    # A mutation bumps the structure generation; bounded growth keeps the
    # plan (revalidated as a stale hit), it does not recompile.
    generation = target.generation
    target.add_atom(Atom("R", ("20", "21")))
    assert target.generation > generation
    list(q.all_homomorphisms(atoms, target, context=context))
    assert context.plans_compiled == 1
    assert cache.stale_hits >= 1
    # Growth past the staleness bound forces a replan against fresh stats.
    target.add_atoms(Atom("R", (f"g{i}", f"g{i + 1}")) for i in range(40))
    list(q.all_homomorphisms(atoms, target, context=context))
    assert context.plans_compiled == 2
    # An atom removal rebuilds the index and drops the whole cache.
    target.remove_atom(Atom("R", ("20", "21")))
    list(q.all_homomorphisms(atoms, target, context=context))
    assert context.plans_compiled == 3
    assert cache.invalidations >= 1


def test_plan_cache_is_keyed_by_bound_shape_not_values():
    context = q.EvalContext()
    target = Structure([Atom("R", (str(i), str(i + 1))) for i in range(6)])
    x, y = Variable("x"), Variable("y")
    atoms = [Atom("R", (x, y))]
    first = list(q.all_homomorphisms(atoms, target, fix={x: "0"}, context=context))
    second = list(q.all_homomorphisms(atoms, target, fix={x: "3"}, context=context))
    assert context.plans_compiled == 1  # same shape, different fix values
    assert first == [{x: "0", y: "1"}]
    assert second == [{x: "3", y: "4"}]


# ----------------------------------------------------------------------
# Batch delta discovery: compiled ≡ the interpreted reference search
# ----------------------------------------------------------------------
def test_compiled_delta_matches_interpreted_delta():
    # The oracle runs the backtracking HomomorphismProblem over the stamp
    # prefixes: matches at the stage start minus matches before the delta.
    from delta_oracle import reference_delta_matches
    from repro.engine.delta import compiled_delta_matches
    from repro.engine.indexes import AtomIndex

    tgds = parse_tgds(
        "R(x,y), R(y,z) -> S(x,z)",
        "S(x,y), R(y,z), T(y) -> S(x,z)",
        "R(x,x) -> T(x)",
    )
    structure = Structure(
        [Atom("R", (str(i), str(i + 1))) for i in range(6)] + [Atom("R", ("3", "3"))]
    )
    index = AtomIndex(structure)
    delta_lo = index.watermark()
    structure.add_atoms(
        [Atom("S", (str(i), str(i + 2))) for i in range(4)] + [Atom("T", ("3",))]
    )
    stage_start = index.watermark()
    for tgd in tgds:
        interpreted = canonical(
            reference_delta_matches(tgd, index, delta_lo, stage_start)
        )
        compiled = canonical(
            compiled_delta_matches(tgd, index, delta_lo, stage_start)
        )
        assert compiled == interpreted, tgd.name
        # The full-prefix (naive) degeneration agrees too.
        assert canonical(
            compiled_delta_matches(tgd, index, 0, stage_start)
        ) == canonical(
            reference_delta_matches(tgd, index, 0, stage_start)
        ), tgd.name


# ----------------------------------------------------------------------
# Isomorphism / homomorphism checking: planned path vs reference oracle
# ----------------------------------------------------------------------
@given(structures(), structures())
@settings(max_examples=60, deadline=None)
def test_is_homomorphism_matches_reference(first, second):
    from repro.core.homomorphism import is_homomorphism as reference_check

    domain = sorted(second.domain(), key=repr) or ["d"]
    candidates = []
    for offset in range(3):
        candidates.append(
            {
                element: domain[(i + offset) % len(domain)]
                for i, element in enumerate(sorted(first.domain(), key=repr))
            }
        )
    for mapping in candidates:
        assert q.is_homomorphism(mapping, first, second) == reference_check(
            mapping, first, second
        )


@given(structures())
@settings(max_examples=40, deadline=None)
def test_find_isomorphism_matches_reference_on_renamings(target):
    from repro.core.homomorphism import find_isomorphism as reference_find

    renamed = target.rename_elements(
        {e: ("iso", e) for e in target.domain() if not isinstance(e, Constant)}
    )
    planned = q.find_isomorphism(target, renamed)
    reference = reference_find(target, renamed)
    assert (planned is None) == (reference is None)
    if planned is not None:
        assert target.rename_elements(planned).atoms() == renamed.atoms()
    # A genuinely different structure is rejected by both.
    perturbed = renamed.copy()
    perturbed.add_atom(Atom("Extra", (("iso", "fresh"),)))
    assert q.find_isomorphism(target, perturbed) is None
    assert reference_find(target, perturbed) is None
    assert q.are_isomorphic(target, renamed) == (reference is not None)
