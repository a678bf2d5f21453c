"""Evaluation-context isolation and thread safety.

Two regressions pinned here:

* the semi-naive engine's index hand-off used to hardwire the process-global
  ``shared_context`` — a multi-tenant caller (the session service) could
  watch one tenant's chased index and compiled plans appear in another
  tenant's context.  ``run_chase(context=...)`` /
  ``SemiNaiveChaseEngine(context=...)`` now thread the target explicitly;
* ``EvalContext`` had no lock: two threads racing ``index_for`` on the same
  structure could both build (double registration of structure listeners),
  and ``_remember``'s periodic purge mutated ``_entries`` during another
  thread's iteration.
"""

import threading

import pytest

from repro.core.builders import parse_cq, structure_from_text
from repro.chase.tgd import parse_tgds
from repro.engine import run_chase
from repro.query.context import EvalContext, get_context, shared_context
from repro.query.evaluator import evaluate


RULES = parse_tgds("R(x,y) -> S(y,w)")


def test_run_chase_adopts_into_explicit_context():
    ctx = EvalContext()
    instance = structure_from_text("R(a,b), R(b,c)")
    before_shared = len(shared_context)
    result = run_chase(RULES, instance, max_stages=5, context=ctx)
    assert ctx.peek(result.structure) is not None
    assert ctx.indexes_adopted == 1
    # Nothing about this run leaked into the process-wide default.
    assert shared_context.peek(result.structure) is None
    assert len(shared_context) == before_shared


def test_run_chase_default_still_uses_shared_context():
    instance = structure_from_text("R(a,b)")
    result = run_chase(RULES, instance, max_stages=5)
    assert shared_context.peek(result.structure) is not None
    shared_context.forget(result.structure)


def test_two_contexts_never_share_indexes_or_plans():
    """The service invariant: per-session contexts are fully disjoint."""
    ctx_a, ctx_b = EvalContext(), EvalContext()
    inst_a = structure_from_text("R(a,b), R(b,c)")
    inst_b = structure_from_text("R(a,b), R(b,c)")
    res_a = run_chase(RULES, inst_a, max_stages=5, context=ctx_a)
    res_b = run_chase(RULES, inst_b, max_stages=5, context=ctx_b)

    # Identical inputs, bit-identical outputs -- but disjoint caches.
    assert sorted(map(repr, res_a.structure.atoms())) == sorted(
        map(repr, res_b.structure.atoms())
    )
    assert ctx_a.peek(res_b.structure) is None
    assert ctx_b.peek(res_a.structure) is None

    query = parse_cq("q(x,y) :- R(x,z), S(z,y)")
    assert evaluate(query, res_a.structure, context=ctx_a) == evaluate(
        query, res_b.structure, context=ctx_b
    )
    # Each context compiled its own plan on its own adopted index; neither
    # reused (or invalidated) the other's.
    assert ctx_a.plans_compiled >= 1
    assert ctx_b.plans_compiled >= 1
    index_a = ctx_a.peek(res_a.structure)
    index_b = ctx_b.peek(res_b.structure)
    assert index_a is not None and index_b is not None
    assert index_a is not index_b


def test_get_context_resolver():
    ctx = EvalContext()
    assert get_context(None) is shared_context
    assert get_context(ctx) is ctx


class TestEvalContextThreadSafety:
    def test_concurrent_index_for_builds_once(self):
        """N threads racing index_for on one structure build exactly one index."""
        ctx = EvalContext()
        structure = structure_from_text("R(a,b), R(b,c), S(a,c)")
        barrier = threading.Barrier(8)
        results, errors = [], []

        def hammer():
            try:
                barrier.wait()
                for _ in range(50):
                    results.append(ctx.index_for(structure))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        assert ctx.indexes_built == 1
        assert len(set(map(id, results))) == 1
        # A lost build race would have left a stray structure listener
        # behind; the winning index is the only registered one.
        assert len(structure._listeners) == 1

    def test_concurrent_registration_survives_purge(self):
        """Interleaved builds on many structures cross the purge threshold
        (``_PURGE_INTERVAL`` inserts) from several threads without corruption."""
        from repro.query.context import _PURGE_INTERVAL

        ctx = EvalContext()
        structures = [
            structure_from_text(f"R(a{i},b{i})")
            for i in range(_PURGE_INTERVAL + 44)
        ]
        barrier = threading.Barrier(4)
        errors = []

        def worker(offset):
            try:
                barrier.wait()
                for i in range(len(structures)):
                    target = structures[(i + offset * 50) % len(structures)]
                    assert ctx.index_for(target).structure is target
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        # One build per structure: every later call was a locked cache hit.
        assert ctx.indexes_built == len(structures)
        assert ctx.indexes_reused == 4 * len(structures) - len(structures)

    def test_adopt_and_forget_are_locked(self):
        """adopt/forget from racing threads neither raise nor leak entries."""
        from repro.engine.indexes import AtomIndex

        ctx = EvalContext()
        structures = [structure_from_text(f"R(a{i},b)") for i in range(64)]
        indexes = [AtomIndex(s) for s in structures]
        barrier = threading.Barrier(2)
        errors = []

        def adopter():
            try:
                barrier.wait()
                for s, ix in zip(structures, indexes):
                    ctx.adopt(s, ix)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def forgetter():
            try:
                barrier.wait()
                for s in structures:
                    ctx.forget(s)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=adopter), threading.Thread(target=forgetter)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Whatever interleaving happened, a final forget drains everything.
        for s in structures:
            ctx.forget(s)
        assert all(ctx.peek(s) is None for s in structures)
