"""Running one named join executor over a query body (E17, E19).

The library never lets a caller name an executor: every evaluation runs
the one :func:`repro.query.compile.choose_executor` picks.  The executor
comparisons therefore call the executor functions directly, on the same
compiled plan and index an evaluation would use.
"""

import repro.query as q


def executor_solutions(executor, body, target, context):
    """Every homomorphism of the variable-only *body* into *target*, as
    enumerated by *executor* (``repro.query.execute_nested`` / ``_hash`` /
    ``_wcoj``) against *context*'s cached index and plan."""
    index = context.index_for(target)
    compiled = q.compiled_for(index, tuple(body), frozenset(), context=context)
    term = index.interner.term
    outputs = compiled.outputs
    return [
        {variable: term(registers[slot]) for variable, slot in outputs}
        for registers in executor(
            compiled, index, compiled.fresh_registers(), hi=index.watermark()
        )
    ]
