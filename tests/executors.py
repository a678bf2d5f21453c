"""Pinning one join executor for differential tests.

The compiled runtime has no executor option: every dispatch — query
evaluation, ``explain`` and the engine's delta discovery — asks
:func:`repro.query.compile.choose_executor`.  Replacing that one function
therefore pins an executor everywhere at once.  Pool workers inherit the
replacement when they fork, so a parallel run must start inside the
``with`` block.
"""

from contextlib import contextmanager

import pytest

from repro.query import compile as query_compile
from repro.query import execute_hash, execute_nested, execute_wcoj

#: Every executor of the compiled runtime, by the name traces report.
EXECUTORS = {"nested": execute_nested, "hash": execute_hash, "wcoj": execute_wcoj}


@contextmanager
def pinned_executor(name):
    """Run the block with every dispatch routed to the executor *name*."""
    executor = EXECUTORS[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            query_compile,
            "choose_executor",
            lambda compiled, first_only=False: executor,
        )
        yield executor
