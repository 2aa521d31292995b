"""The benchmark's tracer finds the functions it times by name.

``perfbench/tracer.py`` wraps gencp functions listed in its ``MODULE_HOOKS``
and records a hook point it cannot find as missing, so a rename in gencp
silently zeroes a per-layer metric.  This pins the set of hook points that
do not resolve.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_only_the_moved_scoring_hooks_are_unresolved():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # resolved as ``Tracer.install`` resolves them
    unresolved = {f"{owner}.{attr}" for owner, attr, _span in tracer.MODULE_HOOKS
                  if getattr(tracer._resolve(owner), attr, None) is None}
    # The solver and beam search score solutions from the search path and
    # check the period through ``completes``, so they call neither function;
    # the oracle reads its period check from the answer it asks for its
    # children.  The model keeps no trail and the search calls none of the
    # other four, so they are gone; their metrics read -1 until the tracer
    # drops them.
    assert unresolved == {
        "gencp.solver.predicts_period", "gencp.solver.perplexity",
        "gencp.beam.predicts_period", "gencp.beam.perplexity", "gencp.harness.predicts_period",
        "gencp.model.SolverModel.save_state", "gencp.model.SolverModel.assigned_words",
        "gencp.model.SolverModel.contains_empty_variable", "gencp.solver.is_solution",
    }
