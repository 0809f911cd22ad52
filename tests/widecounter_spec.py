"""A registered test-only spec family shared by several test modules.

It lives in its own importable module (not inside a test file) and rides
the production provider mechanism: importing it registers
``_test_widecounter`` and appends ``widecounter_spec`` to
``PROVIDER_MODULES``, so ``build_spec`` finds it by name as it finds the
built-in families.
"""

from repro.tla import Action, Invariant, Specification
from repro.tla.registry import PROVIDER_MODULES, register_spec


def wide_counter_factory(limit=40, invariant_bound=None, width=6, ceiling=8):
    """A tunable spec family: wide frontiers, optional violation, deadlock."""

    def init():
        yield {"xs": (0,) * width}

    def increment(state):
        xs = state["xs"]
        for i in range(width):
            if xs[i] < limit:
                yield {"xs": xs[:i] + (xs[i] + 1,) + xs[i + 1 :]}

    invariants = []
    if invariant_bound is not None:
        invariants.append(
            Invariant("Bounded", lambda s: sum(s["xs"]) < invariant_bound)
        )
    return Specification(
        "WideCounter",
        variables=("xs",),
        init=init,
        actions=[Action("Increment", increment)],
        invariants=invariants,
        constraint=lambda s: sum(s["xs"]) <= ceiling,
    )


register_spec("_test_widecounter", wide_counter_factory, replace=True)
if "widecounter_spec" not in PROVIDER_MODULES:
    PROVIDER_MODULES.append("widecounter_spec")
