"""REP002 positive fixture: unpicklable fleet repair callables."""

from repro.fleet import RollingReprogrammer
from repro.runtime.telemetry import RunLog


def literal_lambda(group):
    return RollingReprogrammer(
        group, reprogram_fn=lambda replica: None  # line 9
    )


def lambda_via_name(group):
    repair = lambda replica: None  # noqa: E731
    return RollingReprogrammer(group, reprogram_fn=repair)  # line 15


def nested_function_positional(group):
    def repair(replica):
        return None

    return RollingReprogrammer(
        group, 1, repair, RunLog()  # line 23
    )
