"""REP002 negative fixture: picklable fleet repair callables."""

import functools

from repro.fleet import RollingReprogrammer, restore_replica


def _repair(replica, strict=False):
    restore_replica(replica)


def default_repair(group):
    # No callable passed at all: the picklable default applies.
    return RollingReprogrammer(group)


def module_level(group):
    return RollingReprogrammer(group, reprogram_fn=restore_replica)


def partial_over_module_level(group):
    return RollingReprogrammer(
        group, reprogram_fn=functools.partial(_repair, strict=True)
    )


def early_positionals_are_not_callables(group, min_live):
    # group/min_live occupy the first two positions; neither is the
    # repair callable, so neither should be inspected.
    return RollingReprogrammer(group, min_live)


def module_level_positional(group):
    return RollingReprogrammer(group, 2, restore_replica)
