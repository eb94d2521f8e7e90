"""Shared error types and the one size bound of the exhaustive walks."""


class GuardError(ValueError):
    """A combinatorial guard was exceeded (depth, arity, or size bound).

    The CLI maps this to exit code 1; malformed input raises plain
    ValueError and exits 2.
    """


# The most items one exhaustive walk may list: strings of a nerve level
# (`fincat.NERVE_LEVEL_LIMIT`), composable pairs of a composition table, and
# the maps and cospans of the triple verification.  Compiling a nerve level
# keeps every string, its faces and their values in memory; Q(abp:2:8) at
# depth 3 would need 8,831,325 strings at level 3 and exhausts memory long
# before that.
SIZE_LIMIT = 1_000_000
