"""Shared error types and the one size guard of the exhaustive walks."""


class GuardError(ValueError):
    """A combinatorial guard was exceeded (depth, arity, or size bound).

    The CLI maps this to exit code 1; malformed input raises plain
    ValueError and exits 2.
    """


# The most items one walk may keep (strings of a nerve level, composable
# pairs of a composition table, the maps and cospans of the triple
# verification), and the most it may only read, at about a microsecond a
# read (axiom-check triples, cut-table comparisons, element applications).
# Q(abp:2:8) at depth 3 would keep 8,831,325 strings at level 3 and
# exhausts memory long before that.
SIZE_LIMIT = 1_000_000
READ_LIMIT = 10 * SIZE_LIMIT


def require(stage: str, count: int, what: str, limit: int):
    """Raise GuardError if count > limit.  Pass `errors.SIZE_LIMIT` or
    `errors.READ_LIMIT`, read at the call, so that a patch of `errors`
    moves every guard."""
    if count > limit:
        raise GuardError(f"{stage}: {count} {what}, over the limit of {limit}")
