"""Finite group presentations with Tietze simplification.

Words are tuples of (generator, exponent) letters with exponent +1 or -1.
Words never change in place, so the word routines share the letter
objects they copy instead of rebuilding them.  A presentation's relators
are tidy by construction: cyclically reduced, nonempty, and one per
cyclic key.  Simplification repeatedly eliminates a generator that
appears exactly once in some relator; that move never changes the group,
so invariants such as the abelianization are preserved and a
presentation that shrinks to no generators certifies triviality.

The moves come in a fixed order (see `GroupPresentation.simplified`), and
each one rewrites and re-keys only the relators that hold the eliminated
generator, so its cost follows those relators, not the whole presentation.
"""

from __future__ import annotations

import heapq

from .record import Record
from .snf import smith_diagonal, torsion_from_diagonal

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def free_reduce(word) -> Word:
    out: list[Letter] = []
    for letter in word:
        gen, exp = letter
        if exp not in (1, -1):
            raise ValueError("letters carry exponent +1 or -1")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(word))


def cyclic_reduce(word) -> Word:
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i][0] == w[j][0] and w[i][1] == -w[j][1]:
        i, j = i + 1, j - 1
    return w[i:j + 1]


def _substitute(word: Word, gen: str, replacement: Word) -> Word:
    """`word` with each gen^(+-1) replaced by `replacement`^(+-1), unreduced."""
    rep_inv = invert_word(replacement)
    out: list[Letter] = []
    for letter in word:
        if letter[0] != gen:
            out.append(letter)
        elif letter[1] == 1:
            out.extend(replacement)
        else:
            out.extend(rep_inv)
    return tuple(out)


def _cyclic_key(word: Word):
    """Smallest rotation of the word or its inverse, for deduplication."""
    best = None
    for w in (word, invert_word(word)):
        for k in range(max(1, len(w))):
            rot = w[k:] + w[:k]
            if best is None or rot < best:
                best = rot
    return best


class GroupPresentation(Record):
    """The constructor is the one place relators are tidied: it keeps the
    first of each cyclic key, and the keys in `_keys` for `simplified`."""

    __slots__ = ("generators", "relators", "_keys")

    def __init__(self, generators, relators):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generators")
        known = set(generators)
        word_of_key: dict = {}
        for rel in relators:
            for gen, _ in rel:
                if gen not in known:
                    raise ValueError(f"relator mentions unknown generator {gen!r}")
            word = cyclic_reduce(rel)
            if word:
                word_of_key.setdefault(_cyclic_key(word), word)
        self.generators = generators
        self.relators = tuple(word_of_key.values())
        self._keys = tuple(word_of_key)

    def abelianization(self) -> tuple[int, list[int]]:
        """(free rank, torsion orders) of the abelianized group."""
        gens = sorted(self.generators)
        col = {g: i for i, g in enumerate(gens)}
        rows = []
        for rel in self.relators:
            r = [0] * len(gens)
            for g, e in rel:
                r[col[g]] += e
            rows.append(r)
        diag = smith_diagonal(rows, len(gens))
        rank = len(gens) - len(diag)
        return rank, torsion_from_diagonal(diag)

    def simplified(self, budget: int = 10000) -> "GroupPresentation":
        """Eliminate generators occurring exactly once in some relator.

        Deterministic: each move takes the least relator under
        (length, word) that has a generator occurring once in it, and the
        least such generator by name; that relator is solved for the
        generator and dropped, and the solution is substituted into the
        rest.  After every move the relators are cyclically reduced,
        empty ones dropped, and of relators with the same cyclic key
        (rotation and inversion) only the earliest in list order kept.
        `budget` (nonnegative) caps the number of moves, so the call
        terminates even on adversarial growth.

        The state is updated in place rather than rebuilt per move: the
        relators sit in fixed slots in list order, an index maps each
        generator to the slots that mention it, each slot keeps its
        cyclic key and a key map finds duplicates, and a heap holds
        (length, word, slot) for relators with a generator occurring
        once, entries going stale when their slot changes.  A move thus
        touches only the relators holding the eliminated generator.
        """
        if budget < 0:
            raise ValueError(f"simplification budget must be nonnegative, "
                             f"got {budget}")
        gens = sorted(self.generators)
        rels: list[Word | None] = [None] * len(self.relators)
        keys: list = [None] * len(self.relators)
        slot_of_key: dict = {}
        slots_with: dict[str, set[int]] = {g: set() for g in gens}
        ready: list[tuple[int, Word, int]] = []

        def drop(i: int):
            for g, _ in rels[i]:
                slots_with[g].discard(i)
            del slot_of_key[keys[i]]
            rels[i] = None

        def place(i: int, word: Word, key):
            # of two relators with one key the lower slot stays
            other = slot_of_key.get(key)
            if other is not None:
                if other < i:
                    return
                drop(other)
            rels[i], keys[i], slot_of_key[key] = word, key, i
            for g, _ in word:
                slots_with[g].add(i)
            if _lone_generator(word) is not None:
                heapq.heappush(ready, (len(word), word, i))

        for i, (rel, key) in enumerate(zip(self.relators, self._keys)):
            place(i, rel, key)
        steps = 0
        while steps < budget and ready:
            _, rel, i = heapq.heappop(ready)
            if rels[i] != rel:
                continue
            gen = _lone_generator(rel)
            replacement = _solve_for(rel, gen)
            gens.remove(gen)
            drop(i)
            # clear every touched slot before refilling any, so that no
            # stale key of a touched relator shadows a new one
            touched = sorted(slots_with[gen])
            old = [rels[j] for j in touched]
            for j in touched:
                drop(j)
            del slots_with[gen]
            for j, word in zip(touched, old):
                word = cyclic_reduce(_substitute(word, gen, replacement))
                if word:
                    place(j, word, _cyclic_key(word))
            steps += 1
        return GroupPresentation(gens, [r for r in rels if r is not None])


def abelian_label(betti: int, torsion) -> str:
    """Z^betti + Z/t + ... as text; "0" for the trivial group."""
    parts = []
    if betti == 1:
        parts.append("Z")
    elif betti > 1:
        parts.append(f"Z^{betti}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def _lone_generator(word: Word):
    """The least generator occurring exactly once in `word`, or None."""
    counts: dict[str, int] = {}
    for g, _ in word:
        counts[g] = counts.get(g, 0) + 1
    return min((g for g, c in counts.items() if c == 1), default=None)


def _solve_for(rel: Word, gen: str) -> Word:
    """Rotate `rel` to start with gen^e, then read off gen = (rest)^(-e)."""
    pos = next(i for i, (g, _) in enumerate(rel) if g == gen)
    rot = rel[pos:] + rel[:pos]
    _, e = rot[0]
    rest = rot[1:]
    return invert_word(rest) if e == 1 else tuple(rest)
