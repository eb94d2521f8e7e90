"""Finite group presentations with Tietze simplification.

Words are tuples of (generator, exponent) letters with exponent +1 or -1.
Relators are kept cyclically reduced.  Simplification repeatedly eliminates
a generator that appears exactly once in some relator; that move never
changes the group, so invariants such as the abelianization are preserved
and a presentation that shrinks to no generators certifies triviality.

The moves come in a fixed order (see `GroupPresentation.simplified`), and
each one rewrites and re-keys only the relators that hold the eliminated
generator, so its cost follows those relators, not the whole presentation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .snf import smith_diagonal, torsion_from_diagonal

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def free_reduce(word) -> Word:
    out: list[Letter] = []
    for gen, exp in word:
        if exp not in (1, -1):
            raise ValueError("letters carry exponent +1 or -1")
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def invert_word(word) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(word))


def cyclic_reduce(word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def _substitute(word: Word, gen: str, replacement: Word) -> Word:
    rep_inv = invert_word(replacement)
    out: list[Letter] = []
    for g, e in word:
        if g != gen:
            out.append((g, e))
        elif e == 1:
            out.extend(replacement)
        else:
            out.extend(rep_inv)
    return free_reduce(tuple(out))


def _cyclic_key(word: Word):
    """Smallest rotation of the word or its inverse, for deduplication."""
    best = None
    for w in (word, invert_word(word)):
        for k in range(max(1, len(w))):
            rot = w[k:] + w[:k]
            if best is None or rot < best:
                best = rot
    return best


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generators")
        known = set(self.generators)
        for rel in self.relators:
            for gen, exp in rel:
                if gen not in known:
                    raise ValueError(f"relator mentions unknown generator {gen!r}")
                if exp not in (1, -1):
                    raise ValueError("letters carry exponent +1 or -1")

    @staticmethod
    def build(generators, relators) -> "GroupPresentation":
        rels = []
        seen = set()
        for rel in relators:
            w = cyclic_reduce(tuple(rel))
            if not w:
                continue
            key = _cyclic_key(w)
            if key in seen:
                continue
            seen.add(key)
            rels.append(w)
        return GroupPresentation(tuple(generators), tuple(rels))

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

        def place(i: int, word: Word):
            # an empty relator is dropped; of two with one key the lower slot stays
            if not word:
                return
            key = _cyclic_key(word)
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

        for i, rel in enumerate(self.relators):
            place(i, cyclic_reduce(rel))
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
                place(j, cyclic_reduce(_substitute(word, gen, replacement)))
            steps += 1
        return GroupPresentation(tuple(gens),
                                 tuple(r for r in rels if r is not None))

    def is_recognizably_trivial(self) -> bool:
        return not self.simplified().generators


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
