"""Degeneracy words letter by letter: code only the tests use.

The package writes a normal word as the decreasing list of the doubles of
its surjection, and composes, reverses and takes faces of words in closed
form.  These are the routines that form replaced, kept as its oracle: a
new letter bubbles past the letters it meets (s_i s_j = s_(j+1) s_i for
i <= j), a face is pushed through the word one letter at a time, and a
monotone map acts by its elementary face and degeneracy steps.
"""

from qcat.ordmaps import DeltaMap


def reference_insert_degeneracy(i: int, word: tuple) -> tuple:
    """Normal form of s_i applied on top of an already normal word."""
    if not word or i > word[0]:
        return (i,) + word
    return (word[0] + 1,) + reference_insert_degeneracy(i, word[1:])


def reference_compose_words(outer: tuple, inner: tuple) -> tuple:
    """s_outer s_inner, normalized one letter of outer at a time; outer
    may be any letter sequence."""
    out = inner
    for letter in reversed(outer):
        out = reference_insert_degeneracy(letter, out)
    return out


def reference_op_word(word: tuple, n: int) -> tuple:
    """Letter t (0-based from the left) of an n-dimensional value's word
    acts at dimension n - 1 - t, so it reverses to n - 1 - t - word[t];
    the letters are re-normalized from the innermost outward."""
    out = ()
    for t in range(len(word) - 1, -1, -1):
        out = reference_insert_degeneracy(n - 1 - t - word[t], out)
    return out


def reference_face(space, value, i):
    """d_i on a value, pushed through its word one letter at a time."""
    word, x = value
    letters = []
    cur = i
    for pos, j in enumerate(word):
        if cur < j:
            letters.append(j - 1)
        elif cur in (j, j + 1):
            return (reference_compose_words(tuple(letters), word[pos + 1:]), x)
        else:
            letters.append(j)
            cur -= 1
    if space.dims[x] == 0:
        raise ValueError("no faces of a vertex")
    bw, bx = space.faces[x][cur]
    return (reference_compose_words(tuple(letters), bw), bx)


def elementary_ops(f: DeltaMap) -> tuple:
    """The contravariant action of f as elementary steps, in application
    order: a face d_i for every vertex f misses (largest first), then a
    degeneracy s_j for every position f doubles (smallest first)."""
    ops = [("d", v) for v in reversed(f.misses())]
    ops += [("s", j) for j in f.doubles()]
    return tuple(ops)


def per_letter_action(space, f: DeltaMap, value):
    """f's action by its elementary steps, one face or letter at a time."""
    for kind, idx in elementary_ops(f):
        word, x = value
        value = reference_face(space, value, idx) if kind == "d" else \
            (reference_insert_degeneracy(idx, word), x)
    return value
