"""Verdict checks written independently of the library's searches.

They read the public carrier tables (zero, one, neg, comm rows, meet and join
tables) and nothing else, so a wrong search result cannot vouch for itself.
"""

from __future__ import annotations


def comm(A, a: int, b: int) -> bool:
    return bool((A.comm[a] >> b) & 1)


def morphism_defect(A, B, m) -> str | None:
    """None when the map preserves 0, 1, negation, commeasurability, and the
    meets and joins of commeasurable pairs; otherwise the first failing clause."""
    if len(m) != A.n or any(not 0 <= v < B.n for v in m):
        return "map out of range"
    if m[A.zero] != B.zero or m[A.one] != B.one:
        return "constants"
    for a in range(A.n):
        if m[A.neg[a]] != B.neg[m[a]]:
            return f"neg at {a}"
        for b in range(a + 1, A.n):
            if not comm(A, a, b):
                continue
            x, y = m[a], m[b]
            if not comm(B, x, y):
                return f"comm at {a},{b}"
            if m[A.meet[a][b]] != B.meet[x][y] or m[A.join[a][b]] != B.join[x][y]:
                return f"meet/join at {a},{b}"
    return None


def reflects_commeasurability(f) -> bool:
    A, B, m = f.dom, f.cod, f.map
    return all(comm(A, a, b) or not comm(B, m[a], m[b])
               for a in range(A.n) for b in range(A.n))


def images_commeasurable(f, g) -> bool:
    """The factorization criterion, recomputed from the codomain's relation."""
    Z = f.cod
    return all(comm(Z, x, y) for x in set(f.map) for y in set(g.map))


def is_isomorphism(A, B, m) -> bool:
    return (m is not None and A.n == B.n and len(set(m)) == B.n
            and morphism_defect(A, B, m) is None
            and all(comm(A, a, b) == comm(B, m[a], m[b])
                    for a in range(A.n) for b in range(A.n)))


def two_valued_defect(A, true_labels) -> str | None:
    """None when the listed elements are exactly the true ones of a two-valued
    assignment: 0 false, 1 true, negation flips, and on every commeasurable
    pair the meet is true iff both are and the join iff either is."""
    index = {lab: i for i, lab in enumerate(A.labels)}
    if any(lab not in index for lab in true_labels):
        return "unknown label"
    v = [0] * A.n
    for lab in true_labels:
        v[index[lab]] = 1
    if v[A.zero] or not v[A.one]:
        return "constants"
    for a in range(A.n):
        if v[A.neg[a]] == v[a]:
            return f"neg at {A.labels[a]}"
        for b in range(a + 1, A.n):
            if comm(A, a, b) and (v[A.meet[a][b]] != (v[a] & v[b])
                                  or v[A.join[a][b]] != (v[a] | v[b])):
                return f"meet/join at {A.labels[a]},{A.labels[b]}"
    return None


def structure_key(A) -> tuple:
    """The carrier without its labels; ray closures order their elements
    canonically by projection, so equal keys mean equal closures."""
    return (A.n, A.zero, A.one, A.neg, A.comm, A.meet, A.join)
