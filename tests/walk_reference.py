"""Reference closed-walk measures, one site set at a time.

``held_karp_tour`` is a per-set Held-Karp over the L1 metric,
``is_connected`` a breadth-first connectedness test, and ``support_table``
runs both over every support of a window, one support at a time.  Tests
compare the single subset dynamic program of ``fklab.lattice.subset_walks``
and the g and ``connected`` fields of ``fklab.quantum.extract_couplings``
against them.
"""

#: Nearest-neighbour steps, in a fixed order (+x, -x, +y, -y, +z, -z).
NEIGHBOR_STEPS = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
)


def is_connected(sites):
    """Nearest-neighbour connectedness of a site set."""
    todo = set(sites)
    if not todo:
        return False
    seen = {next(iter(todo))}
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        for d in NEIGHBOR_STEPS:
            t = (s[0] + d[0], s[1] + d[1], s[2] + d[2])
            if t in todo and t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen == todo


def _l1(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2])


def held_karp_tour(sites):
    """Shortest closed L1 tour through the distinct sites (0 for a singleton)."""
    pts = list(dict.fromkeys(tuple(s) for s in sites))
    n = len(pts)
    if n == 0:
        raise ValueError("empty site set")
    if n == 1:
        return 0
    dist = [[_l1(a, b) for b in pts] for a in pts]
    full = 1 << (n - 1)
    # dp[mask][j]: shortest path from pts[n-1] through mask ending at j < n-1
    INF = 1 << 30
    dp = [[INF] * (n - 1) for _ in range(full)]
    for j in range(n - 1):
        dp[1 << j][j] = dist[n - 1][j]
    for mask in range(full):
        row = dp[mask]
        for j in range(n - 1):
            base = row[j]
            if base >= INF:
                continue
            rem = ~mask & (full - 1)
            while rem:
                bit = rem & -rem
                i = bit.bit_length() - 1
                nm = mask | bit
                cand = base + dist[j][i]
                if cand < dp[nm][i]:
                    dp[nm][i] = cand
                rem ^= bit
    return min(dp[full - 1][j] + dist[j][n - 1] for j in range(n - 1))


def walk_g(sites):
    """g = closed-walk length - 1 for any nonempty site set (singleton: 0)."""
    pts = set(tuple(s) for s in sites)
    return 0 if len(pts) <= 1 else held_karp_tour(pts) - 1


def support_table(window, max_g):
    """{sorted support: (g, connected)} for every support of the window with
    g <= max_g, one Held-Karp run and one connectedness search per support."""
    window = [tuple(s) for s in window]
    w = len(window)
    out = {}
    for a in range(1, 1 << w):
        if bin(a).count("1") - 1 > max_g:
            continue
        support = tuple(sorted(window[i] for i in range(w) if (a >> i) & 1))
        g = walk_g(support)
        if g <= max_g:
            out[support] = (g, is_connected(support))
    return out
