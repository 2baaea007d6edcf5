"""Helpers used only by the test suites."""

from fractions import Fraction


def incidence_matrix(digraph) -> list[list[int]]:
    """Signed node-arc incidence: -1 at the tail, +1 at the head.

    Columns follow digraph.arcs; for the full digraph that is the block
    order (forward rows, forward shorts, reverse rows, reverse shorts).
    """
    rows = [[0] * len(digraph.arcs) for _ in range(digraph.n)]
    for c, a in enumerate(digraph.arcs):
        rows[a.tail - 1][c] -= 1
        rows[a.head - 1][c] += 1
    return rows


def determinant(matrix) -> Fraction:
    """Determinant via fraction-free-ish elimination (fine at our sizes)."""
    size = len(matrix)
    work = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det *= pv
        for r in range(col + 1, size):
            if work[r][col] != 0:
                ratio = work[r][col] / pv
                work[r] = [a - ratio * b for a, b in zip(work[r], work[col])]
    return det


def fraction_costs(matrix, demands, point):
    """Reference cost split of `separation.assign_costs`, in Fractions.

    Returns (slack, gap, forward, reverse) straight from the definition:
    row slacks summed over each row's support, mu = ceil(sum x) - sum x,
    v the incidence vector of the last column in the extended row stack.
    Raises InfeasiblePoint exactly as `assign_costs` does.
    """
    from circover import InfeasiblePoint

    n, m = matrix.n, matrix.m
    x = [Fraction(v) for v in point]
    slack = []
    for i in range(1, m + 1):
        s = sum((x[j - 1] for j in matrix.support(i)), Fraction(0)) - demands[i - 1]
        if s < 0:
            raise InfeasiblePoint(f"row {i} is short by {-s}")
        slack.append(s)
    for j in range(1, n + 1):
        if x[j - 1] < 0:
            raise InfeasiblePoint(f"column {j} is negative: {x[j - 1]}")
        slack.append(x[j - 1])
    total = sum(x)
    mu = -(-total.numerator // total.denominator) - total  # ceil(total) - total
    last = [Fraction(0)] * (m + n)
    for i in range(1, m + 1):
        if n in matrix.support(i):
            last[i - 1] = Fraction(1)
    last[m + n - 1] = Fraction(1)
    forward = tuple(mu * (s - (1 - mu) * v) for s, v in zip(slack, last))
    reverse = tuple((1 - mu) * (s + mu * v) for s, v in zip(slack, last))
    return tuple(slack), mu, forward, reverse


def fraction_negative_circuit(digraph, forward, reverse):
    """Reference Bellman-Ford over Fraction costs, the sweep the integer
    kernel `digraph.find_negative_circuit` must reproduce arc for arc.

    Every node starts at distance 0, arcs are relaxed in `digraph.arcs`
    order with in-place updates, the first round without a change ends the
    search, and the first arc still improving in round n yields the
    predecessor cycle, rotated to start at its smallest node.
    """
    from circover import ClosedPath

    def arc_cost(a):
        return forward[a.slot] if a.is_forward else reverse[a.slot]

    n = digraph.n
    dist = {v: Fraction(0) for v in range(1, n + 1)}
    pred = {v: None for v in range(1, n + 1)}
    trigger = None
    for rnd in range(n):
        changed = False
        for a in digraph.arcs:
            nd = dist[a.tail] + arc_cost(a)
            if nd < dist[a.head]:
                dist[a.head] = nd
                pred[a.head] = a
                changed = True
                if rnd == n - 1:
                    trigger = a
                    break
        if trigger is not None:
            break
        if not changed:
            return None
    if trigger is None:
        return None
    seen = {}
    node = trigger.head
    chain = []
    while node not in seen:
        seen[node] = len(chain)
        a = pred[node]
        assert a is not None, "improved nodes always have predecessors"
        chain.append(a)
        node = a.tail
    cyc = chain[seen[node]:]
    cyc.reverse()
    path = ClosedPath(tuple(cyc), n, digraph.slots).canonical()
    assert sum((arc_cost(a) for a in path.arcs), Fraction(0)) < 0
    return path
