"""The five lattices with five elements and their m-distributive tables.

Stdlib only, and independent of the package under test: the order, join and
meet are computed here from the cover pairs, and the tables are enumerated by
backtracking over the products of join-irreducible elements.  On a finite
lattice an m-distributive multiplication is monotone and is the join of its
values on join-irreducibles (every element is the join of the
join-irreducibles below it, and ``x*bottom = bottom`` because ``x*bottom``
lies below ``bottom``), so a monotone table on join-irreducibles, extended by
joins, gives every m-distributive table exactly once; the extension is kept
when it satisfies both distributive laws.
"""

from __future__ import annotations

from itertools import product as cartesian

# Up to isomorphism there are five lattices with five elements (Heitzig and
# Reinhold, "Counting finite lattices", Algebra Universalis 2002).  Element 0
# is the bottom and 4 the top.
SHAPES = {
    "chain5": ((0, 1), (1, 2), (2, 3), (3, 4)),
    "pentagon": ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4)),
    "m3": ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
    "1+B2": ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4)),
    "B2+1": ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)),
}
SIZE = 5

# m-distributive table counts, found by an exhaustive scan of every bounded
# table; the backtracking below must reproduce them.
KNOWN_COUNTS = {"chain5": 7429, "pentagon": 4, "m3": 1, "1+B2": 144,
                "B2+1": 61}


class Order:
    """Order relation, join and meet of a five-element lattice given by covers."""

    def __init__(self, covers):
        size = SIZE
        leq = [[i == j for j in range(size)] for i in range(size)]
        for a, b in covers:
            leq[a][b] = True
        for k in range(size):
            for i in range(size):
                if leq[i][k]:
                    for j in range(size):
                        if leq[k][j]:
                            leq[i][j] = True
        self.size = size
        self.leq = leq
        self.join = [[self._extreme(x, y, upper=True) for y in range(size)]
                     for x in range(size)]
        self.meet = [[self._extreme(x, y, upper=False) for y in range(size)]
                     for x in range(size)]
        self.bottom = next(x for x in range(size)
                           if all(leq[x][y] for y in range(size)))
        lower_covers = [[a for a, b in covers if b == x] for x in range(size)]
        self.join_irreducibles = [x for x in range(size)
                                  if len(lower_covers[x]) == 1]

    def _extreme(self, x, y, upper):
        leq = self.leq
        if upper:
            bounds = [z for z in range(self.size) if leq[x][z] and leq[y][z]]
            best = [z for z in bounds if all(leq[z][w] for w in bounds)]
        else:
            bounds = [z for z in range(self.size) if leq[z][x] and leq[z][y]]
            best = [z for z in bounds if all(leq[w][z] for w in bounds)]
        if len(best) != 1:
            raise ValueError(f"not a lattice at ({x}, {y})")
        return best[0]


def m_distributive(order: Order, table) -> bool:
    """Both distributive laws ``(x v y)z = xz v yz`` and ``z(x v y) = zx v zy``."""
    j = order.join
    rng = range(order.size)
    return all(table[j[x][y]][z] == j[table[x][z]][table[y][z]]
               and table[z][j[x][y]] == j[table[z][x]][table[z][y]]
               for x in rng for y in rng for z in rng)


def m_distributive_tables(covers) -> list:
    """Every m-distributive multiplication table on the five-element lattice
    given by ``covers``, in a fixed order, each as a tuple of row tuples."""
    order = Order(covers)
    size = order.size
    ji = sorted(order.join_irreducibles,
                key=lambda x: sum(order.leq[y][x] for y in range(size)))
    cells = list(cartesian(ji, ji))
    # cells below (a, b) componentwise come earlier in this order, so a
    # monotone table only needs a lower bound from the cells already placed
    below = [[k for k, (c, d) in enumerate(cells[:i])
              if order.leq[c][a] and order.leq[d][b]]
             for i, (a, b) in enumerate(cells)]
    values = [order.bottom] * len(cells)
    out = []

    def extend():
        table = [[order.bottom] * size for _ in range(size)]
        for k, (a, b) in enumerate(cells):
            v = values[k]
            for x in range(size):
                if order.leq[a][x]:
                    row = table[x]
                    for y in range(size):
                        if order.leq[b][y]:
                            row[y] = order.join[row[y]][v]
        return table

    def place(i):
        if i == len(cells):
            table = extend()
            if m_distributive(order, table):
                out.append(tuple(tuple(row) for row in table))
            return
        a, b = cells[i]
        floor = order.bottom
        for k in below[i]:
            floor = order.join[floor][values[k]]
        cap = order.meet[a][b]
        for z in range(size):
            if order.leq[floor][z] and order.leq[z][cap]:
                values[i] = z
                place(i + 1)

    place(0)
    return out
