"""Descending series of an element and the nilpotency/solvability flags.

Three series are tracked: the lower central series x, x*x, (x*x)*x, ...
(multiplying by x on the right), the right series multiplying by x on the
left, and the derived series of iterated squares.  Each is descending
automatically because products sit below both factors, and on a finite
lattice each stabilizes; sequences stop at the first repeated value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (MDistributivityRequired, MultLattice, TheoremViolation,
                   law_witness, require)
from .spectrum import HyperabelianReport, hyperabelian_report


@dataclass
class SeriesReport:
    element: int
    lower_central: tuple
    right_series: tuple
    derived: tuple
    left_nilpotent: bool
    right_nilpotent: bool
    solvable: bool
    idempotent: bool
    abelian: bool
    stabilization_index: dict    # sequence name -> 1-based index of the last term


def _descend(L: MultLattice, x: int, step) -> tuple:
    seq = [x]
    while True:
        nxt = step(seq[-1])
        if not L.relation[nxt][seq[-1]]:
            raise TheoremViolation("series failed to descend", witness=(x, nxt))
        if nxt == seq[-1]:
            return tuple(seq)
        seq.append(nxt)


def series(L: MultLattice, x: int) -> SeriesReport:
    """All three series to stabilization, plus the derived-element identity
    and, on associative lattices, agreement of the three nilpotency flags."""
    mt = L.mult_table
    lower = _descend(L, x, lambda c: mt[c][x])
    right = _descend(L, x, lambda c: mt[x][c])
    derived = _descend(L, x, lambda c: mt[c][c])

    square = mt[x][x]
    # x' = x*x is simultaneously the second lower-central and derived term.
    for seq in (lower, derived):
        second = seq[1] if len(seq) > 1 else seq[0]
        if second != square:
            raise TheoremViolation("derived element identity fails", witness=x)

    report = SeriesReport(
        x, lower, right, derived,
        left_nilpotent=lower[-1] == L.bottom,
        right_nilpotent=right[-1] == L.bottom,
        solvable=derived[-1] == L.bottom,
        idempotent=square == x,
        abelian=square == L.bottom,
        stabilization_index={"lower_central": len(lower),
                             "right_series": len(right),
                             "derived": len(derived)})
    if law_witness(L, "associative") is None:
        if not (report.left_nilpotent == report.right_nilpotent == report.solvable):
            raise TheoremViolation(
                "nilpotency flags must coincide under associativity", witness=x)
    return report


def solvable_witness_chain(L: MultLattice) -> HyperabelianReport:
    """The hyperabelian report of ``L``, once its greedy squaring chain from
    bottom to top, 0 = x0 < ... < xk = top with x_{i+1}^2 <= x_i, has been
    checked step by step.  A lattice that is not hyperabelian has no chain;
    ``witnesses["a"]``, its smallest semiprime element below top, blocks
    one.  Requires m-distributivity."""
    require(L, "series.solvable_chain", MDistributivityRequired)
    rep = hyperabelian_report(L)
    chain = rep.chain or ()
    for a, b in zip(chain, chain[1:]):
        if not (L.lt(a, b) and L.relation[L.mult_table[b][b]][a]):
            raise TheoremViolation("squaring chain fails to validate", witness=(a, b))
    return rep
