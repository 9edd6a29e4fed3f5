import pytest

from multlattice import verify
from multlattice.core import check_axioms, replace_mult, validate
from multlattice.ingest import random_lattice
from multlattice.spectrum import classify_all


def mk_chain(n, mult, name=None):
    return validate(size=n, covers=[(i, i + 1) for i in range(n - 1)],
                    mult=mult, name=name or f"c{n}")


@pytest.fixture(scope="session")
def named_corpus():
    return verify.corpus_named()


@pytest.fixture(scope="session")
def small_exhaustive_corpus():
    """All bounded tables on the lattice shapes with at most 3 elements,
    plus the diamond: enough variety for module-level property tests."""
    out = verify.corpus_exhaustive_tables(3)
    base = verify.shape_lattice("diamond")
    out += [replace_mult(base, t, name=f"diamond#t{i}")
            for i, t in enumerate(verify.enumerate_tables(base))]
    return out


@pytest.fixture(scope="session")
def assoc_noncomm():
    """A 4-element m-distributive associative non-commutative instance with a
    non-prime element below top, found by scanning the chain4 tables."""
    base = verify.shape_lattice("chain4")
    for i, t in enumerate(verify.enumerate_tables(base)):
        L = replace_mult(base, t, name=f"chain4#t{i}")
        ax = check_axioms(L)
        if not (ax.associative and not ax.commutative and ax.m_distributive):
            continue
        flags = classify_all(L)
        if any(x != L.top and not flags[x].prime for x in L.elements):
            return L
    raise AssertionError("no associative non-commutative instance found")


def corpus_hundred():
    """Exactly 100 deterministic lattices for the round-trip regression."""
    out = list(verify.corpus_named())                      # 31
    base = verify.shape_lattice("diamond")
    tables = list(verify.enumerate_tables(base))
    out += [replace_mult(base, t, name=f"diamond#t{i}")
            for i, t in enumerate(tables[:40])]            # 40
    base4 = verify.shape_lattice("chain4")
    tables4 = list(verify.enumerate_tables(base4))
    out += [replace_mult(base4, t, name=f"chain4#t{i}")
            for i, t in enumerate(tables4[:19])]           # 19
    out += [random_lattice(5, seed=s) for s in range(10)]   # 10
    assert len(out) == 100
    return out
