import pytest

from finsite import corpus
from finsite.fincat import StructureError
from finsite.sieves import Topology, is_topology


@pytest.fixture
def one():
    return corpus.one()


@pytest.fixture
def walk2():
    return corpus.walk2()


@pytest.fixture
def sier(walk2):
    return corpus.sier(walk2)


@pytest.fixture
def two_point(walk2):
    return corpus.two_point(walk2)


@pytest.fixture
def retract():
    return corpus.retract()


@pytest.fixture
def map_topology():
    """Transport a topology along an isomorphism of categories (an oracle)."""

    def transport(iso, topology):
        tgt = iso.target
        moved = Topology(tgt, {iso.ob(c): frozenset(iso.ar(f) for f in s) for c, s in topology.least.items()})
        ok, witness = is_topology(tgt, moved.covers)
        if not ok:
            raise StructureError("transport failed (functor not an iso?): {}".format(witness))
        return moved

    return transport
