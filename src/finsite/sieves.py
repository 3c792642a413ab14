"""Sieves, coverages and Grothendieck topologies on finite categories.

A sieve is a frozenset of arrow names sharing a target, and a coverage is a
plain map from objects to generating families.  On a finite category covers
are closed under intersection, so a topology is the up-set of its least
covering sieve S(c) at each object, and a topology stores S(c) alone;
``saturate`` shrinks the least covers of a coverage until they are stable
and transitive.  Each "exists a covering family such that ..." question is then
one inclusion: the qualifying arrows of such a question always form a sieve,
and a sieve covers c exactly when it contains S(c).  Along a functor F, the
sieves on c whose image covers F(c) are an up-set; its meet is found from
the largest sieve lacking each arrow (``image_cover_meet``), which decides
the induced topology and cover reflection without a sieve lattice.  The full
up-sets are built only where they are the subject: printing a topology, the
all-covers oracle ``is_topology``, and ``topology_candidate_count``.
"""
from __future__ import annotations

from functools import cached_property

from .fincat import FinCategory, FinFunctor, Record, StructureError


class CapExceeded(RuntimeError):
    """An enumeration was asked to continue past its cap."""


def generate_sieve(base: FinCategory, apex: str, family) -> frozenset[str]:
    """Smallest sieve on ``apex`` containing the family (empty family allowed)."""
    family = tuple(family)
    for f in family:
        if base.tgt[f] != apex:
            raise StructureError("mixed targets in generating family", witness=f)
    out = set()
    for f in family:
        out.add(f)
        for g in base.into(base.src[f]):
            out.add(base.compose(f, g))
    return frozenset(out)


def maximal_sieve(base: FinCategory, apex: str) -> frozenset[str]:
    return frozenset(base.into(apex))


def pullback_arrows(base: FinCategory, f: str, arrows: frozenset[str]) -> frozenset[str]:
    return frozenset(g for g in base.into(base.src[f]) if base.compose(f, g) in arrows)


# Largest sieve lattice ``sieve_lattice`` builds.  n parallel arrows into one
# object give 2^n + 1 sieves; the largest lattice the experiments reach has 188.
SIEVE_LATTICE_CAP = 2**16


def sieve_lattice(base: FinCategory, apex: str) -> tuple[frozenset[str], ...]:
    """All sieves on ``apex``: the union closure of the principal sieves. Memoised.

    Raises CapExceeded as soon as the lattice passes ``SIEVE_LATTICE_CAP``.
    """
    cache = base._scratch.setdefault("sieve_lattice", {})
    if apex not in cache:
        principals = {generate_sieve(base, apex, (f,)) for f in base.into(apex)}
        lattice = {frozenset()} | principals
        frontier = set(lattice)
        while frontier:
            fresh = set()
            for s in frontier:
                for p in principals:
                    u = s | p
                    if u not in lattice:
                        lattice.add(u)
                        fresh.add(u)
                        if len(lattice) > SIEVE_LATTICE_CAP:
                            raise CapExceeded(
                                "more than {} sieves on {}".format(SIEVE_LATTICE_CAP, apex)
                            )
            frontier = fresh
        cache[apex] = tuple(sorted(lattice, key=lambda s: (len(s), tuple(sorted(s)))))
    return cache[apex]


class Topology(Record):
    """A topology as its least covering sieve S(c) per object: J(c) = ↑S(c).

    {S(c)} is a coverage that generates the topology.  ``is_cover`` takes a
    sieve; any set of arrows containing S(c) would pass.
    """

    _fields = ("base", "least")

    def is_cover(self, obj: str, sieve: frozenset[str]) -> bool:
        return self.least[obj] <= sieve

    def sieves(self, obj: str) -> tuple[frozenset[str], ...]:
        """Every cover of ``obj``, sorted by size and then by content."""
        return tuple(s for s in sieve_lattice(self.base, obj) if self.least[obj] <= s)

    @cached_property
    def covers(self) -> dict[str, frozenset[frozenset[str]]]:
        """J itself, every cover per object; built from the sieve lattices on first use."""
        return {c: frozenset(self.sieves(c)) for c in self.base.objects}

    def __hash__(self):
        return hash((self.base, frozenset(self.least.items())))


def trivial_topology(base: FinCategory) -> Topology:
    return Topology(base, {c: maximal_sieve(base, c) for c in base.objects})


def saturate(base: FinCategory, generators) -> Topology:
    """Least topology on ``base`` in which each generator family, a list of
    arrows into its object, generates a cover.

    Covers of a finite site are closed under intersection, so the answer is
    the largest least-cover assignment S that is stable and transitive and
    lies inside every generated sieve.  Start from S(c) = the maximal sieve
    cut down by each generated sieve at c, and shrink S by the two rules of
    ``_least_cover_failure`` until neither changes it.  Every step keeps S
    above the least covers of any topology containing the generators, and
    the fixed point is stable and transitive, so it is the least topology.
    """
    least = {c: maximal_sieve(base, c) for c in base.objects}
    for c, fams in generators.items():
        if c not in least:
            raise StructureError("coverage indexes unknown object {}".format(c), witness=c)
        for fam in fams:
            fam = tuple(fam)
            for f in fam:
                if f not in base.tgt:
                    raise StructureError("family member {} is not an arrow".format(f), witness=f)
                if base.tgt[f] != c:
                    raise StructureError("family member {} does not target {}".format(f, c), witness=f)
            least[c] &= generate_sieve(base, c, fam)
    changed = True
    while changed:
        changed = False
        for f in base.arrows:
            target = least[base.tgt[f]]
            unstable = {g for g in least[base.src[f]] if base.compose(f, g) not in target}
            if unstable:
                least[base.src[f]] -= unstable
                changed = True
        for c in base.objects:
            forced = frozenset(base.compose(f, g) for f in least[c] for g in least[base.src[f]])
            if forced != least[c]:
                least[c] = forced
                changed = True
    return Topology(base, least)


def is_topology(base: FinCategory, covers) -> tuple[bool, tuple]:
    """Exhaustively check maximality, stability and transitivity.

    Returns (ok, witness); the witness names the failing axiom and datum.
    The covers of each object are visited in sorted order, so the witness
    does not depend on the hash seed.
    """
    covers = {c: frozenset(map(frozenset, s)) for c, s in covers.items()}
    ordered = {c: sorted(s, key=sorted) for c, s in covers.items()}
    for c in base.objects:
        if c not in covers:
            return False, ("missing_object", c)
        for s in ordered[c]:
            for f in sorted(s):
                if base.tgt[f] != c:
                    return False, ("not_a_sieve", (c, tuple(sorted(s))))
                for g in base.into(base.src[f]):
                    if base.compose(f, g) not in s:
                        return False, ("not_a_sieve", (c, tuple(sorted(s))))
    for c in base.objects:
        if maximal_sieve(base, c) not in covers[c]:
            return False, ("maximality", c)
    for c in base.objects:
        for s in ordered[c]:
            for f in base.into(c):
                if pullback_arrows(base, f, s) not in covers[base.src[f]]:
                    return False, ("stability", (c, tuple(sorted(s)), f))
    for c in base.objects:
        for r in sieve_lattice(base, c):
            if r in covers[c]:
                continue
            for t in ordered[c]:
                if all(pullback_arrows(base, f, r) in covers[base.src[f]] for f in t):
                    return False, ("transitivity", (c, tuple(sorted(r)), tuple(sorted(t))))
    return True, ()


def topology_leq(j1: Topology, j2: Topology) -> bool:
    if j1.base != j2.base:
        raise StructureError("topologies live on different bases")
    return all(j2.least[c] <= j1.least[c] for c in j1.base.objects)


def image_sieve(functor: FinFunctor, apex: str, arrows) -> frozenset[str]:
    """The sieve on F(apex) generated by the images of ``arrows``."""
    return generate_sieve(functor.target, functor.ob(apex), tuple(functor.ar(f) for f in sorted(arrows)))


def sieve_without(base: FinCategory, apex: str, g: str) -> frozenset[str]:
    """M_g: the arrows f into ``apex`` that ``g`` does not factor through.

    It is a sieve, it lacks g, and it holds every sieve on ``apex`` that
    lacks g, so it is the largest such sieve.
    """
    return frozenset(
        f
        for f in base.into(apex)
        if not any(base.compose(f, h) == g for h in base.hom(base.src[g], base.src[f]))
    )


def image_cover_meet(functor: FinFunctor, target_topology: Topology, apex: str) -> frozenset[str]:
    """The meet of C(apex), the sieves on ``apex`` whose image covers F(apex).

    C(apex) is an up-set, and every sieve lacking g lies inside M_g
    (``sieve_without``), so g is in every member of C(apex) exactly when M_g
    is not one.  That is one image test per arrow into ``apex``, and no
    sieve lattice.  An empty C(apex) has every arrow into ``apex`` as meet.
    """
    fc = functor.ob(apex)
    return frozenset(
        g
        for g in functor.source.into(apex)
        if not target_topology.is_cover(fc, image_sieve(functor, apex, sieve_without(functor.source, apex, g)))
    )


class InducedTopologyError(StructureError):
    """The induced-covers candidate fails a topology axiom."""


def induced_image_topology(functor: FinFunctor, target_topology: Topology) -> Topology:
    """Covers upstairs are the sieves whose generated image covers downstairs.

    Those sieves C(c) are an up-set with meet L(c) (``image_cover_meet``).
    They form a topology exactly when each L(c) lies in C(c), so that
    C(c) = ↑L(c), and L is stable and transitive; then L is the least-cover
    map.  Otherwise raises with the failing condition: ("meet_not_a_cover", c),
    or the axiom and datum from ``_least_cover_failure``.
    """
    if functor.target != target_topology.base:
        raise StructureError("topology must live on the functor's target")
    src = functor.source
    least = {c: image_cover_meet(functor, target_topology, c) for c in src.objects}
    missing = [c for c in src.objects if not target_topology.is_cover(functor.ob(c), image_sieve(functor, c, least[c]))]
    witness = ("meet_not_a_cover", missing[0]) if missing else _least_cover_failure(src, least)
    if witness:
        raise InducedTopologyError("candidate not a topology: {}".format(witness), witness=witness)
    return Topology(src, least)


def _upset_count(lattice, top) -> int:
    """Number of upward-closed sieve families containing the maximal sieve.

    Splits on the lowest undecided sieve x: either x is in the family, and so
    is every sieve above it, or x is out, and so is every sieve below it.  The
    split is valid for any x; counts are memoised per mask of undecided sieves.
    """
    others = [s for s in lattice if s != top]
    above = [sum(1 << j for j, t in enumerate(others) if s <= t) for s in others]
    below = [sum(1 << j for j, t in enumerate(others) if t <= s) for s in others]
    return _count_upsets((1 << len(others)) - 1, above, below, {0: 1})


def _count_upsets(rest: int, above: list[int], below: list[int], memo: dict[int, int]) -> int:
    if rest not in memo:
        x = (rest & -rest).bit_length() - 1
        memo[rest] = _count_upsets(rest & ~above[x], above, below, memo) + _count_upsets(rest & ~below[x], above, below, memo)
    return memo[rest]


def topology_candidate_count(base: FinCategory) -> int:
    """Number of covers-maps that assign each object an up-set of its sieve lattice.

    This is the size of the naive search space (capped once it passes 10**9).
    Nothing searches that space any more: the count is only def-2.5-minimality's
    rule for skipping an instance as too large, kept so that its recorded
    answers do not move.
    """
    total = 1
    for c in base.objects:
        total *= _upset_count(sieve_lattice(base, c), maximal_sieve(base, c))
        if total > 10**9:
            return total
    return total


def _least_cover_failure(base: FinCategory, least) -> tuple:
    """The first axiom by which c |-> {sieves containing least[c]} is not a
    topology on ``base``: ("stability", f) or ("transitivity", c); () if it is one.

    ``least`` maps each object to a sieve on it.  Maximality holds for any
    up-set.  Pullback is monotone, so stability reduces to
    least[d] <= f*least[c] for each f: d -> c.  A sieve R satisfies the
    transitivity premise for least[c] iff it contains every f o g with f in
    least[c] and g in least[dom f]; those composites form a sieve, so
    transitivity reduces to least[c] lying inside it.  ``saturate`` shrinks
    least covers by the same two inclusions; here each stops at its first
    failure.
    """
    for f in base.arrows:
        target = least[base.tgt[f]]
        if any(base.compose(f, g) not in target for g in least[base.src[f]]):
            return ("stability", f)
    for c in base.objects:
        forced = {base.compose(f, g) for f in least[c] for g in least[base.src[f]]}
        if not least[c] <= forced:
            return ("transitivity", c)
    return ()
