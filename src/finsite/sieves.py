"""Sieves, coverages and Grothendieck topologies on finite categories.

Sieves are frozensets of arrow names sharing a target; a topology stores,
per object, the full (saturated) set of covering sieves.  On a finite
category covers are closed under intersection, so a topology is the up-set
of its least covering sieve S(c) at each object; saturation shrinks the
least covers of a coverage until they are stable and transitive and then
takes their up-sets.  Storing every cover keeps each "exists a covering
family such that ..." question a single membership test: covers are upward
closed, and the qualifying arrows of such a question always form a sieve.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fincat import FinCategory, FinFunctor, StructureError, validate_functor


class CapExceeded(RuntimeError):
    """An enumeration was asked to continue past its cap."""


@dataclass(frozen=True)
class Sieve:
    base: FinCategory
    apex: str
    arrows: frozenset[str]

    def sorted_arrows(self) -> tuple[str, ...]:
        return tuple(sorted(self.arrows))

    def __le__(self, other: "Sieve") -> bool:
        return self.arrows <= other.arrows


def validate_sieve(base: FinCategory, apex: str, arrows) -> Sieve:
    arrows = frozenset(arrows)
    for f in sorted(arrows):
        if base.tgt[f] != apex:
            raise StructureError("arrow {} does not target the apex {}".format(f, apex), witness=f)
        for g in base.into(base.src[f]):
            if base.compose(f, g) not in arrows:
                raise StructureError(
                    "not precomposition-closed: {} o {} escapes".format(f, g), witness=(f, g)
                )
    return Sieve(base, apex, arrows)


def generate_sieve(base: FinCategory, apex: str, family) -> Sieve:
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
    return Sieve(base, apex, frozenset(out))


def maximal_sieve(base: FinCategory, apex: str) -> Sieve:
    return Sieve(base, apex, frozenset(base.into(apex)))


def pullback_arrows(base: FinCategory, f: str, arrows: frozenset[str]) -> frozenset[str]:
    return frozenset(g for g in base.into(base.src[f]) if base.compose(f, g) in arrows)


def pullback_sieve(f: str, sieve: Sieve) -> Sieve:
    base = sieve.base
    if base.tgt[f] != sieve.apex:
        raise StructureError("pullback arrow must target the sieve apex", witness=f)
    return Sieve(base, base.src[f], pullback_arrows(base, f, sieve.arrows))


# Largest sieve lattice ``sieve_lattice`` builds.  n parallel arrows into one
# object give 2^n + 1 sieves; the largest lattice the experiments reach has 188.
SIEVE_LATTICE_CAP = 2**16


def sieve_lattice(base: FinCategory, apex: str) -> tuple[frozenset[str], ...]:
    """All sieves on ``apex``: the union closure of the principal sieves. Memoised.

    Raises CapExceeded as soon as the lattice passes ``SIEVE_LATTICE_CAP``.
    """
    cache = base._scratch.setdefault("sieve_lattice", {})
    if apex not in cache:
        principals = {generate_sieve(base, apex, (f,)).arrows for f in base.into(apex)}
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


@dataclass(frozen=True)
class Coverage:
    """Generating families per object; saturation turns it into a topology."""

    base: FinCategory
    generators: dict[str, frozenset[frozenset[str]]]


def make_coverage(base: FinCategory, generators) -> Coverage:
    gens: dict[str, frozenset[frozenset[str]]] = {}
    objects = set(base.objects)
    for c, fams in generators.items():
        if c not in objects:
            raise StructureError("coverage indexes unknown object {}".format(c), witness=c)
        fams = frozenset(frozenset(fam) for fam in fams)
        for fam in fams:
            for f in fam:
                if base.tgt[f] != c:
                    raise StructureError("family member {} does not target {}".format(f, c), witness=f)
        gens[c] = fams
    return Coverage(base, gens)


@dataclass(frozen=True)
class Topology:
    base: FinCategory
    covers: dict[str, frozenset[frozenset[str]]]

    def is_cover(self, obj: str, arrows: frozenset[str]) -> bool:
        return arrows in self.covers[obj]

    def sieves(self, obj: str) -> tuple[frozenset[str], ...]:
        return tuple(sorted(self.covers[obj], key=lambda s: (len(s), tuple(sorted(s)))))

    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.base == other.base
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.base, tuple(sorted((c, tuple(sorted(map(tuple, map(sorted, s))))) for c, s in self.covers.items()))))


def least_cover(topology: Topology, obj: str) -> frozenset[str]:
    """The least covering sieve S(obj), the intersection of every cover of obj.

    Covers are closed under intersection, so on a finite site J(obj) is the
    up-set of S(obj), and {S(c)} is a coverage that generates the topology.
    Raises StructureError when obj has no cover or the intersection is not a
    cover; a topology from ``saturate`` or ``is_topology`` does neither.
    """
    covers = topology.covers[obj]
    if not covers:
        raise StructureError("no covering sieve at {}".format(obj), witness=obj)
    least = frozenset.intersection(*covers)
    if least not in covers:
        raise StructureError("covers at {} are not closed under intersection".format(obj), witness=obj)
    return least


def trivial_topology(base: FinCategory) -> Topology:
    return Topology(base, {c: frozenset({maximal_sieve(base, c).arrows}) for c in base.objects})


def saturate(coverage: Coverage) -> Topology:
    """Least topology whose covers include every sieve containing a generator family.

    Covers of a finite site are closed under intersection, so the answer is
    J(c) = {sieves containing S(c)} for the largest least-cover assignment S
    that is stable and transitive and lies inside every generated sieve.
    Start from S(c) = the maximal sieve cut down by each generated sieve at c,
    shrink S by the two rules of ``_least_covers_are_a_topology`` until
    neither changes it, and return the up-sets.  Every step keeps S above the
    least covers of any topology containing the generators, and the fixed
    point is stable and transitive, so its up-sets are the least topology.
    """
    base = coverage.base
    least = {c: maximal_sieve(base, c).arrows for c in base.objects}
    for c, fams in coverage.generators.items():
        for fam in fams:
            least[c] &= generate_sieve(base, c, fam).arrows
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
    return Topology(
        base, {c: frozenset(t for t in sieve_lattice(base, c) if least[c] <= t) for c in base.objects}
    )


def coverage_of(topology: Topology) -> Coverage:
    return Coverage(topology.base, {c: topology.covers[c] for c in topology.base.objects})


def is_topology(base: FinCategory, covers) -> tuple[bool, tuple]:
    """Exhaustively check maximality, stability and transitivity.

    Returns (ok, witness); the witness names the failing axiom and datum.
    """
    covers = {c: frozenset(map(frozenset, s)) for c, s in covers.items()}
    for c in base.objects:
        if c not in covers:
            return False, ("missing_object", c)
        for s in covers[c]:
            for f in sorted(s):
                if base.tgt[f] != c:
                    return False, ("not_a_sieve", (c, tuple(sorted(s))))
                for g in base.into(base.src[f]):
                    if base.compose(f, g) not in s:
                        return False, ("not_a_sieve", (c, tuple(sorted(s))))
    for c in base.objects:
        if maximal_sieve(base, c).arrows not in covers[c]:
            return False, ("maximality", c)
    for c in base.objects:
        for s in covers[c]:
            for f in base.into(c):
                if pullback_arrows(base, f, s) not in covers[base.src[f]]:
                    return False, ("stability", (c, tuple(sorted(s)), f))
    for c in base.objects:
        for r in sieve_lattice(base, c):
            if r in covers[c]:
                continue
            for t in covers[c]:
                if all(pullback_arrows(base, f, r) in covers[base.src[f]] for f in t):
                    return False, ("transitivity", (c, tuple(sorted(r)), tuple(sorted(t))))
    return True, ()


def topology_leq(j1: Topology, j2: Topology) -> bool:
    if j1.base != j2.base:
        raise StructureError("topologies live on different bases")
    return all(j1.covers[c] <= j2.covers[c] for c in j1.base.objects)


class InducedTopologyError(StructureError):
    """The induced-covers candidate fails a topology axiom."""


def induced_image_topology(functor: FinFunctor, target_topology: Topology) -> Topology:
    """Covers upstairs are the sieves whose generated image covers downstairs.

    Verifies the three axioms a posteriori and raises with the failing axiom
    when the candidate is not a topology.
    """
    if functor.target != target_topology.base:
        raise StructureError("topology must live on the functor's target")
    src = functor.source
    tgt = functor.target
    covers = {}
    for c in src.objects:
        good = set()
        for s in sieve_lattice(src, c):
            image = generate_sieve(tgt, functor.ob(c), tuple(functor.ar(f) for f in sorted(s)))
            if target_topology.is_cover(functor.ob(c), image.arrows):
                good.add(s)
        covers[c] = frozenset(good)
    ok, witness = is_topology(src, covers)
    if not ok:
        raise InducedTopologyError("candidate not a topology: {}".format(witness), witness=witness)
    return Topology(src, covers)


def _upset_count(lattice, top) -> int:
    """Number of upward-closed sieve families containing the maximal sieve.

    Splits on the lowest undecided sieve x: either x is in the family, and so
    is every sieve above it, or x is out, and so is every sieve below it.  The
    split is valid for any x; counts are memoised per mask of undecided sieves.
    """
    others = [s for s in lattice if s != top]
    above = [sum(1 << j for j, t in enumerate(others) if s <= t) for s in others]
    below = [sum(1 << j for j, t in enumerate(others) if t <= s) for s in others]
    memo = {0: 1}

    def count(rest):
        if rest not in memo:
            x = (rest & -rest).bit_length() - 1
            memo[rest] = count(rest & ~above[x]) + count(rest & ~below[x])
        return memo[rest]

    return count((1 << len(others)) - 1)


def topology_candidate_count(base: FinCategory) -> int:
    """Number of covers-maps that assign each object an up-set of its sieve lattice.

    This is the size of the naive search space (capped once it passes 10**9),
    not the work ``enumerate_topologies`` does; the experiments use it as
    their measure for skipping an instance as too large.
    """
    total = 1
    for c in base.objects:
        total *= _upset_count(sieve_lattice(base, c), maximal_sieve(base, c).arrows)
        if total > 10**9:
            return total
    return total


def _least_covers_are_a_topology(base: FinCategory, least) -> bool:
    """Whether c |-> {sieves containing least[c]} is a topology on ``base``.

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
            return False
    for c in base.objects:
        forced = {base.compose(f, g) for f in least[c] for g in least[base.src[f]]}
        if not least[c] <= forced:
            return False
    return True


def enumerate_topologies(base: FinCategory):
    """Yield every topology on ``base`` in a deterministic order.

    Covers of a finite site are closed under intersection, so J(c) is the
    principal up-set of the least cover S(c).  The candidates per object are
    therefore one up-set per sieve, sorted by size and then by content; their
    products are filtered by stability and transitivity on the least covers
    (``_least_covers_are_a_topology``).  Raises CapExceeded on an object with
    more than 14 sieves.
    """
    per_object = []
    for c in base.objects:
        lat = sieve_lattice(base, c)
        if len(lat) > 14:
            raise CapExceeded("sieve lattice too large on {}".format(c))
        upsets = [(s, frozenset(t for t in lat if s <= t)) for s in lat]
        upsets.sort(key=lambda pair: (len(pair[1]), tuple(sorted(tuple(sorted(s)) for s in pair[1]))))
        per_object.append(upsets)

    def product(i, acc):
        if i == len(base.objects):
            if _least_covers_are_a_topology(base, {c: s for c, (s, _) in zip(base.objects, acc)}):
                yield Topology(base, {c: fam for c, (_, fam) in zip(base.objects, acc)})
            return
        for pair in per_object[i]:
            yield from product(i + 1, acc + [pair])

    yield from product(0, [])


def map_topology(iso: FinFunctor, topology: Topology) -> Topology:
    """Transport a topology along an isomorphism of categories (for oracles)."""
    src, tgt = iso.source, iso.target
    covers = {}
    for c in src.objects:
        covers[iso.ob(c)] = frozenset(frozenset(iso.ar(f) for f in s) for s in topology.covers[c])
    ok, witness = is_topology(tgt, covers)
    if not ok:
        raise StructureError("transport failed (functor not an iso?): {}".format(witness))
    return Topology(tgt, covers)


@dataclass(frozen=True)
class ElementsCategory:
    """The category of elements of a sieve, with its projection to the base."""

    category: FinCategory
    projection: FinFunctor
    object_arrow: dict[str, str]


def elements_of_sieve(sieve: Sieve) -> ElementsCategory:
    """Objects are the arrows of the sieve; morphisms are factorisations."""
    base = sieve.base
    members = sieve.sorted_arrows()
    obj_of = {f: "<{}>".format(f) for f in members}
    names = tuple(obj_of[f] for f in members)
    arrows = {}
    data = {}
    for f in members:
        for g in members:
            for w in base.hom(base.src[f], base.src[g]):
                if base.compose(g, w) == f:
                    name = "{}@{}->{}".format(w, obj_of[f], obj_of[g])
                    arrows[name] = (obj_of[f], obj_of[g])
                    data[name] = w
    identity = {}
    for f in members:
        o = obj_of[f]
        identity[o] = "{}@{}->{}".format(base.identity[base.src[f]], o, o)
    table = {}
    for b, (bs, bt) in arrows.items():
        for a, (asrc, at) in arrows.items():
            if at == bs:
                w = base.compose(data[b], data[a])
                table[(b, a)] = "{}@{}->{}".format(w, asrc, bt)
    from .fincat import validate_category

    cat = validate_category(names, arrows, identity, table)
    proj = validate_functor(
        {obj_of[f]: base.src[f] for f in members},
        {a: data[a] for a in arrows},
        cat,
        base,
    )
    return ElementsCategory(cat, proj, {obj_of[f]: f for f in members})
