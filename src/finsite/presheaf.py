"""Finite-set-valued presheaves, the sheaf condition and the plus construction.

On a finite site the covers of c are the sieves containing the least cover
S(c) (``Topology.least``), and {S(c)} generates the topology.  The sheaf
condition is therefore checked on S(c) alone, and the plus construction is
P+(c) = Match(S(c), P): its elements at c are the matching families on S(c),
sorted by their (arrow, value) items and named s0, s1, ... in that order, so
all tables are deterministic.  Applying plus twice is the sheafification.

The bounded oracles search by backtracking that checks each condition as
soon as it is decided: ``sheaf_targets`` generates one sheaf per
isomorphism class by orderly generation, pruning a prefix as soon as it
fails the sheaf condition at an object (for the trivial topology it yields
every presheaf up to isomorphism), and ``_natural_maps`` assigns a
natural map one (object, element) slot at a time.  ``sheaf_targets`` builds
only the images of an arrow that the composition table leaves open: by
P(g.f) = P(f).P(g) an entry settled by the arrow gives each element of its
domain a list of candidate images, and the images are the product of those
lists.  It runs the orbit test on each image tuple first, and skips it
where every relabelling fixing the earlier arrows is the identity at the
arrow's two ends.  Natural maps and
matching families both run on ``_assignments``, one iterative search over
slots whose links are tested when the later of their two slots is assigned;
the sheaf condition reads a plan per object, built once per call, of the
least cover's members in order and its links named by arrow.
"""
from __future__ import annotations

import itertools
from collections import Counter
from .fincat import FinCategory, FinFunctor, Record, StructureError, entries_by_last_arrow, raise_stray_key
from .sieves import CapExceeded, Topology


class Presheaf(Record):
    _fields = ("base", "values", "action")

    def act(self, f: str, a: str) -> str:
        return self.action[f][a]


def validate_presheaf(base: FinCategory, values, action) -> Presheaf:
    values = {c: tuple(v) for c, v in values.items()}
    action = {f: dict(m) for f, m in action.items()}
    src, tgt, identity, ids = base.src, base.tgt, base.identity, base._ids
    vs = {}
    for c in base.objects:
        if c not in values:
            raise StructureError("missing value set at {}".format(c), witness=c)
        vs[c] = set(values[c])
        if len(vs[c]) != len(values[c]):
            raise StructureError("duplicate elements at {}".format(c), witness=c)
    if len(values) != len(vs):
        raise_stray_key(values, vs, "value set at unknown object {}")
    for f in base.arrows:
        m = action.get(f)
        if m is None:
            if f not in ids:
                raise StructureError("missing action along {}".format(f), witness=f)
            m = action[f] = {a: a for a in values[src[f]]}
        s, t = src[f], tgt[f]
        if m.keys() != vs[t] or not vs[s].issuperset(m.values()):
            raise StructureError("action along {} is not a map values({}) -> values({})".format(f, t, s), witness=f)
    if len(action) != len(src):
        raise_stray_key(action, src, "action along unknown arrow {}")
    for c in base.objects:
        # a map values(c) -> values(c) by now, so the identity iff each key is its value
        m = action[identity[c]]
        if list(m) != list(m.values()):
            raise StructureError("identity action at {} is not the identity".format(c), witness=c)
    for (g, f), h in base.table.items():
        # an entry with an identity factor holds once identity actions are
        # identities; one whose composite alone is an identity (an inverse
        # pair) can still fail
        if f in ids or g in ids:
            continue
        fa, ga, ha = action[f], action[g], action[h]
        for a in values[tgt[g]]:
            if fa[ga[a]] != ha[a]:
                raise StructureError("actions not functorial on ({}, {})".format(g, f), witness=(g, f))
    return Presheaf(base, values, action)


def _assignments(domains, links):
    """Every assignment of slot k to a value of ``domains[k]`` that keeps its
    links, as tuples, in depth-first order with each slot's values in domain
    order.  An entry ``(x, table, y)`` of ``links[k]`` requires
    ``assign[x] == table[assign[y]]``; it is filed under k = max(x, y) and
    tested once per prefix, when slot k is assigned (Knuth, TAOCP 4B,
    7.2.2).  Each slot keeps an iterator over its domain as its cursor.
    Zero slots yield one ``()``.
    """
    last = len(domains) - 1
    if last < 0:
        yield ()
        return
    assign = [None] * len(domains)
    cursors = [iter(domains[0])] + [None] * last
    k = 0
    while k >= 0:
        for v in cursors[k]:
            assign[k] = v
            for x, table, y in links[k]:
                if assign[x] != table[assign[y]]:
                    break
            else:
                if k == last:
                    yield tuple(assign)
                else:
                    k += 1
                    cursors[k] = iter(domains[k])
                    break
        else:
            k -= 1


def _family_plan(base: FinCategory, sieve: frozenset[str]) -> tuple:
    """The search plan of the matching families on the sieve: its members
    sorted, the source of each, and ``_assignments``' links named by arrow,
    a compatibility triple (f, g, f.g) filed as (place of f.g, g, place of f)
    under the later place."""
    members = tuple(sorted(sieve))
    place = {f: i for i, f in enumerate(members)}
    links: list[list[tuple[int, str, int]]] = [[] for _ in members]
    for i, f in enumerate(members):
        for g in base.into(base.src[f]):
            j = place.get(base.compose(f, g))
            if j is not None:
                links[max(i, j)].append((j, g, i))
    return members, tuple(base.src[f] for f in members), links


def _families(values, action, plan):
    """The matching families of ``plan`` as value tuples, one per member,
    for the value sets ``values`` and the action tables ``action``: member f
    takes values in values[src f], and a triple (f, g, f.g) links
    x_{f.g} = action[g][x_f].  Every table the links name must be set."""
    _, sources, links = plan
    tables = [[(j, action[g], i) for j, g, i in here] for here in links]
    return _assignments([values[c] for c in sources], tables)


def matching_families(p: Presheaf, sieve: frozenset[str]) -> list[dict[str, str]]:
    """All compatible assignments on the sieve, in sorted member order, by
    ``_assignments``: member f takes values in p(src f), and a compatibility
    triple (f, g, f.g) links x_{f.g} = p(g)(x_f)."""
    plan = _family_plan(p.base, sieve)
    return [dict(zip(plan[0], fam)) for fam in _families(p.values, p.action, plan)]


def _failing_family(values, action, c: str, plan) -> tuple | None:
    """The sheaf condition at c on the sieve of ``plan``: None when every
    matching family has exactly one amalgamation, else the first family
    that does not, with its amalgamations.  Each element of values[c] is
    restricted to the members once; its amalgamations of a family are the
    elements restricting to it.  Reads only the tables along the members
    and along the arrows into their sources."""
    members = plan[0]
    elements = values[c]
    restricted = [tuple([action[f][a] for f in members]) for a in elements]
    for fam in _families(values, action, plan):
        if restricted.count(fam) != 1:
            return fam, tuple(a for a, r in zip(elements, restricted) if r == fam)
    return None


def _require_base(base: FinCategory, topology: Topology) -> None:
    if base != topology.base:
        raise StructureError("presheaf and topology live on different bases")


def is_sheaf(p: Presheaf, topology: Topology) -> tuple[bool, tuple]:
    """Unique amalgamation for every matching family on each least cover S(c).

    Every cover of c contains S(c) and {S(c)} generates the topology, so this
    is the sheaf condition on every cover.  An object c with id_c in S(c) is
    skipped: a matching family on the maximal sieve is x_f = P(f)(x_id), so
    its one amalgamation is x_id.  The witness names S(c).
    """
    _require_base(p.base, topology)
    for c in p.base.objects:
        sieve = topology.least[c]
        if p.base.identity[c] in sieve:
            continue
        plan = _family_plan(p.base, sieve)
        failing = _failing_family(p.values, p.action, c, plan)
        if failing is not None:
            fam, glue = failing
            members = plan[0]
            kind = "no_amalgamation" if not glue else "ambiguous_amalgamation"
            return False, (kind, (c, members, tuple(zip(members, fam)), glue))
    return True, ()


def _fam_key(fam: dict[str, str]) -> tuple:
    return tuple(sorted(fam.items()))


class PlusResult(Record):
    _fields = ("presheaf", "unit")


def plus(p: Presheaf, topology: Topology) -> PlusResult:
    """One application of the plus construction, on the least covers.

    P+(c) is the colimit of Match(S, P) over the covers S of c, which is
    reached at the least cover S(c).  Element s<i> at c is the i-th matching
    family on S(c) in ``_fam_key`` order.  The action along f: d -> c sends x
    to g |-> x[f.g] on S(d), defined because S(d) lies in the cover f*S(c);
    the unit sends a in P(c) to g |-> P(g)(a) on S(c).  Raises StructureError,
    witness f, when a hand-built topology breaks S(d) <= f*S(c), or when the
    topology lives on another base.
    """
    base = p.base
    _require_base(base, topology)
    covers = topology.least
    for f in base.arrows:
        d, c = base.src[f], base.tgt[f]
        if not all(base.compose(f, g) in covers[c] for g in covers[d]):
            raise StructureError(
                "least cover at {} is not inside the pullback of the least cover at {} along {}".format(d, c, f),
                witness=f,
            )
    least = {c: sorted(s) for c, s in covers.items()}
    name: dict[str, dict[tuple, str]] = {}
    for c in base.objects:
        keys = sorted(_fam_key(fam) for fam in matching_families(p, covers[c]))
        name[c] = {k: "s{}".format(i) for i, k in enumerate(keys)}
    action: dict[str, dict[str, str]] = {}
    for f in base.arrows:
        s, t = base.src[f], base.tgt[f]
        action[f] = {}
        for k, nm in name[t].items():
            x = dict(k)
            action[f][nm] = name[s][tuple((g, x[base.compose(f, g)]) for g in least[s])]
    out = validate_presheaf(base, {c: tuple(name[c].values()) for c in base.objects}, action)
    unit = {
        c: {a: name[c][tuple((g, p.act(g, a)) for g in least[c])] for a in p.values[c]}
        for c in base.objects
    }
    return PlusResult(out, unit)


class Sheafification(Record):
    _fields = ("sheaf", "unit")


def sheafify(p: Presheaf, topology: Topology) -> Sheafification:
    """Plus applied twice (always twice, for auditability), with the composite unit."""
    first = plus(p, topology)
    second = plus(first.presheaf, topology)
    unit = {
        c: {a: second.unit[c][first.unit[c][a]] for a in p.values[c]}
        for c in p.base.objects
    }
    ok, witness = is_sheaf(second.presheaf, topology)
    if not ok:
        raise StructureError("double plus failed to produce a sheaf: {}".format(witness))
    return Sheafification(second.presheaf, unit)


def precompose(p: Presheaf, functor: FinFunctor) -> Presheaf:
    """values(c) = values(F(c)), actions via the arrow map."""
    if functor.target != p.base:
        raise StructureError("functor must land in the presheaf's base")
    values = {c: p.values[functor.ob(c)] for c in functor.source.objects}
    action = {f: dict(p.action[functor.ar(f)]) for f in functor.source.arrows}
    return validate_presheaf(functor.source, values, action)


def representable(base: FinCategory, obj: str) -> Presheaf:
    values = {c: base.hom(c, obj) for c in base.objects}
    action = {}
    for f in base.arrows:
        action[f] = {u: base.compose(u, f) for u in values[base.tgt[f]]}
    return validate_presheaf(base, values, action)


def _slots(p: Presheaf) -> list[tuple[str, str]]:
    """The (object, element) pairs of p: objects in order, elements in value order."""
    return [(c, a) for c in p.base.objects for a in p.values[c]]


def _natural_maps(p: Presheaf, q: Presheaf):
    """All natural maps p -> q as tuples of images, one per slot of p, by
    ``_assignments``: the slots in ``_slots`` order, each image in q's value
    order.  The naturality entry of a non-identity arrow f: s -> t at a in
    p(t) links h_s(p(f)(a)) = q(f)(h_t(a)).  Identity squares commute for
    every validated pair of presheaves.
    """
    base = p.base
    slots = _slots(p)
    place = {slot: k for k, slot in enumerate(slots)}
    links: list[list[tuple[int, dict[str, str], int]]] = [[] for _ in slots]
    for f in base.arrows:
        if base.is_identity(f):
            continue
        s, t = base.src[f], base.tgt[f]
        pf, qf = p.action[f], q.action[f]
        for a in p.values[t]:
            at_s, at_t = place[s, pf[a]], place[t, a]
            links[max(at_s, at_t)].append((at_s, qf, at_t))
    return _assignments([q.values[c] for c, _ in slots], links)


def _as_components(p: Presheaf, image: tuple[str, ...]) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {c: {} for c in p.base.objects}
    for (c, a), b in zip(_slots(p), image):
        out[c][a] = b
    return out


class _Orderly:
    """``sheaf_targets``' search on one size combination ``sz``, kept on an
    object so that the recursive ``extend`` does not reach itself through a
    closure.  It works on value indices: the image of an arrow f is a tuple
    that sends index j of P(tgt f) to an index of P(src f)."""

    def __init__(self, base: FinCategory, plan, sz: dict[str, int]):
        self.base, self.sz = base, sz
        self.non_id, self.rules, self.twice, self.decided, self.fresh, self.slot, self.perms = plan
        self.indices = {c: range(sz[c]) for c in base.objects}
        self.values = {c: tuple(str(k) for k in range(sz[c])) for c in base.objects}
        # the image of every arrow assigned so far, identities included
        self.images = {base.identity[c]: tuple(range(sz[c])) for c in base.objects}

    def candidates(self, i: int) -> list:
        """Per element a of P(tgt x), x = non_id[i], the sorted indices a may
        go to under the entries g.f = h filed under x in which x occurs once
        (the rules of ``sheaf_targets``' docstring)."""
        images, x = self.images, self.non_id[i]
        n = self.sz[self.base.tgt[x]]
        allowed = [range(self.sz[self.base.src[x]])] * n
        for place, g, f, h in self.rules[i]:
            if place == "g":
                # a keeps the v with P(f)(v) = P(h)(a)
                pf, ph = images[f], images[h]
                for a in range(n):
                    allowed[a] = [v for v in allowed[a] if pf[v] == ph[a]]
                continue
            if place == "h":
                # a goes to P(f)(P(g)(a))
                pf = images[f]
                pins = enumerate([pf[b] for b in images[g]])
            else:
                # P(g)(a) goes to P(h)(a)
                pins = zip(images[g], images[h])
            for a, v in pins:
                allowed[a] = [v] if v in allowed[a] else []
        return allowed

    def consistent(self, i: int) -> bool:
        """The entries filed under non_id[i] in which it occurs more than once."""
        images = self.images
        for g, f, h in self.twice[i]:
            pf = images[f]
            if any(pf[b] != c for b, c in zip(images[g], images[h])):
                return False
        return True

    def presheaf(self) -> Presheaf:
        """The presheaf of the images assigned, validated in full."""
        base, values = self.base, self.values
        action = {}
        for f in self.non_id:
            dom, cod = values[base.tgt[f]], values[base.src[f]]
            action[f] = dict(zip(dom, map(cod.__getitem__, self.images[f])))
        return validate_presheaf(base, values, action)

    def extend(self, i: int, group):
        base, non_id, images = self.base, self.non_id, self.images
        if i == len(non_id):
            yield self.presheaf()
            return
        f = non_id[i]
        for c in self.fresh[i]:
            group = [sigma + (pair,) for sigma in group for pair in self.perms[self.sz[c]]]
        s, t = self.slot[base.src[f]], self.slot[base.tgt[f]]
        # the relabellings by what the orbit test reads of them: the
        # permutation at the source and the inverse at the target.  Where
        # that is the identity pair alone, every image is fixed by them all.
        moves: dict[tuple, list] = {}
        for sigma in group:
            moves.setdefault((sigma[s][0], sigma[t][1]), []).append(sigma)
        if len(moves) == 1:
            moves = {}
        twice, decided, indices = self.twice[i], self.decided[i], self.indices
        for image in itertools.product(*self.candidates(i)):
            fixing = group
            if moves:
                fixing = []
                for (to, back), sigmas in moves.items():
                    moved = tuple([to[image[j]] for j in back])
                    if moved < image:
                        fixing = None
                        break
                    if moved == image:
                        fixing += sigmas
                if fixing is None:
                    continue
            images[f] = image
            if twice and not self.consistent(i):
                continue
            # a least prefix failing a sheaf condition it decides has no sheaf completion
            if decided and not all(_failing_family(indices, images, c, plan) is None for c, plan in decided):
                continue
            yield from self.extend(i + 1, fixing)


def sheaf_targets(base: FinCategory, topology: Topology, max_size: int = 3, budget: int = 200_000):
    """One sheaf per isomorphism class with value sets {0..k-1}, k <= max_size.

    Labelled presheaves are ordered by size combination, then by the image
    tuples of the non-identity arrows in order, each tuple in value-index
    order; the one yielded for a class is its first member in that order,
    which is also its least.  Orderly generation (Read 1978, McKay 1998): a
    relabelling sigma = (sigma_c) acts arrow by arrow, sending the image tuple
    x of f: s -> t to j |-> sigma_s(x[sigma_t^-1(j)]), so every prefix of a
    least assignment is least.  An arrow's image is kept only if no
    relabelling fixing the earlier arrows makes it smaller, and the
    relabellings that leave it unchanged go on to the next arrow.  This
    orbit test runs on the image tuple first, once per distinct pair of
    permutations at f's source and target, and not at all where that pair
    is the identity alone.

    Non-identity actions are assigned one arrow at a time, and a
    composition-table entry g.f = h is settled when the last x of its
    non-identity arrows is assigned.  Where x occurs once in the entry,
    P(g.f) = P(f).P(g) fixes x's action element by element: x = h sends a to
    P(f)(P(g)(a)), x = g keeps for a only the v with P(f)(v) = P(h)(a), and
    x = f sends P(g)(a) to P(h)(a).  Each element of P(tgt x) thus has a
    sorted list of candidate images, and the images of x are the product of
    those lists: exactly the images that keep these entries, in the same
    order.  An entry in which x occurs twice, such as an idempotent t.t = t,
    is checked on each image.  The sheaf condition at c with id_c not in
    S(c) reads only the actions along the members of S(c) and along the
    arrows into their sources, so it is decided as soon as the last of them
    is assigned, and a prefix that fails it, having no sheaf completion, is
    pruned.  Where S(c) is empty the condition is |P(c)| = 1, decided by the
    size combination.  A combination with |P(t)| > 0 and |P(s)| = 0 for some
    non-identity f: s -> t holds no presheaf at all, since no map goes from
    a non-empty set into the empty one, and is skipped before any arrow is
    assigned.  The stream is therefore the orderly stream of all presheaves,
    filtered by ``is_sheaf``; for the trivial topology it is every presheaf
    up to isomorphism.  Every yielded sheaf is still validated in full.

    Raises StructureError when the topology lives on another base, and
    CapExceeded when the labelled presheaf space exceeds the budget.
    """
    _require_base(base, topology)
    non_id = [f for f in base.arrows if not base.is_identity(f)]
    at = {c: k for k, c in enumerate(base.objects)}
    # ends: each arrow's source and target as places in a size combination
    ends = [(at[base.src[f]], at[base.tgt[f]]) for f in non_id]
    sizes = list(itertools.product(range(max_size + 1), repeat=len(base.objects)))
    space = 0
    for combo in sizes:
        per = 1
        for s, t in ends:
            per *= max(1, combo[s]) ** combo[t]
            if per > budget:
                break
        space += per
        if space > budget:
            raise CapExceeded("presheaf enumeration space exceeds budget")
    # rules[i]: the entries (g, f, h) filed under x = non_id[i] in which x
    # occurs once, with the place of x; twice[i]: the others
    rules: list[list[tuple[str, str, str, str]]] = []
    twice: list[list[tuple[str, str, str]]] = []
    for x, filed in zip(non_id, entries_by_last_arrow(base, non_id)):
        rules.append([])
        twice.append([])
        for entry in filed:
            if entry.count(x) > 1:
                twice[-1].append(entry)
            else:
                # x's place in the entry, named as in (g, f, h)
                rules[-1].append(("gfh"[entry.index(x)],) + entry)
    position = {f: i for i, f in enumerate(non_id)}
    # decided[i]: the objects whose sheaf condition reads non_id[i] last,
    # each with its family plan; singletons: the objects whose least cover
    # is empty.
    decided: list[list[tuple[str, tuple]]] = [[] for _ in non_id]
    singletons = []
    for c in base.objects:
        sieve = topology.least[c]
        if base.identity[c] in sieve:
            continue
        if not sieve:
            singletons.append(at[c])
            continue
        read = set(sieve).union(*(base.into(base.src[f]) for f in sieve))
        decided[max(position[a] for a in read if a in position)].append((c, _family_plan(base, sieve)))
    # fresh[i]: the objects that non_id[i] touches first.  A relabelling is a
    # tuple of (permutation, inverse) pairs, one per object touched so far in
    # this order, and slot[c] is the place of c's pair.
    fresh: list[list[str]] = []
    slot: dict[str, int] = {}
    for f in non_id:
        fresh.append([c for c in dict.fromkeys((base.src[f], base.tgt[f])) if c not in slot])
        for c in fresh[-1]:
            slot[c] = len(slot)
    # perms[n]: each permutation of range(n) with its inverse, for the
    # objects in slot (none when every arrow is an identity)
    perms = [
        [(q, tuple(sorted(range(n), key=q.__getitem__))) for q in itertools.permutations(range(n))]
        for n in range(max_size + 1 if slot else 0)
    ]
    plan = (non_id, rules, twice, decided, fresh, slot, perms)
    for combo in sizes:
        if any(combo[k] != 1 for k in singletons):
            continue
        # no map goes from a non-empty set into the empty one
        if any(combo[t] and not combo[s] for s, t in ends):
            continue
        yield from _Orderly(base, plan, dict(zip(base.objects, combo))).extend(0, [()])


def unit_universal_property(p: Presheaf, sh: Sheafification, target: Presheaf) -> tuple[bool, tuple]:
    """The unit sh.unit: p -> sh.sheaf is universal for the sheaf target:
    h |-> h . unit is a bijection Hom(sh.sheaf, target) -> Hom(p, target).

    One pass over Hom(sh.sheaf, target) counts the composites h . unit as
    image tuples over the slots of p; then every map p -> target must have
    been hit exactly once.  The witness is the first map, in enumeration
    order, hit n != 1 times.
    """
    place = {slot: k for k, slot in enumerate(_slots(sh.sheaf))}
    unit_at = [place[c, sh.unit[c][a]] for c, a in _slots(p)]
    hits = Counter(tuple([h[k] for k in unit_at]) for h in _natural_maps(sh.sheaf, target))
    for m in _natural_maps(p, target):
        n = hits[m]
        if n != 1:
            witness = _as_components(p, m)
            return False, ("factorisations", n, tuple(sorted((c, tuple(sorted(v.items()))) for c, v in witness.items())))
    return True, ()


def prop33_pullback_data(projection: FinFunctor, d_prime: str, u_prime: str, f_prime: str):
    """The presheaf of pairs (g: e -> d', u'': p(e) -> c'') with f'.u'' = u'.p(g),
    together with the decoding of element names back to pairs."""
    dcat = projection.source
    ccat = projection.target
    if ccat.src[u_prime] != projection.ob(d_prime):
        raise StructureError("u' must start at the projection of d'")
    if ccat.tgt[u_prime] != ccat.tgt[f_prime]:
        raise StructureError("u' and f' must share a target")
    c2 = ccat.src[f_prime]
    values = {}
    elems: dict[str, dict[str, tuple[str, str]]] = {}
    for e in dcat.objects:
        here = {}
        for g in dcat.hom(e, d_prime):
            for u2 in ccat.hom(projection.ob(e), c2):
                if ccat.compose(f_prime, u2) == ccat.compose(u_prime, projection.ar(g)):
                    here["({},{})".format(g, u2)] = (g, u2)
        values[e] = tuple(sorted(here))
        elems[e] = here
    action = {}
    for h in dcat.arrows:
        s, t = dcat.src[h], dcat.tgt[h]
        m = {}
        for name in values[t]:
            g, u2 = elems[t][name]
            m[name] = "({},{})".format(dcat.compose(g, h), ccat.compose(u2, projection.ar(h)))
        action[h] = m
    return validate_presheaf(dcat, values, action), elems

