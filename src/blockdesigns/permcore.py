"""Permutations of {0..n-1} and finitely generated permutation groups.

Composition convention, used everywhere in this package: compose(p, q) is the
permutation mapping i -> q(p(i)), i.e. p acts first, then q. Inside the library
all points are 0-based; cycle-notation text I/O is 1-based.

Groups carry a stabilizer chain built by one deterministic Schreier-Sims
routine, _Chain.add: sift the new element, make a non-trivial residue a strong
generator of every level it reached (appending its smallest moved point as a
base point if it passed the whole base), and close those levels again. A
transversal keeps its words and grows by breadth-first search with generators
in listed order; only Schreier generators not checked before are sifted.
Each level keeps the inverse of every transversal element beside it, so
sifting and Schreier generators compose without inverting, and compose and
is_identity run as single C-level tuple operations.
PermGroup.__init__ makes every group. From generators alone it builds the
chain with _Chain(degree, base, gens), the one builder, which adds them one
by one; a group read off a chain (a stabilizer, derived_subgroup()) is
handed it; extend(g) returns the group itself when its chain sifts g to the
identity, else a group on one more generator, handed its parent, with no
chain. After __init__ a group gets a chain only from _chain_at(points), by
one rule: the chain it holds, if that chain's base starts at points[0]
(any base fits when no point is named); else, for an extended group
holding none, a copy of its nearest built ancestor's chain plus the
generators added since, if that copy fits; else a new chain from its
generators, based at every named point. A group keeps the first chain it
gets, so an extended group's base, and with it transversals() and the
elements() order, depends on the first question asked of it; its order,
membership and orbits never do. A held chain is never mutated: adding
assigns fresh per-level lists and dicts, so a copy can share the levels it
does not change. A group keeps one memo per question asked of it: its
chain; orbit_labels(), each point's least orbit-mate from one breadth-first
sweep over the generators, which orbit(), orbits() and is_transitive()
read; and one stabilizer per point, the levels past the first of a chain
_chain_at bases there. pointwise_stabilizer(pts) walks these point by
point, each time naming every point still to fix, so a chain built at one
step is based at the rest and no later step builds. Identical inputs (the
generator list, the point list for a stabilizer, and for an extended group
the questions asked of it) give identical chains, orders and element streams.
transversals() hands the chain's transversals out as tuples of permutations,
for callers that walk the chain level by level (design.py enumerates block
orbits that way) without reaching into it; permcore itself needs no numpy.
"""

from __future__ import annotations

import math
import re
from functools import cache
from operator import itemgetter

# elements() refuses to list a group larger than this
MAX_ELEMENTS = 10_000_000


class BoundError(ValueError):
    """An input exceeds one of the package's size bounds (MAX_ELEMENTS,
    kcombs.MAX_SUBSETS, isomorph.MAX_VERTICES): refused,
    not failed. It lives here, where no numpy is needed, so the command
    line catches it whether or not a numpy module is loaded."""


@cache
def _iota(n: int) -> tuple[int, ...]:
    """The identity image tuple of degree n, one shared object per degree."""
    return tuple(range(n))


class Permutation:
    """Immutable permutation, stored as the tuple of images of 0..n-1."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        n = len(imgs)
        seen = [False] * n
        for x in imgs:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError("images do not describe a bijection of 0..n-1")
            seen[x] = True
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _unsafe(cls, imgs: tuple) -> "Permutation":
        # internal fast path: imgs must already be a valid image tuple
        p = object.__new__(cls)
        object.__setattr__(p, "images", imgs)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._unsafe(_iota(degree))

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # unpickling goes through __init__, so the images are checked again
        return Permutation, (self.images,)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def is_identity(self) -> bool:
        return self.images == _iota(len(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._unsafe(tuple(inv))

    def order(self) -> int:
        n = 1
        for c in self.cycles(include_fixed=False):
            n = math.lcm(n, len(c))
        return n

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition; each cycle starts at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def __repr__(self):
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: the result maps i to q(p(i)) (p is applied first)."""
    pi = p.images
    qi = q.images
    if len(pi) != len(qi):
        raise ValueError("cannot compose permutations of different degree")
    if len(pi) < 2:  # itemgetter of one index returns a scalar, of none raises
        return Permutation._unsafe(qi)
    return Permutation._unsafe(itemgetter(*pi)(qi))


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint cycle notation like "(1,2,3)(4,5)" into a Permutation.

    Whitespace and newlines between and inside cycles are tolerated. Points are
    1-based. The empty string or "()" is the identity. Repeated points and
    points outside 1..degree are rejected.
    """
    stripped = text.replace("()", "")
    rest = _CYCLE_RE.sub("", stripped)
    if rest.strip():
        raise ValueError(f"malformed cycle notation near {rest.strip()[:20]!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        pts = [int(tok) - 1 for tok in m.group(1).split(",")]
        for a in pts:
            if not 0 <= a < degree:
                raise ValueError(f"point {a + 1} out of range for degree {degree}")
            if a in seen:
                raise ValueError(f"point {a + 1} repeated; cycles must be disjoint")
            seen.add(a)
        for i, a in enumerate(pts):
            images[a] = pts[(i + 1) % len(pts)]
    return Permutation._unsafe(tuple(images))


def format_cycles(p: Permutation) -> str:
    cycs = p.cycles(include_fixed=False)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycs)


class _Chain:
    """A base with, per level, strong generators and a transversal.

    Level i holds base[i], gens[i], which generate the pointwise stabilizer
    of base[:i], and trans[i], which maps each point a of the orbit of
    base[i] under gens[i] to a product of gens[i] carrying base[i] to a.
    inv[i] maps each such a to the inverse of trans[i][a], computed once when
    a joins the orbit, so sifting and Schreier generators never invert.
    The product of the transversal sizes is the group order. A new chain
    has one level per listed base point and then adds gens one by one.
    """

    __slots__ = ("degree", "base", "gens", "trans", "inv")

    def __init__(self, degree: int, base=(), gens=()):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[Permutation]] = []
        self.trans: list[dict[int, Permutation]] = []
        self.inv: list[dict[int, Permutation]] = []
        for b in base:
            self._new_level(b)
        for g in gens:
            self.add(g)

    def _new_level(self, point: int) -> None:
        identity = Permutation.identity(self.degree)
        self.base.append(point)
        self.gens.append([])
        self.trans.append({point: identity})
        self.inv.append({point: identity})

    def tail(self, level: int) -> "_Chain":
        """Levels level.. as a new chain sharing them; tail(0) is a copy."""
        c = _Chain(self.degree)
        c.base, c.gens = self.base[level:], self.gens[level:]
        c.trans, c.inv = self.trans[level:], self.inv[level:]
        return c

    def group(self, generators=None) -> "PermGroup":
        """This chain as a group on generators (default: its level-0 strong
        generators), without rebuilding it."""
        if generators is None:
            generators = self.gens[0] if self.gens else ()
        return PermGroup(tuple(generators) or (Permutation.identity(self.degree),), _chain=self)

    def order(self) -> int:
        return math.prod(len(t) for t in self.trans)

    def sift(self, p: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Strip p through the levels from start on. Returns the residue and
        the level where stripping stopped (len(base) if it went through);
        p is in the level-start group iff the residue is the identity."""
        base, inv = self.base, self.inv
        for i in range(start, len(base)):
            b = base[i]
            delta = p.images[b]
            if delta != b:
                u_inv = inv[i].get(delta)
                if u_inv is None:
                    return p, i
                p = compose(p, u_inv)
        return p, len(base)

    def add(self, g: Permutation) -> bool:
        """Extend the group by g; False, with nothing changed, if g is a member."""
        residue, j = self.sift(g)
        if residue.is_identity():
            return False
        self._insert(residue, 0, j)
        return True

    def _insert(self, h: Permutation, lo: int, hi: int) -> None:
        # h lies in the level-lo group and fixes base[:hi]: levels lo..hi gain
        # it, a new base point (its smallest moved point) if hi is past the end
        if hi == len(self.base):
            self._new_level(next(i for i, x in enumerate(h.images) if x != i))
        for i in range(lo, hi + 1):
            self.gens[i] = self.gens[i] + [h]
        for i in range(hi, lo - 1, -1):
            self._close(i)

    def _close(self, i: int) -> None:
        """Absorb the newest generator of level i; levels after i are closed.
        Schreier generators not checked before pair an old orbit point with
        the new generator, or a new orbit point with any generator."""
        gens = self.gens[i]
        new = gens[-1]
        t = dict(self.trans[i])
        old = list(t)
        added = []
        for a in old:
            b = new.images[a]
            if b not in t:
                t[b] = compose(t[a], new)
                added.append(b)
        for a in added:  # grows while it is scanned
            for s in gens:
                b = s.images[a]
                if b not in t:
                    t[b] = compose(t[a], s)
                    added.append(b)
        t_inv = dict(self.inv[i])
        for b in added:
            t_inv[b] = t[b].inverse()
        self.trans[i], self.inv[i] = t, t_inv
        pairs = [(a, new) for a in old] + [(a, s) for a in added for s in gens]
        for a, s in pairs:
            schreier = compose(compose(t[a], s), t_inv[s.images[a]])
            if schreier.is_identity():
                continue
            residue, j = self.sift(schreier, i + 1)
            if not residue.is_identity():
                self._insert(residue, i + 1, j)


class PermGroup:
    """Permutation group with an immutable stabilizer chain, built when the
    group is made from generators alone and on first need for a group made
    by extend(). An extended group's base depends on the first question
    asked of it; its order, membership and orbits never do."""

    def __init__(self, generators, *, _chain: _Chain | None = None,
                 _parent: PermGroup | None = None):
        """The group generated by generators. _chain and _parent are private:
        _chain is its chain when one is already built; _parent, a group whose
        generators begin this group's, defers the chain to the first
        question that needs one (_chain_at). With neither, the chain is
        built here."""
        gens = tuple(generators)
        if not gens:
            raise ValueError("a group needs at least one generator (identity is fine)")
        degree = gens[0].degree
        for g in gens:
            if not isinstance(g, Permutation):
                raise ValueError("generators must be Permutation instances")
            if g.degree != degree:
                raise ValueError("all generators must share one degree")
        if _chain is None and _parent is None:
            _chain = _Chain(degree, gens=gens)
        self._degree, self._generators = degree, gens
        self._held, self._parent = _chain, _parent
        self._labels: tuple[int, ...] | None = None
        self._stabilizers: dict[int, PermGroup] = {}

    @property
    def _chain(self) -> _Chain:
        return self._chain_at(())

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._generators

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(self._chain.base)

    def order(self) -> int:
        return self._chain.order()

    def transversals(self) -> tuple[tuple[Permutation, ...], ...]:
        """Per chain level, base point first, one element carrying the
        level's base point to each point of its orbit under the level's
        group, in the order the points were found. Every group element is,
        in exactly one way, the product of one element per level applied
        deepest level first (as elements() lists them). Read-only: fresh
        tuples over the chain's immutable permutations."""
        return tuple(tuple(t.values()) for t in self._chain.trans)

    def sift(self, p: Permutation) -> Permutation:
        """Residue of p after sifting through the chain; identity iff p is a member."""
        if p.degree != self._degree:
            raise ValueError("degree mismatch")
        return self._chain.sift(p)[0]

    def extend(self, g: Permutation) -> "PermGroup":
        """The group generated by this one and g: this group itself when it
        holds a chain that sifts g to the identity, else a group on one
        more generator whose chain is built on first need. Builds no chain."""
        if not isinstance(g, Permutation) or g.degree != self._degree:
            raise ValueError("g must be a Permutation of the group's degree")
        if self._held is not None and self._held.sift(g)[0].is_identity():
            return self
        return PermGroup(self._generators + (g,), _parent=self)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self._degree:
            return False
        return self.sift(p).is_identity()

    __contains__ = contains

    def orbit_labels(self) -> tuple[int, ...]:
        """Each point's least orbit-mate, memoized: one breadth-first sweep
        per group, seeded at each unlabeled point in ascending order."""
        if self._labels is None:
            gens = [g.images for g in self._generators]
            labels = [-1] * self._degree
            for s in range(self._degree):
                if labels[s] < 0:
                    labels[s], queue = s, [s]
                    for a in queue:  # grows while it is scanned
                        for g in gens:
                            b = g[a]
                            if labels[b] < 0:
                                labels[b] = s
                                queue.append(b)
            self._labels = tuple(labels)
        return self._labels

    def orbit(self, point: int) -> tuple[int, ...]:
        """Orbit of a point, in ascending order."""
        if not 0 <= point < self._degree:
            raise ValueError(f"point {point} out of range")
        labels = self.orbit_labels()
        return tuple(i for i, x in enumerate(labels) if x == labels[point])

    def orbits(self) -> list[tuple[int, ...]]:
        """All point orbits, each ascending, ordered by least point."""
        members: dict[int, list[int]] = {}
        for i, label in enumerate(self.orbit_labels()):
            members.setdefault(label, []).append(i)
        return [tuple(m) for m in members.values()]

    def is_transitive(self) -> bool:
        return not any(self.orbit_labels())

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Subgroup fixing every listed point (repeats ignored), walked one
        memoized one-point stabilizer at a time: the stabilizer of p in H is
        the tail, from level 1 on, of a chain of H whose base starts at p
        (_chain_at); the strong generators fixing a base point generate its
        stabilizer."""
        pts = list(dict.fromkeys(points))
        for p in pts:
            if not 0 <= p < self._degree:
                raise ValueError(f"point {p} out of range")
        stab = self
        for i, p in enumerate(pts):
            memo = stab._stabilizers
            hit = memo.get(p)
            if hit is None:
                hit = memo[p] = stab._chain_at(pts[i:]).tail(1).group()
            stab = hit
        return stab

    def _chain_at(self, points) -> _Chain:
        """A chain of this group whose base starts at points[0], any base
        when points is empty, by the one rule the module docstring states."""
        def fits(chain: _Chain) -> bool:
            return not points or chain.base[:1] == [points[0]]

        chain = self._held
        if chain is None:
            ancestor = self._parent
            while ancestor._held is None:  # the root of every extend() lineage holds a chain
                ancestor = ancestor._parent
            if fits(ancestor._held):
                chain = ancestor._held.tail(0)
                for g in self._generators[len(ancestor._generators):]:
                    chain.add(g)
        if chain is None or not fits(chain):
            chain = _Chain(self._degree, points, self._generators)
        if self._held is None:
            self._held, self._parent = chain, None
        return chain

    def subdegrees(self, point: int = 0) -> tuple[int, ...]:
        """Orbit lengths of a point stabilizer on all points, sorted ascending.

        Only meaningful (and only allowed) for transitive groups.
        """
        if not self.is_transitive():
            raise ValueError("subdegrees are defined for transitive groups only")
        stab = self.pointwise_stabilizer((point,))
        return tuple(sorted(len(o) for o in stab.orbits()))

    def is_primitive(self) -> bool:
        """True iff transitive with no nontrivial block system: iff every
        least block through a pair {0, d} is the whole point set. That block
        is the orbit of 0 under <G_0, g> for any g taking 0 to d (Dixon and
        Mortimer, Permutation Groups, 1996, Thm 1.5A); g is read off the
        chain's first level, whose orbit is every point of a transitive group.
        Tries one d per G_0-orbit, its least point: G_0 carries the least
        block through {0, d} onto the one through {0, d'} for each d' in
        d's orbit."""
        if not self.is_transitive():
            return False
        n = self._degree
        if n <= 2:
            return True
        stab = self.pointwise_stabilizer((0,))
        chain = self._chain
        to_base, from_base = chain.inv[0][0], chain.trans[0]
        return all(len(stab.extend(compose(to_base, from_base[d])).orbit(0)) == n
                   for d in set(stab.orbit_labels()) - {0})

    def elements(self):
        """Lazy deterministic iteration over all elements.

        Order of the stream is lexicographic over chain coset words: the
        outermost loop runs over the sorted transversal points of the first
        level, then the second, and so on. Raises if the group order exceeds
        MAX_ELEMENTS (BoundError).
        """
        order = self.order()
        if order > MAX_ELEMENTS:
            raise BoundError(f"group order {order} exceeds the iteration bound {MAX_ELEMENTS}")
        ident = Permutation.identity(self._degree)
        trans = self._chain.trans

        def gen(i: int):
            if i == len(trans):
                yield ident
                return
            for pt in sorted(trans[i]):
                u = trans[i][pt]
                for tail in gen(i + 1):
                    yield compose(tail, u)

        return gen(0)

    def derived_subgroup(self) -> "PermGroup":
        """Commutator subgroup: the normal closure of the generator
        commutators, grown on one chain. Its generators are the commutators
        and conjugates that each enlarged it, in the order they were added."""
        chain = _Chain(self._degree)
        gens: list[Permutation] = []
        for a in self._generators:
            for b in self._generators:
                c = compose(compose(a.inverse(), b.inverse()), compose(a, b))
                if chain.add(c):
                    gens.append(c)
        for h in gens:  # grows while it is scanned
            for s in self._generators:
                conj = compose(compose(s.inverse(), h), s)
                if chain.add(conj):
                    gens.append(conj)
        return chain.group(gens)

    def __repr__(self):
        return f"PermGroup(degree={self._degree}, order={self.order()}, ngens={len(self._generators)})"
