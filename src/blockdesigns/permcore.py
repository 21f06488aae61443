"""Permutations of {0..n-1} and finitely generated permutation groups.

Composition convention, used everywhere in this package: compose(p, q) is the
permutation mapping i -> q(p(i)), i.e. p acts first, then q. Inside the library
all points are 0-based; cycle-notation text I/O is 1-based by default.

Groups carry a stabilizer chain built by one deterministic Schreier-Sims
routine, _Chain.add: sift the new element, make a non-trivial residue a strong
generator of every level it reached (appending its smallest moved point as a
base point if it passed the whole base), and close those levels again. A
transversal keeps its words and grows by breadth-first search with generators
in listed order; only Schreier generators not checked before are sifted.
Each level keeps the inverse of every transversal element beside it, so
sifting and Schreier generators compose without inverting, and compose and
is_identity run as single C-level tuple operations.
PermGroup(gens) adds the generators one by one to an empty chain, extend(g)
adds g to a copy of the group's chain, and pointwise_stabilizer(pts) is the
tail, from level len(pts) on, of a chain whose base starts with pts. A chain a
group holds is never mutated: adding assigns fresh per-level lists and dicts,
so a copy can share the levels it does not change, and a group can memoize
what it derives from its chain (prefix_stabilizer). Identical inputs (the
generator list, plus the point list for a stabilizer) give identical chains,
orders and element streams.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cache
from math import prod
from operator import itemgetter


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

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def is_identity(self) -> bool:
        return self.images == _iota(len(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._unsafe(tuple(inv))

    def moved_points(self) -> list[int]:
        return [i for i, x in enumerate(self.images) if x != i]

    def order(self) -> int:
        import math

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


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def group(generators) -> "PermGroup":
    return PermGroup(generators)


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


def parse_cycles(text: str, degree: int, index_base: int = 1) -> Permutation:
    """Parse disjoint cycle notation like "(1,2,3)(4,5)" into a Permutation.

    Whitespace and newlines between and inside cycles are tolerated. Points are
    1-based by default (index_base=0 switches to 0-based). The empty string or
    "()" is the identity. Repeated points and points outside 0..degree-1 after
    base shift are rejected.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    stripped = text.replace("()", "")
    rest = _CYCLE_RE.sub("", stripped)
    if rest.strip():
        raise ValueError(f"malformed cycle notation near {rest.strip()[:20]!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        pts = [int(tok) - index_base for tok in m.group(1).split(",")]
        for a in pts:
            if not 0 <= a < degree:
                raise ValueError(f"point {a + index_base} out of range for degree {degree}")
            if a in seen:
                raise ValueError(f"point {a + index_base} repeated; cycles must be disjoint")
            seen.add(a)
        for i, a in enumerate(pts):
            images[a] = pts[(i + 1) % len(pts)]
    return Permutation._unsafe(tuple(images))


def format_cycles(p: Permutation, index_base: int = 1) -> str:
    cycs = p.cycles(include_fixed=False)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x + index_base) for x in c) + ")" for c in cycs)


class _Chain:
    """A base with, per level, strong generators and a transversal.

    Level i holds base[i], gens[i], which generate the pointwise stabilizer
    of base[:i], and trans[i], which maps each point a of the orbit of
    base[i] under gens[i] to a product of gens[i] carrying base[i] to a.
    inv[i] maps each such a to the inverse of trans[i][a], computed once when
    a joins the orbit, so sifting and Schreier generators never invert.
    The product of the transversal sizes is the group order.
    """

    __slots__ = ("degree", "base", "gens", "trans", "inv")

    def __init__(self, degree: int, base=()):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[Permutation]] = []
        self.trans: list[dict[int, Permutation]] = []
        self.inv: list[dict[int, Permutation]] = []
        for b in base:
            self._new_level(b)

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
        G = object.__new__(PermGroup)
        G._degree, G._chain, G._prefix_stabilizers = self.degree, self, {}
        G._generators = tuple(generators) or (Permutation.identity(self.degree),)
        return G

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
            self._new_level(min(h.moved_points()))
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
    """Permutation group with an eagerly built, immutable stabilizer chain."""

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a group needs at least one generator (identity is fine)")
        degree = gens[0].degree
        for g in gens:
            if not isinstance(g, Permutation):
                raise ValueError("generators must be Permutation instances")
            if g.degree != degree:
                raise ValueError("all generators must share one degree")
        chain = _Chain(degree)
        for g in gens:
            chain.add(g)
        self._degree, self._generators, self._chain = degree, gens, chain
        self._prefix_stabilizers: dict[tuple[int, ...], PermGroup] = {}

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
        return prod(len(t) for t in self._chain.trans)

    def identity(self) -> Permutation:
        return Permutation.identity(self._degree)

    def sift(self, p: Permutation) -> Permutation:
        """Residue of p after sifting through the chain; identity iff p is a member."""
        if p.degree != self._degree:
            raise ValueError("degree mismatch")
        return self._chain.sift(p)[0]

    def extend(self, g: Permutation) -> "PermGroup":
        """The group generated by this one and g, its chain extended from
        this group's chain; this group itself when g is already a member."""
        if not isinstance(g, Permutation) or g.degree != self._degree:
            raise ValueError("g must be a Permutation of the group's degree")
        chain = self._chain.tail(0)
        if not chain.add(g):
            return self
        return chain.group(self._generators + (g,))

    def contains(self, p: Permutation) -> bool:
        if p.degree != self._degree:
            return False
        return self.sift(p).is_identity()

    __contains__ = contains

    def orbit(self, point: int) -> tuple[int, ...]:
        """Orbit of a point, in BFS discovery order (generators in listed order)."""
        if not 0 <= point < self._degree:
            raise ValueError(f"point {point} out of range")
        seen = {point}
        out = [point]
        queue = deque([point])
        while queue:
            a = queue.popleft()
            for g in self._generators:
                b = g.images[a]
                if b not in seen:
                    seen.add(b)
                    out.append(b)
                    queue.append(b)
        return tuple(out)

    def orbits(self) -> list[tuple[int, ...]]:
        """All point orbits, seeded by ascending smallest unvisited point."""
        seen: set[int] = set()
        out = []
        for s in range(self._degree):
            if s in seen:
                continue
            orb = self.orbit(s)
            seen.update(orb)
            out.append(orb)
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self._degree if self._degree else True

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point, as a new group."""
        return self.pointwise_stabilizer((point,))

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Subgroup fixing every listed point: the tail of a chain whose base
        starts with those points (this group's own chain if its base does).

        The strong generators that fix the whole forced prefix generate the
        pointwise stabilizer; that is the defining property of a base."""
        pts: list[int] = []
        for p in points:
            if not 0 <= p < self._degree:
                raise ValueError(f"point {p} out of range")
            if p not in pts:
                pts.append(p)
        if not pts:
            return self
        chain = self._chain
        if chain.base[: len(pts)] != pts:
            chain = _Chain(self._degree, pts)
            for g in self._generators:
                chain.add(g)
        return chain.tail(len(pts)).group()

    def prefix_stabilizer(self, prefix: tuple[int, ...]) -> "PermGroup":
        """Pointwise stabilizer of the points of prefix: the point stabilizer
        of its last point in the prefix stabilizer of the rest. Memoized on
        this group per prefix, which is safe because its chain never
        changes; every caller holding the group shares the memo."""
        if not prefix:
            return self
        memo = self._prefix_stabilizers
        stab = memo.get(prefix)
        if stab is None:
            stab = self.prefix_stabilizer(prefix[:-1]).point_stabilizer(prefix[-1])
            memo[prefix] = stab
        return stab

    def subdegrees(self, point: int = 0) -> tuple[int, ...]:
        """Orbit lengths of a point stabilizer on all points, sorted ascending.

        Only meaningful (and only allowed) for transitive groups.
        """
        if not self.is_transitive():
            raise ValueError("subdegrees are defined for transitive groups only")
        stab = self.point_stabilizer(point)
        return tuple(sorted(len(o) for o in stab.orbits()))

    def minimal_block(self, a: int, b: int) -> tuple[int, ...]:
        """Smallest block of imprimitivity containing {a, b} (Atkinson-style closure)."""
        if not self.is_transitive():
            raise ValueError("blocks are defined for transitive groups only")
        n = self._degree
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        gens = [g.images for g in self._generators]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
        pairs = deque([(a, b)])
        while pairs:
            x, y = pairs.popleft()
            for g in gens:
                gx, gy = g[x], g[y]
                rx, ry = find(gx), find(gy)
                if rx != ry:
                    parent[ry] = rx
                    pairs.append((gx, gy))
        root = find(a)
        return tuple(x for x in range(n) if find(x) == root)

    def is_primitive(self) -> bool:
        """True iff transitive with no nontrivial block system.

        Tries every pair seed {0, d}; the group is primitive iff each minimal
        block through such a pair is the whole point set.
        """
        if not self.is_transitive():
            return False
        n = self._degree
        if n <= 2:
            return True
        for d in range(1, n):
            if len(self.minimal_block(0, d)) < n:
                return False
        return True

    def elements(self, max_order: int = 10_000_000):
        """Lazy deterministic iteration over all elements.

        Order of the stream is lexicographic over chain coset words: the
        outermost loop runs over the sorted transversal points of the first
        level, then the second, and so on. Raises if the group order exceeds
        max_order.
        """
        order = self.order()
        if order > max_order:
            raise ValueError(f"group order {order} exceeds the iteration bound {max_order}")
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
