"""Permutations of {0..n-1} and finitely generated permutation groups.

Composition convention, used everywhere in this package: compose(p, q) is the
permutation mapping i -> q(p(i)), i.e. p acts first, then q. Inside the library
all points are 0-based; cycle-notation text I/O is 1-based by default.

Groups carry a deterministic Schreier-Sims stabilizer chain, built eagerly at
construction and never mutated afterwards. Base points are the smallest moved
points, transversals are grown by breadth-first search with generators applied
in their listed order, so identical generator lists always produce identical
chains, identical orders and identical element streams.
"""

from __future__ import annotations

import re
from collections import deque


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
        return cls._unsafe(tuple(range(degree)))

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

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
        return all(i == x for i, x in enumerate(self.images))

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
    return Permutation._unsafe(tuple(qi[x] for x in pi))


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


class _Level:
    """One stabilizer-chain level: base point, level generators, transversal.

    gens is the set of strong generators fixing all earlier base points;
    transversal[d] is a product of gens mapping the base point to d.
    """

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}


def _bfs_transversal(degree: int, point: int, gens: list[Permutation]) -> dict[int, Permutation]:
    # BFS from the base point, generators in listed order: deterministic.
    t = {point: Permutation.identity(degree)}
    queue = deque([point])
    while queue:
        a = queue.popleft()
        ua = t[a]
        for g in gens:
            b = g.images[a]
            if b not in t:
                t[b] = compose(ua, g)
                queue.append(b)
    return t


def _build_chain(degree: int, generators: list[Permutation],
                 base_prefix: tuple[int, ...] = ()) -> list[_Level]:
    """Deterministic (non-randomized) Schreier-Sims.

    Maintains a strong generator list and a base; level i works with the
    strong generators fixing the first i base points. Levels are closed from
    the deepest up: every Schreier generator of a closed level sifts to the
    identity through the levels below it, which makes the transversal-size
    product the group order. base_prefix forces the first base points (used
    for point stabilizers); further base points are the smallest point moved
    by the strong generator that needs one.
    """
    base: list[int] = []
    for b in base_prefix:
        if b not in base:
            base.append(b)
    strong: list[Permutation] = []
    trans: list[dict[int, Permutation]] = []

    def fixes_prefix(g: Permutation, i: int) -> bool:
        return all(g.images[b] == b for b in base[:i])

    def level_gens(i: int) -> list[Permutation]:
        return [g for g in strong if fixes_prefix(g, i)]

    def strip(p: Permutation, start: int) -> tuple[Permutation, int]:
        i = start
        while i < len(base):
            delta = p.images[base[i]]
            if delta != base[i]:
                u = trans[i].get(delta)
                if u is None:
                    return p, i
                p = compose(p, u.inverse())
            i += 1
        return p, len(base)

    def close_level(i: int) -> None:
        # precondition: levels > i are closed and their transversals are current
        while True:
            si = level_gens(i)
            trans[i] = _bfs_transversal(degree, base[i], si)
            inserted = False
            for a in sorted(trans[i]):
                ua = trans[i][a]
                for s in si:
                    ub = trans[i][s.images[a]]
                    schreier = compose(compose(ua, s), ub.inverse())
                    if schreier.is_identity():
                        continue
                    residue, j = strip(schreier, i + 1)
                    if residue.is_identity():
                        continue
                    if j == len(base):
                        base.append(min(residue.moved_points()))
                        trans.append({})
                    strong.append(residue)
                    for m in range(j, i, -1):
                        close_level(m)
                    inserted = True
                    break
                if inserted:
                    break
            if not inserted:
                return

    for g in generators:
        if g.is_identity():
            continue
        strong.append(g)
        if fixes_prefix(g, len(base)):
            base.append(min(g.moved_points()))
            trans.append({})
    while len(trans) < len(base):
        trans.append({})
    for i in range(len(base) - 1, -1, -1):
        close_level(i)

    levels = []
    for i, b in enumerate(base):
        lvl = _Level(b)
        lvl.gens = level_gens(i)
        lvl.transversal = trans[i] if trans[i] else {b: Permutation.identity(degree)}
        levels.append(lvl)
    return levels


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
        self._degree = degree
        self._generators = gens
        self._chain = _build_chain(degree, list(gens))
        order = 1
        for lvl in self._chain:
            order *= len(lvl.transversal)
        self._order = order

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._generators

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._chain)

    def order(self) -> int:
        return self._order

    def identity(self) -> Permutation:
        return Permutation.identity(self._degree)

    def sift(self, p: Permutation) -> Permutation:
        """Residue of p after sifting through the chain; identity iff p is a member."""
        if p.degree != self._degree:
            raise ValueError("degree mismatch")
        for lvl in self._chain:
            delta = p.images[lvl.point]
            if delta == lvl.point:
                continue
            u = lvl.transversal.get(delta)
            if u is None:
                return p
            p = compose(p, u.inverse())
        return p

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
        """Stabilizer of a point, as a new group (chain rebuilt with that base point first)."""
        return self.pointwise_stabilizer((point,))

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Subgroup fixing every listed point, via a chain based on those points.

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
        chain = _build_chain(self._degree, list(self._generators), base_prefix=tuple(pts))
        gens = list(chain[len(pts)].gens) if len(pts) < len(chain) else []
        if not gens:
            gens = [Permutation.identity(self._degree)]
        return PermGroup(gens)

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
        if self._order > max_order:
            raise ValueError(
                f"group order {self._order} exceeds the iteration bound {max_order}")
        ident = Permutation.identity(self._degree)
        levels = self._chain

        def gen(i: int):
            if i == len(levels):
                yield ident
                return
            for pt in sorted(levels[i].transversal):
                u = levels[i].transversal[pt]
                for tail in gen(i + 1):
                    yield compose(tail, u)

        return gen(0)

    def derived_subgroup(self) -> "PermGroup":
        """Commutator subgroup, via normal closure of generator commutators."""
        ident = Permutation.identity(self._degree)
        work: list[Permutation] = []
        for a in self._generators:
            for b in self._generators:
                c = compose(compose(a.inverse(), b.inverse()), compose(a, b))
                if not c.is_identity() and c not in work:
                    work.append(c)
        if not work:
            return PermGroup([ident])
        sub = PermGroup(work)
        changed = True
        while changed:
            changed = False
            for h in list(sub.generators):
                for s in self._generators:
                    conj = compose(compose(s.inverse(), h), s)
                    if not sub.contains(conj):
                        sub = PermGroup(tuple(sub.generators) + (conj,))
                        changed = True
        return sub

    def __repr__(self):
        return f"PermGroup(degree={self._degree}, order={self._order}, ngens={len(self._generators)})"
