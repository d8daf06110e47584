"""Construction of overlapping node covers driving distributed observers.

Every node ends up belonging to one or more cover sets.  The sets a node
belongs to determine which states its local observer reconstructs, so the sum
of the sizes of those sets (the node's *load*) is the quantity worth keeping
small.  Covers are built in two passes:

* an establish pass walks nodes in order of increasing communication degree
  and, for each physical in-neighbor not yet reachable through an existing
  set, collects the nodes of a shortest communication path into one new set;
* a merge pass walks nodes in order of decreasing communication degree and
  fuses groups of that node's sets sharing at least two members, whenever two
  arithmetic conditions on the resulting loads hold.

A fusion drops the sets it fuses away; the surviving sets keep their ids.

Both passes run on indexes rather than scans: establish walks the pair's
neighbor index by breadth-first search; merge keeps, per node, the ids of the
sets holding it and its current load, and enumerates a node's merge groups
level by level, extending only groups whose shared core still has two
members; :class:`CoverAssignment` looks sets up by id in a dict; validation
checks set connectivity by breadth-first search.  The outputs are those of
the scanning implementation kept in ``tests/cover_oracle.py``, byte for byte:
``tests/test_cover_oracle.py`` (40 tests, about 11 s) compares saved pairs,
saved covers, validation reports and the spectrum floor against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifact import FilePath, read_json, write_json
from .netgraph import NetworkPair, _connected, shortest_path


class CoverageError(Exception):
    """Raised for invalid cover assignments or unusable inputs."""


# Beyond this many sets at one node, merge candidates are restricted to small
# groups to keep enumeration polynomial.
FULL_ENUMERATION_LIMIT = 20
CAPPED_GROUP_SIZE = 3


@dataclass(frozen=True)
class CoverSet:
    """One cover set; ``members`` is sorted, distinct and never empty."""

    id: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(map(int, self.members)))
        object.__setattr__(self, "members", members)
        if not members:
            raise CoverageError(f"set {self.id} has no members")
        if len(set(members)) != len(members):
            raise CoverageError(f"set {self.id} has duplicate members {self.members}")


@dataclass(frozen=True)
class CoverAssignment:
    """A family of cover sets over nodes 1..n.

    The sets are kept in ascending id order, and two sets with one id are
    rejected.  ``membership[i]`` holds the ids of the sets containing node
    i, ascending; it and the id index are derived from the sets, so they
    cannot disagree with them.
    """

    n: int
    sets: tuple[CoverSet, ...]
    membership: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _by_id: dict[int, CoverSet] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sets = tuple(sorted(self.sets, key=lambda s: s.id))
        by_id = {s.id: s for s in sets}
        if len(by_id) != len(sets):
            raise CoverageError(f"duplicate set ids in {[s.id for s in sets]}")
        held: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for s in sets:
            for v in s.members:
                if v in held:
                    held[v].append(s.id)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "membership", {i: tuple(p) for i, p in held.items()})
        object.__setattr__(self, "_by_id", by_id)

    def set_by_id(self, p: int) -> CoverSet:
        try:
            return self._by_id[p]
        except KeyError:
            raise CoverageError(f"no cover set with id {p}") from None

    def sets_of(self, i: int) -> tuple[int, ...]:
        return self.membership.get(i, ())

    def covered(self, i: int) -> frozenset[int]:
        """Union of the node's sets: every state its observer reconstructs."""
        out: set[int] = set()
        for p in self.sets_of(i):
            out.update(self.set_by_id(p).members)
        return frozenset(out)

    def load(self, i: int) -> int:
        return sum(len(self.set_by_id(p).members) for p in self.sets_of(i))

    def nonempty_sets(self) -> tuple[CoverSet, ...]:
        """The sets, all nonempty; the benchmark harness calls it."""
        return self.sets

    def loads(self) -> dict[int, int]:
        return {i: self.load(i) for i in range(1, self.n + 1)}

    def total_load(self) -> int:
        return sum(self.load(i) for i in range(1, self.n + 1))


def order_nodes(pair: NetworkPair, phase: str) -> list[int]:
    """Processing order for a pass; ties fall back to ascending node id."""
    comm = [len(nbrs) for nbrs in pair.comm_nbrs]
    phys = [-len(nbrs) for nbrs in pair.phys_nbrs]
    if phase == "merge":
        comm = [-d for d in comm]
    elif phase != "establish":
        raise ValueError(f"unknown phase {phase!r}")
    return [i for _, _, i in sorted(zip(comm, phys, pair.nodes()))]


def establish(pair: NetworkPair) -> CoverAssignment:
    """First pass: path-collection sets giving every node neighbor coverage.

    For each node, the physical in-neighbors missing from the union of its
    current sets are fixed at loop entry; the nodes of a shortest
    communication path to each are unioned into a single new set.  Nodes left
    in no set afterwards (isolated ones) get a singleton set.
    """
    sets: list[CoverSet] = []
    covered: dict[int, set[int]] = {i: set() for i in pair.nodes()}
    next_id = 1

    for i in order_nodes(pair, "establish"):
        missing = sorted(pair.phys_neighbors(i) - covered[i])
        if not missing:
            continue
        new_members: set[int] = set()
        for j in missing:
            # physical neighbors sit a few hops away in the communication
            # graph, so a search from j that stops at i beats a full one
            new_members.update(shortest_path(pair, i, j))
        sets.append(CoverSet(next_id, tuple(new_members)))
        next_id += 1
        for k in new_members:
            covered[k].update(new_members)

    for i in pair.nodes():
        if not covered[i]:  # in no set: a set's members cover each other
            sets.append(CoverSet(next_id, (i,)))
            next_id += 1
    return CoverAssignment(pair.n, sets)


def _candidate_groups(
    pi: tuple[int, ...], members: dict[int, set[int]]
) -> list[tuple[int, ...]]:
    """Groups of ``pi`` whose members share >= 2 nodes, level by level.

    A group's core only shrinks as sets are added, so every eligible group
    of size k + 1 extends an eligible group of size k by a later set
    (Apriori, Agrawal & Srikant 1994).  Extending the size-k groups in
    order yields the same groups in the same order as enumerating all
    combinations of each size, without visiting the ineligible ones.
    """
    max_size = len(pi) if len(pi) <= FULL_ENUMERATION_LIMIT else CAPPED_GROUP_SIZE
    sets = [members[p] for p in pi]
    out: list[tuple[int, ...]] = []
    # (group, position in pi after its last set, core) of the eligible
    # groups of the current size
    level = [((p,), k + 1, sets[k]) for k, p in enumerate(pi) if len(sets[k]) >= 2]
    for _ in range(2, max_size + 1):
        grown = []
        for group, start, core in level:
            for k in range(start, len(pi)):
                shared = core & sets[k]
                if len(shared) >= 2:
                    grown.append((group + (pi[k],), k + 1, shared))
        out.extend(group for group, _, _ in grown)
        level = grown
        if not level:
            break
    return out


def merge_candidates(assignment: CoverAssignment, i: int) -> list[tuple[int, ...]]:
    """Groups of node i's sets eligible for fusing: shared core of >= 2 nodes.

    Enumerated by ascending group size, then lexicographically on the sorted
    set ids, so downstream processing is reproducible.  When the node belongs
    to more than ``FULL_ENUMERATION_LIMIT`` sets, only groups of up to
    ``CAPPED_GROUP_SIZE`` sets are considered.
    """
    pi = assignment.sets_of(i)
    members = {p: set(assignment.set_by_id(p).members) for p in pi}
    return _candidate_groups(pi, members)


def merge(assignment: CoverAssignment, pair: NetworkPair) -> CoverAssignment:
    """Second pass: fuse set groups when doing so balances and shrinks loads.

    Nodes are visited in decreasing communication degree.  A group fuses into
    its first set, and its other sets are dropped, when, with U the union of
    the group and D* = |U|: (a) D* - D(l) <= D(i) - D* for every other node l
    in U, and (b) D*^2 <= sum of D(l) over l in U, both evaluated on the
    current state.  A node's candidate list is fixed when the node is first
    visited; each group is re-checked against the updated sets when its turn
    comes, and groups left with fewer than two surviving sets are skipped.
    """
    members: dict[int, set[int]] = {s.id: set(s.members) for s in assignment.sets}
    # node -> ids of the live sets containing it, and node -> load, both
    # kept current so each visit and each check reads them instead of
    # scanning every set
    holder: dict[int, set[int]] = {i: set() for i in pair.nodes()}
    load: dict[int, int] = {i: 0 for i in pair.nodes()}
    for p, mem in members.items():
        size = len(mem)
        for v in mem:
            holder[v].add(p)
            load[v] += size

    fused: set[int] = set()  # ids of the sets a fusion changed
    for i in order_nodes(pair, "merge"):
        if len(holder[i]) < 2:  # no group to fuse
            continue
        for combo in _candidate_groups(tuple(sorted(holder[i])), members):
            sets = [members[p] for p in combo]
            if sum(map(bool, sets)) <= 1:  # fused away since the list was made
                continue
            union: set[int] = set().union(*sets)
            d_star = len(union)
            # (a) as: every other node's load is at least 2 D* - D(i)
            floor = 2 * d_star - load[i]
            if min(map(load.__getitem__, union - {i}), default=floor) >= floor and (
                d_star * d_star <= sum(map(load.__getitem__, union))
            ):
                for p in combo:
                    for v in members[p]:
                        holder[v].discard(p)
                        load[v] -= len(members[p])
                    members[p] = set()
                members[combo[0]] = union
                for v in union:
                    holder[v].add(combo[0])
                    load[v] += d_star
                fused.update(combo)
    given = {s.id: s for s in assignment.sets}
    return CoverAssignment(
        assignment.n,
        [CoverSet(p, tuple(mem)) if p in fused else given[p] for p, mem in members.items() if mem],
    )


def solve(pair: NetworkPair) -> CoverAssignment:
    """Establish then merge; the result is checked before being returned."""
    assignment = merge(establish(pair), pair)
    report = validate(assignment, pair)
    if not report.ok:
        raise CoverageError(
            "solver produced an invalid assignment: " + "; ".join(report.violations)
        )
    return assignment


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(assignment: CoverAssignment, pair: NetworkPair) -> ValidationReport:
    """Check an assignment against the structural rules.

    Verifies: every node belongs to at least one set; the union of a node's
    sets contains all its physical in-neighbors; each set's members are
    nodes of the graph and induce a connected communication subgraph.
    """
    v: list[str] = []
    if assignment.n != pair.n:
        return ValidationReport((f"assignment covers {assignment.n} nodes, graph has {pair.n}",))
    by_id = {s.id: s.members for s in assignment.sets}

    for i, held in assignment.membership.items():
        phys = pair.phys_neighbors(i)
        if not held:
            v.append(f"node {i}: not in any cover set")
        covered = set().union(*map(by_id.__getitem__, held))
        if not phys <= covered:
            v.append(f"node {i}: physical neighbors {sorted(phys - covered)} not covered")

    # members are sorted and distinct, so a set in range has its ends in 1..n
    for s in assignment.sets:
        m = s.members
        if not (1 <= m[0] and m[-1] <= pair.n and _connected(pair.comm_nbrs, [u - 1 for u in m])):
            v.append(f"set {s.id}: members {list(m)} induce a disconnected communication subgraph")
    return ValidationReport(tuple(v))


@dataclass(frozen=True)
class DimensionStats:
    """Observer dimensions n*D(i) across nodes, plus savings vs. n*N."""

    block_order: int
    node_count: int
    max_dim: int
    min_dim: int
    mean_dim: float
    max_reduction: float
    min_reduction: float
    mean_reduction: float


def dimension_stats(assignment: CoverAssignment, block_order: int) -> DimensionStats:
    full = block_order * assignment.n
    dims = [block_order * assignment.load(i) for i in range(1, assignment.n + 1)]
    mean = float(np.mean(dims))
    return DimensionStats(
        block_order=block_order,
        node_count=assignment.n,
        max_dim=max(dims),
        min_dim=min(dims),
        mean_dim=mean,
        max_reduction=1.0 - max(dims) / full,
        min_reduction=1.0 - min(dims) / full,
        mean_reduction=1.0 - mean / full,
    )


def pareto_local_audit(
    assignment: CoverAssignment, pair: NetworkPair
) -> tuple[bool, str | None]:
    """Confirm no single edit lowers one node's load without cost elsewhere.

    Edits tried: removing one node from one set, deleting one set outright,
    and unconditionally fusing any merge-candidate group.  An edit that keeps
    the assignment valid, strictly lowers some node's load, and raises no
    node's load is a counterexample; its description is returned.
    """
    base = assignment.loads()

    def check(what: str, left_out, *added: CoverSet) -> str | None:
        """``what`` if the sets without those in ``left_out``, plus
        ``added``, are a counterexample."""
        edited = CoverAssignment(
            assignment.n, [t for t in assignment.sets if t.id not in left_out] + list(added)
        )
        if not validate(edited, pair).ok:
            return None
        new = edited.loads()
        if any(new[l] > base[l] for l in new):
            return None
        if any(new[l] < base[l] for l in new):
            return what
        return None

    for s in assignment.sets:
        for victim in s.members:
            rest = tuple(m for m in s.members if m != victim)
            hit = check(
                f"drop node {victim} from set {s.id}",
                {s.id}, *([CoverSet(s.id, rest)] if rest else []),
            )
            if hit:
                return False, hit

    for s in assignment.sets:
        hit = check(f"delete set {s.id}", {s.id})
        if hit:
            return False, hit

    seen: set[tuple[int, ...]] = set()
    for i in pair.nodes():
        for combo in merge_candidates(assignment, i):
            if combo in seen:
                continue
            seen.add(combo)
            union: set[int] = set()
            for p in combo:
                union.update(assignment.set_by_id(p).members)
            hit = check(f"fuse sets {list(combo)}", combo, CoverSet(combo[0], tuple(union)))
            if hit:
                return False, hit

    return True, None


def save_cover(
    assignment: CoverAssignment,
    path: FilePath,
    manifest_hash: str | None = None,
) -> None:
    doc = {
        "node_count": assignment.n,
        "sets": [{"id": s.id, "members": list(s.members)} for s in assignment.sets],
        "membership": {str(i): list(assignment.sets_of(i)) for i in range(1, assignment.n + 1)},
        "loads": {str(i): assignment.load(i) for i in range(1, assignment.n + 1)},
    }
    write_json(path, doc, manifest_hash)


def load_cover(path: FilePath, pair: NetworkPair) -> CoverAssignment:
    """Read a cover file and check it against ``pair`` with :func:`validate`,
    so that a cover of another network is rejected here rather than deep in
    synthesis."""

    def parse(doc) -> CoverAssignment:
        n = int(doc["node_count"])
        sets = [CoverSet(int(s["id"]), tuple(s["members"])) for s in doc["sets"]]
        assignment = CoverAssignment(n, sets)
        stored = doc.get("membership")
        if stored is not None:
            derived = {str(i): list(assignment.sets_of(i)) for i in range(1, n + 1)}
            if {k: list(v) for k, v in stored.items()} != derived:
                raise CoverageError("membership does not match sets")
        violations = validate(assignment, pair).violations
        if violations:
            more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
            raise CoverageError(f"does not fit the network: {violations[0]}{more}")
        return assignment

    return read_json(path, CoverageError, parse)
