"""Self-similar structures and their finite network approximations.

A structure is a base network on a boundary vertex set together with a list
of contraction maps.  Each map carries a resistance scaling factor ``r`` in
``(0, 1)``, a measure weight ``mu``, and the list of vertex names its copy of
the boundary set is glued to.  Refining to level ``n`` produces one scaled
copy of the base per length-``n`` word, glued wherever names coincide; edge
conductances pick up a factor ``1/r`` per letter.

Names listed in a map that equal base labels are taken literally: the map
fixes that boundary point.  Quotient constructions (a loop made from a
segment, say) instead use the ``identify`` list, which merges classes of
boundary labels after each refinement.

Scaling arithmetic runs in :class:`fractions.Fraction` whenever the base
conductances and every ``r`` are rational, so compatible structures stay
exactly compatible; values convert to float only when the network is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .network import (
    NetworkError,
    ResistanceNetwork,
    CellPartition,
    conductance_deviation,
    network_from_dict,
    trace_to,
)

__all__ = [
    "StructureError",
    "ContractionMap",
    "PCFStructure",
    "Refinement",
    "VertexMeasure",
    "CompatibilityReport",
    "refine",
    "verify_compatibility",
    "vertex_measure",
    "cell_partition",
    "embed_indices",
    "parse_measure_spec",
    "structure_from_dict",
    "load_structure",
    "bundled_structure",
    "word_id",
]

#: Refinements beyond this many raw edges are refused by :func:`refine`.
MAX_RAW_EDGES = 2_000_000


class StructureError(ValueError):
    """Raised for invalid self-similar structure definitions."""


def _rational(value):
    """Parse a JSON scalar into Fraction (int or 'p/q' string) or float."""
    if isinstance(value, bool):
        raise StructureError(f"numeric value expected, got {value!r}")
    if isinstance(value, (int, str)):
        try:
            q = Fraction(value)
            float(q)  # every computation runs in floats, so the value must fit one
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise StructureError(f"cannot parse rational {value!r}") from exc
        return q
    if isinstance(value, float):
        return value
    raise StructureError(f"numeric value expected, got {value!r}")


@dataclass(frozen=True)
class ContractionMap:
    """One contraction: resistance factor, measure weight, glued names."""

    r: Fraction | float
    mu: Fraction | float
    vertex_labels: tuple[str, ...]


@dataclass(frozen=True)
class PCFStructure:
    """Base network plus contraction maps defining a self-similar space.

    Attributes:
        base: network on the boundary set; its labels name the boundary.
        maps: contraction data, one entry per similitude.
        base_conductances: exact (possibly rational) conductances aligned
            with ``base`` edge order; defaults to the float values.
        identify: boundary label pairs merged after refinement.
        name: identifier used in report metadata.
    """

    base: ResistanceNetwork
    maps: tuple[ContractionMap, ...]
    base_conductances: tuple = ()
    identify: tuple[tuple[str, str], ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.base.labels is None:
            raise StructureError("base network must carry vertex labels")
        if not self.maps:
            raise StructureError("structure needs at least one contraction map")
        if not self.base_conductances:
            object.__setattr__(
                self, "base_conductances", tuple(float(c) for c in self.base.conductances)
            )
        if len(self.base_conductances) != self.base.edge_count:
            raise StructureError("base_conductances must align with base edges")
        used = set()
        nb = self.base.vertex_count
        for k, m in enumerate(self.maps):
            r, mu = float(m.r), float(m.mu)
            if not 0.0 < r < 1.0:
                raise StructureError(f"map {k}: resistance factor {r} outside (0, 1)")
            if mu <= 0.0:
                raise StructureError(f"map {k}: measure weight {mu} must be positive")
            if len(m.vertex_labels) != nb:
                raise StructureError(f"map {k}: needs {nb} vertex labels")
            if len(set(m.vertex_labels)) != nb:
                raise StructureError(f"map {k}: vertex labels repeat")
            for lab in m.vertex_labels:
                if not lab or "." in lab:
                    raise StructureError(f"map {k}: invalid label {lab!r}")
            used.update(m.vertex_labels)
        total = sum(m.mu for m in self.maps)
        if abs(float(total) - 1.0) > 1e-12:
            raise StructureError(f"measure weights sum to {float(total)}, expected 1")
        for lab in self.base.labels:
            if not lab or "." in lab:
                raise StructureError(f"invalid base label {lab!r}")
            if lab not in used:
                raise StructureError(f"boundary label {lab!r} appears in no map")
        base_set = set(self.base.labels)
        for a, b in self.identify:
            if a == b or a not in base_set or b not in base_set:
                raise StructureError(f"identify pair ({a!r}, {b!r}) must join distinct boundary labels")

    @property
    def map_count(self) -> int:
        return len(self.maps)

    def is_rational(self) -> bool:
        """True when refinement arithmetic can stay exact."""
        return all(isinstance(m.r, Fraction) for m in self.maps) and all(
            isinstance(c, Fraction) for c in self.base_conductances
        )


@dataclass(frozen=True)
class VertexMeasure:
    """Strictly positive mass per vertex of a refined network."""

    mass: np.ndarray
    total: float

    def __post_init__(self):
        if np.any(self.mass <= 0.0) or not np.all(np.isfinite(self.mass)):
            raise StructureError("vertex measure must be strictly positive and finite")


@dataclass(frozen=True)
class Refinement:
    """Level-``n`` network of a structure with its addressing data.

    ``names`` are stable across levels: a vertex of the level-``n`` network
    keeps its display name in every deeper refinement, which is how nested
    vertex sets are embedded.  ``cells`` maps each length-``n`` word to the
    edge indices of its copy of the base; ``cell_vertices`` maps it to the
    vertex indices the copy touches (recorded before parallel-edge merging,
    so degenerate quotients keep their full incidence).
    """

    structure: PCFStructure
    level: int
    net: ResistanceNetwork
    names: tuple[str, ...]
    name_to_index: Mapping[str, int]
    boundary: tuple[int, ...]
    cells: Mapping[tuple[int, ...], tuple[int, ...]]
    cell_vertices: Mapping[tuple[int, ...], tuple[int, ...]]
    collisions: tuple[dict, ...] = ()
    dropped_loops: tuple[dict, ...] = ()


def _name_key(name: tuple) -> tuple:
    return tuple((0, x) if isinstance(x, int) else (1, x) for x in name)


def _display(name: tuple) -> str:
    return ".".join(str(x) for x in name)


def word_id(word: tuple[int, ...]) -> str:
    """Stable string form of a cell word; the empty word is ''."""
    if any(d >= 10 for d in word):
        return "-".join(str(d) for d in word)
    return "".join(str(d) for d in word)


def _raw_edges(s: PCFStructure, n: int) -> list:
    """Unmerged level-``n`` edge list of (name, name, conductance, word)."""
    if n == 0:
        labels = s.base.labels
        return [
            ((labels[int(i)],), (labels[int(j)],), c, ())
            for (i, j), c in zip(zip(s.base.tails, s.base.heads), s.base_conductances)
        ]
    prev = _raw_edges(s, n - 1)
    if len(prev) * s.map_count > MAX_RAW_EDGES:
        raise StructureError(f"refinement level {n} exceeds {MAX_RAW_EDGES} edges")
    base_pos = {lab: k for k, lab in enumerate(s.base.labels)}

    def push(i: int, name: tuple) -> tuple:
        if len(name) == 1 and name[0] in base_pos:
            return (s.maps[i].vertex_labels[base_pos[name[0]]],)
        return (i,) + name

    out = []
    for i, m in enumerate(s.maps):
        for a, b, c, w in prev:
            out.append((push(i, a), push(i, b), c / m.r, (i,) + w))
    return out


def _conductance(c, level: int) -> float:
    """A level-``level`` conductance as a float; one beyond the float range is refused."""
    try:
        value = float(c)
    except OverflowError:
        value = np.inf
    if not -np.inf < value < np.inf:  # also refuses NaN
        raise StructureError(f"level {level} has a conductance beyond the float range")
    return value


def refine(s: PCFStructure, n: int) -> Refinement:
    """Build the level-``n`` network approximation of a structure.

    Vertices are ordered by canonical name (level 0 without identifications
    keeps the base order, so ``refine(s, 0).net`` is the base network).
    Parallel edges arising from degenerate gluings merge by conductance
    addition and are reported in ``collisions``; identification-induced
    self-loops are dropped and reported in ``dropped_loops``.
    """
    if n < 0:
        raise StructureError("refinement level must be non-negative")
    raw = _raw_edges(s, n)

    rep: dict[tuple, tuple] = {}
    for a, b in s.identify:
        na, nb = (a,), (b,)
        ra, rb = rep.get(na, na), rep.get(nb, nb)
        winner, loser = (ra, rb) if _name_key(ra) <= _name_key(rb) else (rb, ra)
        for key, val in list(rep.items()):
            if val == loser:
                rep[key] = winner
        rep[loser] = winner

    def canon(name: tuple) -> tuple:
        return rep.get(name, name)

    if n == 0 and not s.identify:
        name_list = [(lab,) for lab in s.base.labels]
    else:
        name_list = sorted({canon(x) for a, b, _, _ in raw for x in (a, b)}, key=_name_key)
    names = tuple(_display(nm) for nm in name_list)
    index = {nm: k for k, nm in enumerate(name_list)}
    name_to_index = {_display(nm): k for k, nm in enumerate(name_list)}

    merged: dict[tuple[int, int], list] = {}
    cell_vertex_sets: dict[tuple, set] = {}
    loops: list[dict] = []
    for a, b, c, w in raw:
        u, v = index[canon(a)], index[canon(b)]
        cell_vertex_sets.setdefault(w, set()).update((u, v))
        if u == v:
            loops.append({"vertex": names[u], "word": word_id(w), "conductance": _conductance(c, n)})
            continue
        key = (u, v) if u < v else (v, u)
        entry = merged.setdefault(key, [None, []])
        entry[0] = c if entry[0] is None else entry[0] + c
        entry[1].append(w)

    edge_keys = sorted(merged)
    edges = []
    collisions: list[dict] = []
    cell_edges: dict[tuple, list[int]] = {w: [] for w in sorted(cell_vertex_sets)}
    for e_idx, key in enumerate(edge_keys):
        cond, words = merged[key]
        cond = _conductance(cond, n)
        words.sort()
        edges.append((key[0], key[1], cond))
        cell_edges[words[0]].append(e_idx)
        if len(words) > 1:
            collisions.append(
                {
                    "edge": [names[key[0]], names[key[1]]],
                    "words": [word_id(w) for w in words],
                    "conductance": cond,
                }
            )
    try:
        net = ResistanceNetwork.from_edges(len(name_list), edges, names)
    except NetworkError as exc:
        raise StructureError(f"level {n}: {exc}") from exc

    boundary: list[int] = []
    for lab in s.base.labels:
        k = index[canon((lab,))]
        if k not in boundary:
            boundary.append(k)

    return Refinement(
        structure=s,
        level=n,
        net=net,
        names=names,
        name_to_index=name_to_index,
        boundary=tuple(boundary),
        cells={w: tuple(ids) for w, ids in cell_edges.items()},
        cell_vertices={w: tuple(sorted(vs)) for w, vs in sorted(cell_vertex_sets.items())},
        collisions=tuple(collisions),
        dropped_loops=tuple(loops),
    )


def embed_indices(fine: Refinement, coarse: Refinement) -> np.ndarray:
    """Indices of the coarse refinement's vertices inside the fine one."""
    try:
        return np.asarray([fine.name_to_index[nm] for nm in coarse.names], dtype=np.int64)
    except KeyError as exc:
        raise StructureError(f"vertex {exc} of the coarse level is missing from the fine level")


@dataclass(frozen=True)
class CompatibilityReport:
    """Result of tracing level ``n + 1`` onto the level-``n`` vertex set."""

    level: int
    max_deviation: float
    tol: float
    passed: bool


def verify_compatibility(
    coarse: Refinement, fine: Refinement, tol: float = 1e-10
) -> CompatibilityReport:
    """Check that the level-``n + 1`` form traces back to the level-``n`` form.

    ``coarse`` and ``fine`` are the level-``n`` and level-``n + 1``
    refinements of one structure.  Conductances of ``trace_to(fine.net,
    V_n)`` are compared against ``coarse.net`` edge by edge (via stable
    vertex names); the report carries the largest relative deviation.
    """
    if fine.structure is not coarse.structure or fine.level != coarse.level + 1:
        raise StructureError(
            "compatibility needs refinements of one structure at levels n and n + 1"
        )
    traced = trace_to(fine.net, embed_indices(fine, coarse))
    worst = conductance_deviation(traced, coarse.net)
    return CompatibilityReport(level=coarse.level, max_deviation=worst, tol=tol, passed=worst <= tol)


def parse_measure_spec(spec, map_count: int) -> list:
    """Resolve a measure specification into per-map weights.

    Accepts ``None`` / ``"structure"`` (use the maps' own weights),
    ``"uniform"``, a comma-separated string, or a sequence of numbers /
    rational strings.  Weights must be positive and sum to 1 within 1e-12.
    """
    if spec is None or spec == "structure":
        return None
    if isinstance(spec, str):
        if spec == "uniform":
            return [Fraction(1, map_count)] * map_count
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        weights = [_rational(p) for p in parts]
    else:
        weights = [
            w if isinstance(w, Fraction) else _rational(w) if isinstance(w, (int, str)) else float(w)
            for w in spec
        ]
    if len(weights) != map_count:
        raise StructureError(f"measure spec needs {map_count} weights, got {len(weights)}")
    try:
        values, total = [float(w) for w in weights], float(sum(weights))
    except OverflowError as exc:  # a rational weight beyond the float range
        raise StructureError(f"measure weight out of range: {exc}") from exc
    if any(v <= 0.0 for v in values):
        raise StructureError("measure weights must be positive")
    if abs(total - 1.0) > 1e-12:
        raise StructureError(f"measure weights sum to {total}, expected 1")
    return weights


def vertex_measure(ref: Refinement, weights=None) -> VertexMeasure:
    """Vertex masses: each cell splits its measure equally over its vertices.

    A cell of word ``w`` carries mass ``prod_k mu_{w_k}``, distributed in
    equal shares to the vertices of its copy of the base; shares accumulate
    over all cells meeting a vertex.  Total mass is exactly 1 for rational
    weights (up to one final float rounding per vertex).
    """
    s = ref.structure
    ws = parse_measure_spec(weights, s.map_count)
    if ws is None:
        ws = [m.mu for m in s.maps]
    exact = all(isinstance(w, Fraction) for w in ws)
    acc = [Fraction(0) if exact else 0.0] * ref.net.vertex_count
    for word, verts in ref.cell_vertices.items():
        m = Fraction(1) if exact else 1.0
        for letter in word:
            m = m * ws[letter]
        share = m / len(verts)
        for v in verts:
            acc[v] = acc[v] + share
    mass = np.asarray([float(x) for x in acc], dtype=np.float64)
    return VertexMeasure(mass=mass, total=float(sum(acc)))


def cell_partition(ref: Refinement) -> CellPartition:
    """Edge partition by the level-``n`` cells of a refinement."""
    cells = {word_id(word): tuple(sorted(ids)) for word, ids in ref.cells.items()}
    return CellPartition(dict(sorted(cells.items())))


def structure_from_dict(data: Mapping, name: str = "") -> PCFStructure:
    """Parse a structure dict, keeping rational scalars exact."""
    try:
        base_data = dict(data["base"])
        maps_data = list(data["maps"])
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed structure JSON: {exc}") from exc
    try:
        raw_edges = [(e[0], e[1], _rational(e[2])) for e in base_data.get("edges", [])]
        base_data["edges"] = [[i, j, float(c)] for i, j, c in raw_edges]
        base = network_from_dict(base_data)
    except (NetworkError, IndexError, TypeError) as exc:
        raise StructureError(f"malformed base network: {exc}") from exc
    exact_by_pair = {
        (min(int(i), int(j)), max(int(i), int(j))): c for i, j, c in raw_edges
    }
    base_conds = tuple(
        exact_by_pair[(int(i), int(j))] for i, j in zip(base.tails, base.heads)
    )
    maps = []
    for k, m in enumerate(maps_data):
        try:
            maps.append(
                ContractionMap(
                    r=_rational(m["r"]),
                    mu=_rational(m["mu"]),
                    vertex_labels=tuple(str(x) for x in m["labels"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise StructureError(f"malformed map {k} in structure JSON: {exc}") from exc
    identify = tuple((str(a), str(b)) for a, b in data.get("identify", ()))
    return PCFStructure(
        base=base,
        maps=tuple(maps),
        base_conductances=base_conds,
        identify=identify,
        name=str(data.get("name", name)),
    )


def load_structure(path) -> PCFStructure:
    """Load a structure JSON file; the file stem names unnamed structures."""
    import json
    from pathlib import Path

    p = Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return structure_from_dict(data, name=p.stem)


def bundled_structure(name: str) -> PCFStructure:
    """Load one of the structures shipped with the package by name."""
    from importlib.resources import files

    resource = files("magres.structures").joinpath(f"{name}.json")
    try:
        text = resource.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise StructureError(f"no bundled structure named {name!r}") from exc
    import json

    return structure_from_dict(json.loads(text), name=name)
