"""Correctness gate: every benchmark output is re-verified and cross-checked.

Each check that fails adds one message to ``Gate.failures``; the run then
reports ``correct: false``, counts the failure against its attempted ops and
exits non-zero.  The gate receives the ``metricdim`` package as an argument,
so importing this module imports neither ``metricdim`` nor ``networkx``.
"""

from __future__ import annotations

import hashlib
import json
import re

_ELAPSED = re.compile(r'"elapsed_ms":\s*-?\d+')


def normalize_stdout(text: str) -> str:
    """CLI stdout with the wall-clock ``elapsed_ms`` field zeroed."""
    return _ELAPSED.sub('"elapsed_ms":0', text)


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def canonical(value):
    """JSON-ready form of a library result (named tuples, dataclasses, tuples)."""
    if hasattr(value, "_asdict"):
        return {k: canonical(v) for k, v in value._asdict().items()}
    if hasattr(value, "__dataclass_fields__"):
        return {k: canonical(getattr(value, k)) for k in value.__dataclass_fields__}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    return value


def mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


class Gate:
    def __init__(self, md, planar_oracle=None):
        self.md = md
        self.planar_oracle = planar_oracle
        self.failures: list[str] = []
        self.checks = 0

    def expect(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(message)
        return ok

    # -- single outputs ------------------------------------------------------

    def witness(self, where: str, g, dm, value: int, witness, *, connected: bool = False,
                anchor=()) -> bool:
        """Size equals value, vertices distinct and sorted, the set resolves."""
        witness = tuple(witness)
        ok = self.expect(len(witness) == value,
                         f"{where}: witness size {len(witness)} != value {value}")
        ok &= self.expect(witness == tuple(sorted(set(witness))) and len(witness) > 0,
                          f"{where}: witness {witness} is not a sorted non-empty vertex set")
        if not ok:
            return False
        cert = self.md.check_resolving(g, dm, witness)
        ok &= self.expect(cert.resolving,
                          f"{where}: witness {witness} does not resolve {cert.witness_pair}")
        if connected:
            ok &= self.expect(g.is_connected_subset(mask_of(witness)),
                              f"{where}: witness {witness} is not connected")
        if anchor:
            ok &= self.expect(set(anchor) <= set(witness),
                              f"{where}: witness {witness} misses anchor {tuple(anchor)}")
        return ok

    def minor_witness(self, where: str, g, target: str, found: bool, witness) -> bool:
        if not found:
            return self.expect(witness is None, f"{where}: absent {target} minor has a witness")
        return self.expect(self.md.verify_minor_witness(g, target, witness),
                           f"{where}: {target} witness {witness} does not verify")

    # -- one graph, all ops --------------------------------------------------

    def graph(self, key: str, g, dm, r: dict) -> None:
        """Cross-check every op result on one graph.

        ``r`` holds raw results: ``dim``, ``cdim``, ``profile``, ``enum``,
        ``planar``, ``tree_sets``, ``formula_dim``, ``formula_cdim`` (any
        may be absent) and the dicts
        ``cdim_at`` (anchor tuple -> result), ``has_minor`` (target ->
        result) and ``formula_cdim_at`` (vertex -> result).  A formula or tree
        result that is an exception name means no closed form applies.
        """
        dim, cdim, prof, sets = r.get("dim"), r.get("cdim"), r.get("profile"), r.get("enum")
        at = r.get("cdim_at", {})
        if dim is not None:
            self.witness(f"{key} dim", g, dm, dim.value, dim.witness)
        if cdim is not None:
            self.witness(f"{key} cdim", g, dm, cdim.value, cdim.witness, connected=True)
        for anchor, res in at.items():
            where = f"{key} cdim_at{list(anchor)}"
            self.witness(where, g, dm, res.value, res.witness, connected=True, anchor=anchor)
            if cdim is not None:
                self.expect(cdim.value <= res.value, f"{where}: {res.value} < cdim {cdim.value}")
        if dim is not None and cdim is not None:
            self.expect(dim.value <= cdim.value, f"{key}: dim {dim.value} > cdim {cdim.value}")
        if prof is not None:
            pv = prof.per_vertex
            self.expect(len(pv) == g.n, f"{key} profile: {len(pv)} values for n={g.n}")
            self.expect(prof.rrad == min(pv) and prof.rdiam == max(pv),
                        f"{key} profile: rrad/rdiam disagree with per_vertex")
            self.expect(prof.rc == tuple(v for v in range(g.n) if pv[v] == prof.rrad)
                        and prof.rp == tuple(v for v in range(g.n) if pv[v] == prof.rdiam),
                        f"{key} profile: center/periphery disagree with per_vertex")
            if cdim is not None:
                self.expect(prof.rrad == cdim.value,
                            f"{key} profile: rrad {prof.rrad} != cdim {cdim.value}")
            for anchor, res in at.items():
                if len(anchor) == 1:
                    self.expect(pv[anchor[0]] == res.value,
                                f"{key} profile: per_vertex[{anchor[0]}]={pv[anchor[0]]} "
                                f"!= cdim_at {res.value}")
        if sets is not None:
            self.expect(bool(sets) and sets == sorted(set(sets)),
                        f"{key} enum: sets are empty or not in lexicographic order")
            for s in sets:
                size = dim.value if dim is not None else len(sets[0])
                if not self.witness(f"{key} enum", g, dm, size, s):
                    break
            if dim is not None and sets:
                self.expect(tuple(sets[0]) == tuple(dim.witness),
                            f"{key} enum: first set {sets[0]} != dim witness {dim.witness}")
        found = {}
        for target, (ok, model) in r.get("has_minor", {}).items():
            self.minor_witness(f"{key} has_minor {target}", g, target, ok, model)
            found[target] = ok
        if "planar" in r:
            planar = r["planar"]
            if self.planar_oracle is not None:
                self.expect(planar == self.planar_oracle(g),
                            f"{key} planar: is_planar_desk says {planar}, the oracle disagrees")
            if len(found) == 2 and g.n >= 3:
                self.expect(planar == (not any(found.values())),
                            f"{key} planar: {planar} but minors found {found}")
        self._formulas(key, r, dim, cdim, at)
        trees = r.get("tree_sets")
        if trees is not None and not isinstance(trees, str):
            if sets is not None:
                self.expect([tuple(s) for s in trees] == [tuple(s) for s in sets],
                            f"{key} tree_sets: differ from enumerated minimum sets")
            elif dim is not None:
                self.expect(trees == sorted(trees) and tuple(trees[0]) == tuple(dim.witness),
                            f"{key} tree_sets: first set {trees[:1]} != dim witness")
                for s in trees:
                    if not self.witness(f"{key} tree_sets", g, dm, dim.value, s):
                        break

    def _formulas(self, key: str, r: dict, dim, cdim, at: dict) -> None:
        pairs = [("formula_dim", r.get("formula_dim"), dim),
                 ("formula_cdim", r.get("formula_cdim"), cdim)]
        pairs += [(f"formula_cdim_at[{v}]", res, at.get((v,)))
                  for v, res in r.get("formula_cdim_at", {}).items()]
        for name, res, exact in pairs:
            if res is None or isinstance(res, str) or exact is None:
                continue
            self.expect(res.value == exact.value,
                        f"{key} {name}: closed form {res.value} != exact {exact.value}")

    # -- across passes and commits -------------------------------------------

    def same(self, where: str, first, other) -> bool:
        return self.expect(first == other, f"{where}: output differs between passes")

    def pins(self, actual: dict, pinned: dict) -> None:
        """Digests of this run's outputs against the seed commit's."""
        missing = sorted(set(pinned) - set(actual))
        self.expect(not missing, f"pinned outputs not produced: {missing[:5]}")
        for key, value in actual.items():
            if key in pinned:
                self.expect(value == pinned[key], f"{key}: output differs from the pinned one")
            else:
                self.expect(False, f"{key}: output has no pin")


def levels(md, g, dm, value: int, anchor=()) -> int:
    """Cardinalities the search steps through: answer - floor + 1."""
    tp = md.twin_partition(g)
    floor = max(1, tp.lower_bound(), md.dim_floor_from_diameter(g.n, dm.diam), len(anchor))
    return value - floor + 1
