"""Seeded job generators for the three benchmark workloads.

Every job is plain data: a logq job config (the JSON the CLI reads, which
the library workloads decode with ``from_jsonable``) plus a ``spec`` that
describes the input semantically, so that ``oracle.py`` can work out the
expected answer without asking logq.  Nothing here imports logq.

The seed moves translations, axis orders, cut corners and the parameters
inside fixed job slots; the slots themselves are fixed, so every seed of a
workload costs about the same and run-to-run spread reflects the program,
not the draw.
"""
from __future__ import annotations

import json
import random
from itertools import permutations


def frac(n: int) -> str:
    return f"{n}/1"


def halfspace(normal, offset) -> dict:
    return {"normal": [frac(c) for c in normal], "offset": frac(offset)}


def unit(rank: int, i: int, s: int = 1) -> tuple[int, ...]:
    return tuple(s if j == i else 0 for j in range(rank))


def box_halfspaces(lo, hi) -> list[dict]:
    rank = len(lo)
    out = []
    for i in range(rank):
        out.append(halfspace(unit(rank, i), lo[i]))
        out.append(halfspace(unit(rank, i, -1), -hi[i]))
    return out


def cut_halfspaces(cuts) -> list[dict]:
    """Corner cuts s.(x - c) >= k, one per (corner, inward signs, depth)."""
    return [
        halfspace(s, sum(a * b for a, b in zip(s, c)) + k) for c, s, k in cuts
    ]


# ---------------------------------------------------------------------------
# lattice_ladder: Delzant boxes and cut-corner polygons.

# (tag, side lengths, number of cut corners).  The 60x60 square and the
# 15-cube are the ROADMAP baseline rows.  Two rectangles of the square's size
# make the square's tier 12% of the jobs, so job_p90_ms falls inside that
# tier's samples rather than in the gap below it, where it jumps with noise.
LADDER = (
    ("rect", (10, 20), 0),
    ("rect", (14, 14), 0),
    ("rect", (8, 40), 0),
    ("rect", (20, 20), 0),
    ("rect", (16, 30), 0),
    ("cut", (16, 24), 1),
    ("cut", (24, 24), 1),
    ("rect", (24, 40), 0),
    ("rect", (27, 50), 0),
    ("rect", (37, 37), 0),
    ("rect", (14, 96), 0),
    ("rect", (24, 58), 0),
    ("rect", (56, 64), 0),
    ("rect", (48, 76), 0),
    ("cut", (30, 30), 2),
    ("cut", (24, 48), 1),
    ("cut", (33, 33), 2),
    ("cut", (36, 36), 2),
    ("cut", (44, 30), 2),
    ("box", (3, 4, 6), 0),
    ("box", (4, 4, 8), 0),
    ("box", (4, 6, 12), 0),
    ("box", (6, 7, 8), 0),
    ("square60", (60, 60), 0),
    ("cube15", (15, 15, 15), 0),
)


def _corner_cuts(rng: random.Random, lo, hi, count: int):
    """Delzant corner cuts: each cut is the blow-up of one rectangle corner,
    shallow enough that no two cuts meet on an edge."""
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    rng.shuffle(corners)
    span = min(hi[0] - lo[0], hi[1] - lo[1])
    cuts = []
    for ix, iy in corners[:count]:
        c = (hi[0] if ix else lo[0], hi[1] if iy else lo[1])
        s = (-1 if ix else 1, -1 if iy else 1)
        k = rng.randint(span // 6, span // 3)
        cuts.append((c, s, k))
    return cuts


def lattice_ladder(seed: int) -> list[dict]:
    rng = random.Random(f"lattice_ladder:{seed}")
    jobs = []
    for n, (tag, sides, ncuts) in enumerate(LADDER):
        rank = len(sides)
        sides = list(sides)
        order = rng.choice(list(permutations(range(rank))))
        sides = [sides[i] for i in order]
        lo = [rng.randint(-40, 40) for _ in range(rank)]
        hi = [a + s for a, s in zip(lo, sides)]
        cuts = _corner_cuts(rng, lo, hi, ncuts) if ncuts else []
        payload = {"rank": rank, "halfspaces": box_halfspaces(lo, hi) + cut_halfspaces(cuts)}
        jobs.append({
            "id": f"ladder-{n:02d}-{tag}",
            "config": {"kind": "delzant", "payload": payload},
            "spec": {"kind": "polytope", "lo": lo, "hi": hi, "cuts": cuts},
        })
    return jobs


# ---------------------------------------------------------------------------
# Welded products of sphere families.


def welded(rng: random.Random, lo, widths, chamfers: int, redundant: int):
    """A 2^rank-piece product of rank-1 sphere families.

    Component ``b`` (a bit string) carries the orthant piece x_i >= c_b[i],
    with c_b[i] = lo[i] when bit i is 0 and hi[i] = lo[i] + widths[i] when it
    is 1, and crossing-parity sign (-1)^|b|.  One wall per pair of components
    that differ in one bit, with residue e_i, and one stratum per wall.

    ``chamfers`` pieces get a vertex cut sum(x - c_b) >= k, which changes the
    answer by a simplex and adds one hyperplane.  ``redundant`` pieces get a
    facet sum_S(x - c_b) >= -k that the orthant already implies: a new
    hyperplane, no change to the answer.  Returns the toric payload, the
    explicit fixed-point terms (one Brion vertex term per piece vertex), and
    the spec the oracle reads.  ``rng`` places the chamfers and the redundant
    facets; ``lo`` is the corner of the base piece.
    """
    rank = len(lo)
    hi = [a + w for a, w in zip(lo, widths)]
    comps = [tuple((m >> i) & 1 for i in range(rank)) for m in range(2 ** rank)]

    def name(b):
        return "C" + "".join(map(str, b))

    def corner(b):
        return [hi[i] if b[i] else lo[i] for i in range(rank)]

    walls, strata = [], []
    for b in comps:
        for i in range(rank):
            if b[i] == 0:
                b2 = tuple(1 if j == i else b[j] for j in range(rank))
                wid = f"w{i}_{name(b)}"
                walls.append({"id": wid, "residue": [frac(c) for c in unit(rank, i)],
                              "joins": [name(b), name(b2)]})
                strata.append([wid])
    extra = {b: [] for b in comps}
    chamfered = {}
    used = set()
    order = list(comps)
    rng.shuffle(order)
    normal = (1,) * rank
    for b in order:
        if len(chamfered) == chamfers:
            break
        c = corner(b)
        free = [k for k in range(1, min(widths) + 1) if (normal, sum(c) + k) not in used]
        if not free:
            continue
        k = rng.choice(free)
        used.add((normal, sum(c) + k))
        extra[b].append(halfspace(normal, sum(c) + k))
        chamfered[b] = k
    if len(chamfered) != chamfers:
        raise ValueError(f"cannot place {chamfers} distinct chamfers on widths {widths}")
    subsets = [tuple(1 if (m >> i) & 1 else 0 for i in range(rank))
               for m in range(2 ** rank) if bin(m).count("1") >= 2]
    placed = 0
    while placed < redundant:
        b = rng.choice(comps)
        normal = rng.choice(subsets)
        off = sum(a * x for a, x in zip(normal, corner(b))) - rng.randint(0, 2)
        if (normal, off) in used:
            continue
        used.add((normal, off))
        extra[b].append(halfspace(normal, off))
        placed += 1
    pieces = []
    terms = []
    for b in comps:
        c = corner(b)
        hs = [halfspace(unit(rank, i), c[i]) for i in range(rank)] + extra[b]
        pieces.append({"component": name(b), "region": {"rank": rank, "halfspaces": hs}})
        sign = -1 if sum(b) % 2 else 1
        if b in chamfered:
            k = chamfered[b]
            for j in range(rank):
                mu = [c[i] + (k if i == j else 0) for i in range(rank)]
                ws = [list(unit(rank, j))] + [
                    [(1 if t == i else 0) - (1 if t == j else 0) for t in range(rank)]
                    for i in range(rank) if i != j
                ]
                terms.append({"sign": sign, "mu": mu, "weights": ws})
        else:
            terms.append({"sign": sign, "mu": c,
                          "weights": [list(unit(rank, i)) for i in range(rank)]})
    payload = {
        "rank": rank,
        "components": [name(b) for b in comps],
        "walls": walls,
        "pieces": pieces,
        "strata": strata,
        "base_component": name(comps[0]),
        "global_sign": 1,
    }
    spec = {
        "kind": "welded",
        "lo": lo,
        "hi": hi,
        "chamfers": [{"corner": corner(b), "sign": -1 if sum(b) % 2 else 1, "k": k}
                     for b, k in sorted(chamfered.items())],
        "hyperplanes": 2 * rank + chamfers + redundant,
    }
    return payload, terms, spec


# (rank, widths, chamfered pieces, redundant facets): 6 to 10 hyperplanes.
# The structure of each slot is fixed; the seed only translates it, so the
# arrangement, and with it the cost, is the same for every seed.
WELDED = (
    (2, (3, 2), 1, 1),
    (2, (2, 3), 2, 1),
    (2, (3, 3), 1, 2),
    (2, (2, 2), 2, 2),
    (2, (3, 3), 2, 2),
    (2, (2, 2), 3, 1),
    (2, (3, 2), 1, 3),
    (2, (2, 3), 3, 2),
    (2, (2, 2), 3, 2),
    (2, (3, 3), 2, 3),
    (2, (3, 2), 2, 3),
    (2, (2, 3), 4, 1),
    (2, (3, 2), 3, 3),
    (2, (2, 3), 4, 2),
    (2, (3, 3), 2, 4),
    (2, (2, 2), 4, 2),
    (2, (2, 3), 3, 3),
    (2, (3, 3), 4, 2),
    (2, (2, 3), 2, 4),
    (3, (2, 2, 2), 0, 0),
    (3, (2, 3, 2), 0, 0),
    (3, (3, 2, 2), 0, 0),
    (3, (2, 2, 3), 0, 0),
    (3, (3, 3, 2), 0, 0),
    (3, (2, 2, 3), 1, 0),
)


def welded_sweep(seed: int) -> list[dict]:
    rng = random.Random(f"welded_sweep:{seed}")
    jobs = []
    for n, (rank, widths, ch, red) in enumerate(WELDED):
        lo = [rng.randint(-20, 20) for _ in range(rank)]
        payload, terms, spec = welded(random.Random(f"welded-slot:{n}"), lo, widths, ch, red)
        jobs.append({
            "id": f"welded-{n:02d}-r{rank}h{spec['hyperplanes']}",
            "config": {"kind": "toric", "payload": payload, "fixed_terms": terms},
            "spec": spec,
        })
    return jobs


# ---------------------------------------------------------------------------
# cli_batch: a few hundred small jobs of every kind, some bad on purpose.

COMMANDS = ("validate", "quantize", "qr-check", "mincoupling", "prequant")
TORIC_COMMANDS = ("validate", "quantize", "qr-check", "prequant")


def _small_polytope(rng: random.Random, rank: int, cut: bool = False):
    sides = [rng.randint(3 if cut else 1, 5) for _ in range(rank)]
    lo = [rng.randint(-9, 9) for _ in range(rank)]
    hi = [a + s for a, s in zip(lo, sides)]
    cuts = [(c, s, 1) for c, s, _ in _corner_cuts(rng, lo, hi, 1)] if cut else []
    return lo, hi, cuts


def _fibre(rng: random.Random):
    weights = rng.sample(range(-4, 5), rng.randint(0, 4))
    return [(w, rng.choice((-2, -1, 1, 2, 3))) for w in sorted(weights)]


def _good_job(rng: random.Random, slot):
    """One valid job of the slot's (kind, command, rank, cut); returns
    (command, config, spec)."""
    kind, cmd, rank, cut = slot
    if kind == "s2_family":
        n1, n2 = rng.randint(-30, 30), rng.randint(-30, 30)
        return (cmd, {"kind": "s2_family", "payload": {"n1": n1, "n2": n2}},
                {"kind": "s2", "n1": n1, "n2": n2})
    if kind == "delzant":
        lo, hi, cuts = _small_polytope(rng, rank, cut)
        payload = {"rank": rank, "halfspaces": box_halfspaces(lo, hi) + cut_halfspaces(cuts)}
        return (cmd, {"kind": "delzant", "payload": payload},
                {"kind": "polytope", "lo": lo, "hi": hi, "cuts": cuts})
    if kind == "toric":
        widths = [rng.randint(1, 3) for _ in range(rank)]
        lo = [rng.randint(-9, 9) for _ in range(rank)]
        payload, terms, spec = welded(rng, lo, widths, 0, 0)
        return (cmd, {"kind": "toric", "payload": payload, "fixed_terms": terms}, spec)
    base = rng.randint(-4, 4)
    fibre = _fibre(rng)
    return ("mincoupling",
            {"kind": "mincoupling", "payload": {
                "base_degree": base,
                "fibre": {"rank": 1, "terms": [{"weight": [w], "mult": m} for w, m in fibre]}}},
            {"kind": "mincoupling", "base_degree": base, "fibre": fibre})


def _bad_job(rng: random.Random, variant: str):
    """One job that must end in a documented nonzero exit code."""
    if variant == "not_delzant":
        # Triangle x >= a, y >= b, x + 2y <= a + 2b + 2k: the vertex (a, b + k)
        # has edge determinant 2.
        a, b, k = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3)
        payload = {"rank": 2, "halfspaces": [
            halfspace((1, 0), a), halfspace((0, 1), b), halfspace((-1, -2), -(a + 2 * b + 2 * k))]}
        return ("qr-check", {"kind": "delzant", "payload": payload},
                {"kind": "bad", "variant": variant})
    if variant == "unbounded":
        a = rng.randint(-9, 9)
        payload = {"rank": 2, "halfspaces": [halfspace((1, 0), a), halfspace((0, 1), a)]}
        return (rng.choice(TORIC_COMMANDS), {"kind": "delzant", "payload": payload},
                {"kind": "bad", "variant": variant})
    if variant == "empty":
        a = rng.randint(-9, 9)
        payload = {"rank": 1, "halfspaces": [halfspace((1,), a + 1), halfspace((-1,), -a)]}
        return (rng.choice(("validate", "quantize", "qr-check")),
                {"kind": "delzant", "payload": payload}, {"kind": "bad", "variant": variant})
    if variant == "box_cap":
        lo, hi, _ = _small_polytope(rng, rng.choice((1, 2)))
        hi = [h + 2 for h in hi]
        payload = {"rank": len(lo), "halfspaces": box_halfspaces(lo, hi)}
        return (rng.choice(("quantize", "qr-check")),
                {"kind": "delzant", "payload": payload, "options": {"box_cap": 1}},
                {"kind": "bad", "variant": variant})
    if variant in ("not_proper", "odd_cycle", "infinite"):
        a = rng.randint(-9, 9)
        if variant == "not_proper":
            comps = ["A", "B"]
            walls = [{"id": "u", "residue": ["1/1"], "joins": ["A", "B"]},
                     {"id": "v", "residue": ["-1/1"], "joins": ["A", "B"]}]
            strata = [["u", "v"]]
            pieces = [{"component": "A", "region": {"rank": 1, "halfspaces": [halfspace((1,), a)]}},
                      {"component": "B", "region": {"rank": 1, "halfspaces": [halfspace((1,), a + 2)]}}]
        elif variant == "odd_cycle":
            comps = ["A", "B", "C"]
            walls = [{"id": x, "residue": ["1/1"], "joins": j}
                     for x, j in (("ab", ["A", "B"]), ("bc", ["B", "C"]), ("ca", ["C", "A"]))]
            strata = []
            pieces = [{"component": c, "region": {"rank": 1, "halfspaces": [halfspace((1,), a)]}}
                      for c in comps]
        else:
            comps, walls, strata = ["A"], [], []
            pieces = [{"component": "A", "region": {"rank": 1, "halfspaces": [halfspace((1,), a)]}}]
        payload = {"rank": 1, "components": comps, "walls": walls, "pieces": pieces,
                   "strata": strata, "base_component": "A", "global_sign": 1}
        cmd = "validate" if variant != "infinite" else rng.choice(("quantize", "qr-check"))
        if variant == "not_proper":
            cmd = rng.choice(("validate", "quantize", "qr-check"))
        return (cmd, {"kind": "toric", "payload": payload,
                      "fixed_terms": [{"sign": 1, "mu": [a], "weights": [[1]]}]},
                {"kind": "bad", "variant": variant})
    if variant in ("tampered", "not_finite"):
        n1, n2 = rng.randint(-20, 20), rng.randint(-20, 20)
        if variant == "tampered":
            terms = [{"sign": 1, "mu": [n1 + rng.choice((-2, -1, 1, 2))], "weights": [[1]]},
                     {"sign": -1, "mu": [n2], "weights": [[1]]}]
        else:
            terms = [{"sign": 1, "mu": [n1], "weights": [[1]]}]
        return ("qr-check", {"kind": "s2_family", "payload": {"n1": n1, "n2": n2},
                             "fixed_terms": terms},
                {"kind": "s2", "n1": n1, "n2": n2, "terms": variant})
    if variant == "wrong_command":
        n1, n2 = rng.randint(-20, 20), rng.randint(-20, 20)
        return ("mincoupling", {"kind": "s2_family", "payload": {"n1": n1, "n2": n2}},
                {"kind": "s2", "n1": n1, "n2": n2})
    if variant == "needs_terms":
        payload, _, spec = welded(rng, [rng.randint(-9, 9)], [rng.randint(1, 3)], 0, 0)
        return ("qr-check", {"kind": "toric", "payload": payload}, dict(spec, terms="none"))
    # Schema defects: every command rejects these while loading.
    cmd = rng.choice(COMMANDS)
    n = rng.randint(-9, 9)
    if variant == "bad_json":
        text = json.dumps({"kind": "s2_family", "payload": {"n1": n, "n2": n + 3}})[:-rng.randint(1, 8)]
        return (cmd, text, {"kind": "bad", "variant": "malformed"})
    config = {
        "unknown_kind": {"kind": "sphere", "payload": {"n1": n}},
        "payload_type": {"kind": "delzant", "payload": [n]},
        "missing_key": {"kind": "s2_family", "payload": {"n1": n}},
        "bad_sign": {"kind": "s2_family", "payload": {"n1": n, "n2": n + 1},
                     "fixed_terms": [{"sign": 2, "mu": [n], "weights": [[1]]}]},
        "rank_mismatch": {"kind": "delzant", "payload": {"rank": 2, "halfspaces": [
            {"normal": ["1/1"], "offset": frac(n)}]}},
        "fibre_rank": {"kind": "mincoupling", "payload": {"base_degree": n, "fibre": {
            "rank": 2, "terms": [{"weight": [0, n], "mult": 1}]}}},
    }[variant]
    return (cmd, config, {"kind": "bad", "variant": "malformed"})


BAD_VARIANTS = (
    "not_delzant", "unbounded", "empty", "box_cap", "not_proper", "odd_cycle", "infinite",
    "tampered", "not_finite", "wrong_command", "needs_terms", "bad_json", "unknown_kind",
    "payload_type", "missing_key", "bad_sign", "rank_mismatch", "fibre_rank",
)


# The good jobs of cli_batch: (kind, rank, cut corner, jobs per toric
# command).  Fixed counts keep every seed's mix, and so its cost, the same.
CLI_GOOD = (
    ("s2_family", 1, False, 20),
    ("delzant", 1, False, 5),
    ("delzant", 2, False, 10),
    ("delzant", 2, True, 5),
    ("toric", 1, False, 4),
    ("toric", 2, False, 6),
)
CLI_MINCOUPLING = 55
CLI_BAD = 45  # 15% of 300


def cli_batch(seed: int) -> list[dict]:
    rng = random.Random(f"cli_batch:{seed}")
    slots = [(kind, cmd, rank, cut) for kind, rank, cut, n in CLI_GOOD
             for cmd in TORIC_COMMANDS for _ in range(n)]
    slots += [("mincoupling", "mincoupling", 1, False)] * CLI_MINCOUPLING
    slots += [("bad", BAD_VARIANTS[i % len(BAD_VARIANTS)], 0, False) for i in range(CLI_BAD)]
    rng.shuffle(slots)
    jobs, seen = [], set()
    for n, slot in enumerate(slots):
        while True:
            if slot[0] == "bad":
                cmd, config, spec = _bad_job(rng, slot[1])
            else:
                cmd, config, spec = _good_job(rng, slot)
            key = (cmd, config if isinstance(config, str) else json.dumps(config, sort_keys=True))
            if key not in seen:
                seen.add(key)
                break
        jobs.append({"id": f"cli-{n:03d}", "command": cmd, "config": config, "spec": spec})
    return jobs


# ---------------------------------------------------------------------------
# Known-defect repros (ROADMAP items 2 and 5), run in single-job mode only.


def known_defects() -> list[dict]:
    point = {"rank": 2, "halfspaces": [halfspace((1, 0), 0), halfspace((-1, 0), 0),
                                       halfspace((0, 1), 0), halfspace((0, -1), 0)]}
    return [
        {"id": "defect-false-agree", "command": "qr-check",
         "config": {"kind": "delzant", "payload": point,
                    "fixed_terms": [{"sign": 1, "mu": [3, -1], "weights": []}]},
         "spec": {"kind": "bad", "variant": "false_agree"},
         "why": "rank-2 specialization shortcut reports agree for t^(3,-1) vs t^(0,0)"},
        {"id": "defect-zero-denominator", "command": "quantize",
         "config": {"kind": "delzant", "payload": {"rank": 1, "halfspaces": [
             {"normal": ["1/1"], "offset": "1/0"}]}},
         "spec": {"kind": "bad", "variant": "malformed"},
         "why": "offset \"1/0\" escapes as ZeroDivisionError instead of exit 3"},
        {"id": "defect-rank-zero", "command": "quantize",
         "config": {"kind": "toric", "payload": {"rank": 0, "components": ["C"], "walls": [],
                                                 "pieces": [], "strata": [],
                                                 "base_component": "C"}},
         "spec": {"kind": "bad", "variant": "malformed"},
         "why": "\"rank\": 0 passes the schema check, then escapes as ValueError"},
    ]


WORKLOADS = {
    "lattice_ladder": lattice_ladder,
    "welded_sweep": welded_sweep,
    "cli_batch": cli_batch,
}
