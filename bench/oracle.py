"""Independent expected results for every benchmark job.

Nothing here imports logq or its tests.  Answers come from the job spec:
boxes in closed form, cut-corner polygons by brute-force integer membership,
welded products as the product box plus the chamfer simplices, sphere
families as an integer interval, minimal coupling by the Borel-Weil-Bott
rule, and bad jobs from the documented exit codes.  Each check returns a
list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import json
import math
from itertools import product
from math import prod

# ---------------------------------------------------------------------------
# Expected characters, as {weight tuple: multiplicity}.


def _in_polytope(spec, p) -> bool:
    if any(x < a or x > b for x, a, b in zip(p, spec["lo"], spec["hi"])):
        return False
    return all(
        sum(si * (x - ci) for si, x, ci in zip(s, p, c)) >= k for c, s, k in spec["cuts"]
    )


def _polytope_count(spec) -> int:
    if not spec["cuts"]:
        return prod(b - a + 1 for a, b in zip(spec["lo"], spec["hi"]))
    ranges = [range(a, b + 1) for a, b in zip(spec["lo"], spec["hi"])]
    return sum(1 for p in product(*ranges) if _in_polytope(spec, p))


def interval(n1: int, n2: int) -> dict:
    """Signed count of [n1, oo) minus [n2, oo)."""
    if n1 <= n2:
        return {(x,): 1 for x in range(n1, n2)}
    return {(x,): -1 for x in range(n2, n1)}


def _welded_char(spec) -> dict:
    lo, hi = spec["lo"], spec["hi"]
    out = {p: 1 for p in product(*[range(a, b) for a, b in zip(lo, hi)])}
    for ch in spec["chamfers"]:
        c, k = ch["corner"], ch["k"]
        for off in product(range(k), repeat=len(c)):
            if sum(off) < k:
                p = tuple(a + o for a, o in zip(c, off))
                out[p] = out.get(p, 0) - ch["sign"]
    return {p: m for p, m in out.items() if m}


def expected_char(spec) -> dict:
    """The expected character of a sphere-family, welded or polytope spec."""
    if spec["kind"] == "s2":
        return interval(spec["n1"], spec["n2"])
    if spec["kind"] == "welded":
        return _welded_char(spec)
    if spec["kind"] == "polytope":
        ranges = [range(a, b + 1) for a, b in zip(spec["lo"], spec["hi"])]
        return {p: 1 for p in product(*ranges) if _in_polytope(spec, p)}
    raise ValueError(f"no character for spec kind {spec['kind']!r}")


class Expected:
    """Membership oracle: multiplicity at a weight and the support size.

    Polytopes are answered point by point, so large boxes are never listed.
    """

    def __init__(self, spec):
        self.spec = spec
        if spec["kind"] == "polytope":
            self.table = None
            self.count = _polytope_count(spec)
        else:
            self.table = expected_char(spec)
            self.count = len(self.table)

    def __call__(self, w) -> int:
        if self.table is not None:
            return self.table.get(tuple(w), 0)
        return 1 if _in_polytope(self.spec, w) else 0


# ---------------------------------------------------------------------------
# Library workloads: quantize_lattice and qr_check results.


def check_character(exp: Expected, terms) -> list[str]:
    """``terms`` maps weight tuples to multiplicities (Character.terms)."""
    problems = []
    if len(terms) != exp.count:
        problems.append(f"support has {len(terms)} weights, expected {exp.count}")
    for w, m in terms.items():
        if exp(w) != m:
            problems.append(f"multiplicity {m} at {w}, expected {exp(w)}")
            break
    return problems


def check_table(exp: Expected, rows) -> list[str]:
    """Rows (weight, lattice, fixed point, reduced points) of an agreeing report."""
    problems = []
    weights = [r[0] for r in rows]
    if weights != sorted(set(weights)):
        problems.append("table weights are not sorted and distinct")
    spec = exp.spec
    if spec["kind"] == "polytope" and not spec["cuts"]:
        want = prod(b - a + 3 for a, b in zip(spec["lo"], spec["hi"]))
        if len(rows) != want:
            problems.append(f"table has {len(rows)} rows, expected {want}")
    seen = 0
    for w, a, b, c in rows:
        m = exp(w)
        seen += m != 0
        if not (a == b == c == m):
            problems.append(f"table row {w}: {a}, {b}, {c}, expected {m}")
            break
    if seen != exp.count:
        problems.append(f"table covers {seen} support weights, expected {exp.count}")
    return problems


def check_library(spec, char, report) -> list[str]:
    exp = Expected(spec)
    problems = ["quantize_lattice: " + p for p in check_character(exp, char.terms)]
    if not report.agree:
        problems.append("qr_check: routes reported as disagreeing")
    problems += ["qr_check lattice: " + p for p in check_character(exp, report.lattice_char.terms)]
    problems += ["qr_check fixed point: " + p
                 for p in check_character(exp, report.fixedpoint_char.terms)]
    problems += ["qr_check table: " + p for p in check_table(exp, report.per_weight_table)]
    return problems


# ---------------------------------------------------------------------------
# CLI jobs: documented exit codes and JSON outputs.

MALFORMED = (3, "MalformedConfig")


def expected_exit(spec, cmd: str) -> tuple[int, str | None]:
    """(exit code, error type) the CLI must produce; type None means no
    error object (a result, or the validate report of a failed check)."""
    kind = spec["kind"]
    if kind == "mincoupling":
        return (0, None) if cmd == "mincoupling" else MALFORMED
    if cmd == "mincoupling" and kind in ("s2", "polytope", "welded"):
        return MALFORMED
    if kind == "s2":
        if cmd == "qr-check" and spec.get("terms") == "tampered":
            return (5, None)
        if cmd == "qr-check" and spec.get("terms") == "not_finite":
            return (4, "NotFinite")
        return (0, None)
    if kind == "welded":
        if cmd == "qr-check" and spec.get("terms") == "none":
            return MALFORMED
        return (0, None)
    if kind == "polytope":
        return (0, None)
    variant = spec["variant"]
    if variant == "malformed" or cmd == "mincoupling":
        return MALFORMED
    if variant == "false_agree":
        return (5, None)
    if variant == "not_delzant":
        return (2, "NotDelzant") if cmd == "qr-check" else (0, None)
    if variant == "unbounded":
        return (2, "Unbounded")
    if variant == "empty":
        return (2, "EmptyPiece")
    if variant == "box_cap":
        return (2, "SizeLimit") if cmd in ("quantize", "qr-check") else (0, None)
    if variant in ("not_proper", "odd_cycle"):
        if cmd == "validate":
            return (2, None)
        if cmd == "prequant":
            return (0, None)
        return (2, "NotProper" if variant == "not_proper" else "ParityInconsistent")
    if variant == "infinite":
        return (4, "InfiniteSupport") if cmd in ("quantize", "qr-check") else (0, None)
    raise ValueError(f"unknown bad-job variant {variant!r}")


def _char_from_json(obj) -> dict:
    return {tuple(t["weight"]): t["mult"] for t in obj["terms"]}


def _rank1_terms_char(terms) -> dict:
    """Finite character of sum sign * t^mu / (1 - t) with total sign 0."""
    mus = sorted(t["mu"][0] for t in terms)
    out = {}
    for x in range(mus[0], mus[-1]):
        m = sum(t["sign"] for t in terms if t["mu"][0] <= x)
        if m:
            out[(x,)] = m
    return out


def mincoupling_mults(base: int, fibre) -> dict:
    out = {}
    for j, m in fibre:
        k = base + j
        if k >= 0:
            out[k] = out.get(k, 0) + m
        elif k <= -2:
            out[-k - 2] = out.get(-k - 2, 0) - m
    return {j: m for j, m in out.items() if m}


def _check_payload(spec, cmd, config, payload) -> list[str]:
    kind = spec["kind"]
    if cmd == "mincoupling":
        got = {t["j"]: t["mult"] for t in payload["terms"]}
        want = mincoupling_mults(spec["base_degree"], spec["fibre"])
        return [] if got == want else [f"mincoupling {got}, expected {want}"]
    if cmd == "validate":
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        want = {"not_proper": ["properness"], "odd_cycle": ["parity"]}.get(spec.get("variant"), [])
        if failed != want or payload["ok"] != (not want):
            return [f"validate failed checks {failed}, expected {want}"]
        return []
    if cmd == "prequant":
        problems = [] if payload["prequantizable"] is True else ["not prequantizable"]
        if kind == "s2":
            n1, n = spec["n1"], spec["n2"] - spec["n1"]
            sp = payload["s2_params"]
            a_want = (1 - math.exp(n)) / (1 + math.exp(n))
            ap_want = n1 + math.log(2) - math.log1p(math.exp(-n))
            if sp["n"] != n or abs(float(sp["a"]) - a_want) > 1e-9 \
                    or abs(float(sp["a_prime"]) - ap_want) > 1e-9:
                problems.append(f"s2 params {sp}, expected n={n} a={a_want} a'={ap_want}")
        return problems
    want = expected_char(spec)
    if cmd == "quantize":
        got = _char_from_json(payload)
        return [] if got == want else [f"quantize {sorted(got.items())[:4]}..., expected "
                                       f"{sorted(want.items())[:4]}..."]
    problems = []
    lattice = _char_from_json(payload["lattice_char"])
    if lattice != want:
        problems.append("qr-check lattice character differs from the oracle")
    if spec.get("terms") == "tampered":
        if payload["agree"] is not False:
            problems.append("qr-check agreed on tampered terms")
        if _char_from_json(payload["fixedpoint_char"]) != _rank1_terms_char(config["fixed_terms"]):
            problems.append("qr-check fixed-point character differs from the oracle")
        return problems
    if payload["agree"] is not True:
        problems.append("qr-check disagreed")
    if _char_from_json(payload["fixedpoint_char"]) != want:
        problems.append("qr-check fixed-point character differs from the oracle")
    for row in payload["per_weight_table"]:
        m = want.get(tuple(row["weight"]), 0)
        if not (row["lattice"] == row["fixed_point"] == row["reduced_points"] == m):
            problems.append(f"qr-check table row {row}, expected {m}")
            break
    return problems


def check_cli(spec, cmd: str, config, code, stdout: str) -> list[str]:
    """Check one single-job run: its exit code and its JSON output."""
    want_code, want_type = expected_exit(spec, cmd)
    if not isinstance(code, int):
        return [f"uncaught {code}, expected exit {want_code}"]
    if code != want_code:
        return [f"exit {code}, expected {want_code}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON document"]
    if want_type is not None:
        got = payload.get("error", {}).get("type")
        return [] if got == want_type else [f"error type {got}, expected {want_type}"]
    if "error" in payload:
        return [f"unexpected error {payload['error']}"]
    return _check_payload(spec, cmd, config, payload)


def check_batch(files: dict, code, stdout: str) -> list[str]:
    """Check a ``qr-check --batch`` run; ``files`` maps file name to spec."""
    if not isinstance(code, int):
        return [f"batch: uncaught {code}"]
    try:
        results = json.loads(stdout)["results"]
    except (json.JSONDecodeError, KeyError):
        return ["batch: stdout is not a results document"]
    problems = []
    if sorted(r["file"] for r in results) != sorted(files):
        problems.append("batch: result files differ from the job files")
    worst = 0
    for r in results:
        want_code, want_type = expected_exit(files[r["file"]], "qr-check")
        worst = max(worst, want_code)
        got_type = r.get("error", {}).get("type")
        if r["exit_code"] != want_code or got_type != want_type:
            problems.append(f"batch {r['file']}: exit {r['exit_code']} {got_type}, "
                            f"expected {want_code} {want_type}")
        elif want_type is None and r.get("agree") is not (want_code == 0):
            problems.append(f"batch {r['file']}: agree {r.get('agree')}")
    if code != worst:
        problems.append(f"batch: overall exit {code}, expected {worst}")
    return problems
