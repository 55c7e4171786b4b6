"""CLI contract tests: exit codes, output formats, determinism, batch mode."""
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logq import (
    DivisorWall,
    Halfspace,
    PolytopePiece,
    ToricLogData,
    arrangement_cells_with_points,
    indexcalc,
    polyhedra,
    reduced_multiplicity,
)
from logq.cli import COMMANDS, main
from logq.jsonio import dumps
from logq.polyhedra import Polyhedron

SRC = Path(__file__).resolve().parent.parent / "src"

S2_CONFIG = {"kind": "s2_family", "payload": {"n1": 0, "n2": 3}}

NOT_PROPER_CONFIG = {
    "kind": "toric",
    "payload": {
        "rank": 1,
        "components": ["A", "B"],
        "walls": [
            {"id": "w1", "residue": ["-1/1"], "joins": ["A", "B"]},
            {"id": "w2", "residue": ["1/1"], "joins": ["A", "B"]},
        ],
        "pieces": [
            {
                "component": "A",
                "region": {
                    "rank": 1,
                    "halfspaces": [
                        {"normal": ["1/1"], "offset": "0/1"},
                        {"normal": ["-1/1"], "offset": "-1/1"},
                    ],
                },
            }
        ],
        "strata": [["w1", "w2"]],
        "base_component": "A",
        "global_sign": 1,
    },
}

UNBOUNDED_CONFIG = {
    "kind": "toric",
    "payload": {
        "rank": 1,
        "components": ["A"],
        "walls": [],
        "pieces": [
            {
                "component": "A",
                "region": {"rank": 1, "halfspaces": [{"normal": ["1/1"], "offset": "0/1"}]},
            }
        ],
        "strata": [],
        "base_component": "A",
        "global_sign": 1,
    },
}


def square_config(side):
    return {
        "kind": "delzant",
        "payload": {
            "rank": 2,
            "halfspaces": [
                {"normal": ["1/1", "0/1"], "offset": "0/1"},
                {"normal": ["-1/1", "0/1"], "offset": f"{-side}/1"},
                {"normal": ["0/1", "1/1"], "offset": "0/1"},
                {"normal": ["0/1", "-1/1"], "offset": f"{-side}/1"},
            ],
        },
    }


def _wide_denominator_config():
    """The unit square's vertex terms plus t^0 / prod_(k<18) (1 - t^(1, 2^k)).
    Over the common denominator each vertex term's share of the numerator
    has 2^18 terms; building them all took 2.8 s and exited 4 at a box cap
    of 1000, and memory doubled with each further weight."""
    config = square_config(1)
    P = Polyhedron.from_jsonable(config["payload"])
    terms = [t.to_jsonable() for t in indexcalc.fixed_terms_delzant(P)]
    terms.append({"sign": 1, "mu": [0, 0], "weights": [[1, 2**k] for k in range(18)]})
    return {**config, "fixed_terms": terms}


WIDE_DENOMINATOR_CONFIG = _wide_denominator_config()
NUMERATOR_OVER_CAP = {
    "type": "SizeLimit",
    "message": "fixed-point sum: numerator exceeds cap 1000 terms",
}


def run(tmp_path, command, config, *extra):
    path = tmp_path / "job.json"
    path.write_text(dumps(config))
    return main([command, "--config", str(path), *extra])


def run_json(tmp_path, capsys, command, config, *extra):
    code = run(tmp_path, command, config, *extra)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidateCommand:
    def test_s2_passes(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "validate", S2_CONFIG)
        assert code == 0
        assert payload["ok"] is True

    def test_not_proper_exit_2(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "validate", NOT_PROPER_CONFIG)
        assert code == 2
        failing = [c for c in payload["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == ["properness"]

    def test_truncated_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "s2_family", "payload": {"n1"')
        code = main(["validate", "--config", str(path)])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "MalformedConfig"

    def test_missing_config_exit_3(self, capsys):
        assert main(["validate"]) == 3

    def test_mincoupling_kind_not_toric(self, tmp_path, capsys):
        cfg = {"kind": "mincoupling", "payload": {"base_degree": 1, "fibre": {"rank": 1, "terms": []}}}
        assert run(tmp_path, "validate", cfg) == 3

    @pytest.mark.parametrize("command", ["validate", "quantize", "mincoupling", "prequant"])
    def test_batch_is_qr_check_only(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--batch", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def s2_toric_payload():
    """The sphere family (0, 3) written out as a toric payload."""
    return {
        "rank": 1,
        "components": ["A", "B"],
        "walls": [{"id": "w", "residue": ["1/1"], "joins": ["A", "B"]}],
        "pieces": [
            {"component": c, "region": {"rank": 1, "halfspaces": [
                {"normal": ["1/1"], "offset": f"{n}/1"}]}}
            for c, n in (("A", 0), ("B", 3))
        ],
        "strata": [["w"]],
        "base_component": "A",
        "global_sign": 1,
    }


def with_toric(edit):
    payload = s2_toric_payload()
    edit(payload)
    return {"kind": "toric", "payload": payload}


class TestListsOnly:
    """A string or object where the schema has a list is malformed, not
    iterated character by character."""

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                with_toric(lambda p: p.update(components="AB")),
                "bad toric payload: expected a list, got 'AB'",
            ),
            (
                with_toric(lambda p: p["walls"][0].update(joins="AB")),
                "bad toric payload: expected a list, got 'AB'",
            ),
            (
                with_toric(lambda p: p["walls"][0].update(residue="1")),
                "bad toric payload: expected a list, got '1'",
            ),
            (
                with_toric(lambda p: p.update(strata=["w"])),
                "bad toric payload: expected a list, got 'w'",
            ),
            (
                {"kind": "delzant", "payload": {"rank": 2, "halfspaces": [
                    {"normal": "10", "offset": "0/1"},
                    {"normal": ["-1/1", "0/1"], "offset": "-2/1"},
                    {"normal": ["0/1", "1/1"], "offset": "0/1"},
                    {"normal": ["0/1", "-1/1"], "offset": "-2/1"},
                ]}},
                "bad delzant payload: expected a list, got '10'",
            ),
        ],
        ids=["components", "joins", "residue", "stratum", "normal"],
    )
    def test_exit_3(self, tmp_path, capsys, config, message):
        assert run(tmp_path, "validate", config) == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "MalformedConfig", "message": message}
        }

    def test_the_list_form_is_valid(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "validate", with_toric(lambda p: None))
        assert code == 0
        assert payload["ok"] is True


class TestMalformedScalars:
    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {"kind": "delzant", "payload": {"rank": 1, "halfspaces": [
                    {"normal": ["1/1"], "offset": "1/0"}]}},
                "bad delzant payload: rational '1/0' has a zero denominator",
            ),
            (
                {"kind": "toric", "payload": {"rank": 0, "components": ["C"], "walls": [],
                                              "pieces": [], "strata": [],
                                              "base_component": "C"}},
                "bad toric payload: rank must be a positive integer, got 0",
            ),
        ],
        ids=["zero-denominator", "rank-zero"],
    )
    @pytest.mark.parametrize("command", ["validate", "quantize", "qr-check"])
    def test_exit_3_without_traceback(self, tmp_path, capsys, command, config, message):
        code = run(tmp_path, command, config)
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {
            "error": {"type": "MalformedConfig", "message": message}
        }
        assert "Traceback" not in captured.err


def point_config(offset, minus_offset, fixed_terms=None):
    """A rank-1 toric job whose one piece is the point x >= offset, -x >= minus_offset."""
    halfspaces = [
        {"normal": ["1/1"], "offset": offset},
        {"normal": ["-1/1"], "offset": minus_offset},
    ]
    config = {
        "kind": "toric",
        "payload": {"rank": 1, "components": ["C"], "walls": [], "strata": [],
                    "base_component": "C",
                    "pieces": [{"component": "C",
                                "region": {"rank": 1, "halfspaces": halfspaces}}]},
    }
    if fixed_terms is not None:
        config["fixed_terms"] = fixed_terms
    return config


# Configs that cannot be read or decoded: (writer, start of the error message).
UNREADABLE = {
    "non-utf8": (
        lambda path: path.write_bytes(b'{"kind": "s2_family", "payload": {"n1": "\xff"}}'),
        "cannot read config",
    ),
    "directory": (lambda path: path.mkdir(), "cannot read config"),
    "long-integer": (
        lambda path: path.write_text(
            '{"kind": "s2_family", "payload": {"n1": ' + "1" * 5000 + ', "n2": 3}}'
        ),
        "config is not valid JSON: Exceeds the limit",
    ),
    "deep-nesting": (
        lambda path: path.write_text("[" * 200000),
        "config is not valid JSON: maximum recursion depth exceeded",
    ),
    "exponent-rational": (
        lambda path: path.write_text(dumps(point_config("1e5000", "-1e5000"))),
        "bad toric payload: expected a rational",
    ),
}


class TestUnreadableConfigs:
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_single_exit_3(self, tmp_path, capsys, case):
        write, message = UNREADABLE[case]
        path = tmp_path / "job.json"
        write(path)
        code = main(["qr-check", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        error = json.loads(captured.out)["error"]
        assert error["type"] == "MalformedConfig"
        assert error["message"].startswith(message)
        assert "Traceback" not in captured.err

    def test_strict_stdin_non_utf8_exit_3(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b'{"kind": "\xff"}'), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["validate", "--stdin"])
        captured = capsys.readouterr()
        assert code == 3
        error = json.loads(captured.out)["error"]
        assert error["message"].startswith("cannot read config from stdin: 'utf-8' codec")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_batch_entry_exit_3(self, tmp_path, capsys, case):
        write, message = UNREADABLE[case]
        (tmp_path / "a_good.json").write_text(dumps(S2_CONFIG))
        write(tmp_path / "b_bad.json")
        (tmp_path / "c_good.json").write_text(dumps(square_config(1)))
        code = main(["qr-check", "--batch", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        out = json.loads(captured.out)
        assert out["overall_exit"] == 3
        assert [(r["file"], r["exit_code"]) for r in out["results"]] == [
            ("a_good.json", 0), ("b_bad.json", 3), ("c_good.json", 0)
        ]
        error = out["results"][1]["error"]
        assert error["type"] == "MalformedConfig"
        assert error["message"].startswith(message)
        assert "Traceback" not in captured.err


# The point x = N with N of 4300 digits, the most Python prints: the fixed-point
# terms t^N/(1-t) + t^N/(1-t^-1) agree with it, and the table's shell weight
# N + 1 has 4301 digits.
BIG = "9" * 4300
BIG_POINT = point_config(f"int:{BIG}", f"int:-{BIG}", [
    {"sign": 1, "mu": [f"int:{BIG}"], "weights": [[1]]},
    {"sign": 1, "mu": [f"int:{BIG}"], "weights": [[-1]]},
])
# A square of side 10^4299 - 1: its box volume has 8598 digits.
BIG_SQUARE = square_config(int("9" * 4299))


class TestUnprintableIntegers:
    def test_point_itself_prints(self, tmp_path, capsys):
        code, out = run_json(tmp_path, capsys, "quantize", BIG_POINT)
        assert code == 0
        assert out["terms"] == [{"weight": [f"int:{BIG}"], "mult": 1}]

    @pytest.mark.parametrize("fmt", ["json", "table", "both"])
    @pytest.mark.parametrize(
        "command, config",
        [("qr-check", BIG_POINT), ("quantize", BIG_SQUARE), ("qr-check", BIG_SQUARE)],
        ids=["shell-weight", "box-volume", "box-volume-qr"],
    )
    def test_single_exit_2(self, tmp_path, capsys, command, config, fmt):
        code = run(tmp_path, command, config, "--format", fmt)
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "SizeLimit"
        assert error["message"].endswith("has too many digits to print")
        assert "Traceback" not in captured.err and captured.err.startswith("logq: ")

    @pytest.mark.parametrize(
        "config", [BIG_POINT, BIG_SQUARE], ids=["shell-weight", "box-volume"]
    )
    def test_batch_entry_exit_2(self, tmp_path, capsys, config):
        (tmp_path / "a_good.json").write_text(dumps(S2_CONFIG))
        (tmp_path / "b_big.json").write_text(dumps(config))
        (tmp_path / "c_good.json").write_text(dumps(square_config(1)))
        code = main(["qr-check", "--batch", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        out = json.loads(captured.out)
        assert [(r["file"], r["exit_code"]) for r in out["results"]] == [
            ("a_good.json", 0), ("b_big.json", 2), ("c_good.json", 0)
        ]
        assert out["results"][1]["error"]["type"] == "SizeLimit"
        assert "Traceback" not in captured.err


def rank8_stratum_config():
    """Rank 8, one stratum of 16 walls whose weights span a pointed cone."""
    residues = [[1] + [(7 * k + 3 * j) % 5 - 2 for j in range(7)] for k in range(16)]
    walls = [
        {"id": f"w{k}", "residue": [f"{c}/1" for c in r], "joins": ["A", "B"]}
        for k, r in enumerate(residues)
    ]
    return {"kind": "toric", "payload": {
        "rank": 8,
        "components": ["A", "B"],
        "walls": walls,
        "pieces": [{"component": "A", "region": {"rank": 8, "halfspaces": []}}],
        "strata": [[w["id"] for w in walls]],
        "base_component": "A",
        "global_sign": 1,
    }}


class TestRankCap:
    @pytest.mark.parametrize("command", ["validate", "quantize"])
    def test_stratum_above_rank_cap_is_size_limit(self, tmp_path, capsys, command):
        start = time.perf_counter()
        code, payload = run_json(tmp_path, capsys, command, rank8_stratum_config())
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert payload == {
            "error": {
                "type": "SizeLimit",
                "message": "strongly_convex: ambient dimension 8 exceeds cap 3",
            }
        }


class TestQuantizeCommand:
    def test_s2_table(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "quantize", S2_CONFIG)
        assert code == 0
        assert payload["terms"] == [
            {"weight": [0], "mult": 1},
            {"weight": [1], "mult": 1},
            {"weight": [2], "mult": 1},
        ]

    def test_unit_square_four_rows(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "quantize", square_config(1))
        assert code == 0
        assert len(payload["terms"]) == 4
        assert all(e["mult"] == 1 for e in payload["terms"])

    def test_unbounded_exit_4(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "quantize", UNBOUNDED_CONFIG)
        assert code == 4
        assert payload["error"]["type"] == "InfiniteSupport"

    def test_not_proper_exit_2(self, tmp_path, capsys):
        assert run(tmp_path, "quantize", NOT_PROPER_CONFIG) == 2

    def test_hyperplane_cap_error_text(self, tmp_path, capsys):
        normals = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1),
                   (-1, -1), (2, 1), (1, 2), (-2, 1), (-1, -2), (2, -1)]
        config = {
            "kind": "delzant",
            "payload": {
                "rank": 2,
                "halfspaces": [
                    {"normal": [f"{a}/1", f"{b}/1"], "offset": "-3/1"} for a, b in normals
                ],
            },
        }
        code, payload = run_json(tmp_path, capsys, "quantize", config)
        assert code == 2
        assert payload == {
            "error": {
                "type": "SizeLimit",
                "message": "arrangement_cells: 13 hyperplanes exceed cap 12",
            }
        }

    def test_box_cap_flag(self, tmp_path, capsys):
        code, payload = run_json(
            tmp_path, capsys, "quantize", square_config(2), "--box-cap", "3"
        )
        assert code == 2
        assert payload["error"]["type"] == "SizeLimit"

    def test_box_cap_option_and_precedence(self, tmp_path, capsys, monkeypatch):
        capped = dict(square_config(2), options={"box_cap": 3})
        assert run(tmp_path, "quantize", capped) == 2
        assert run(tmp_path, "quantize", capped, "--box-cap", "1000000") == 0
        # The cap has two sources, the flag and the option; the environment is not one.
        monkeypatch.setenv("LOGQ_BOX_CAP", "3")
        assert run(tmp_path, "quantize", square_config(2)) == 0
        capsys.readouterr()


def _two_sided(rank, outer, inner):
    """Pieces ``outer`` (sign +) and ``inner`` (sign -), given as (normal,
    offset) rows, on the two sides of a wall."""
    return ToricLogData(
        rank=rank,
        components=("A", "B"),
        walls=(DivisorWall("w", (1,) + (0,) * (rank - 1), ("A", "B")),),
        pieces=tuple(
            PolytopePiece(c, Polyhedron(rank, [Halfspace(a, b) for a, b in rows]))
            for c, rows in (("A", outer), ("B", inner))
        ),
        base_component="A",
    )


def _dilated(d, q):
    """The data with every piece scaled by q: p lies in q P iff p / q lies in P."""
    pieces = tuple(
        PolytopePiece(
            p.component,
            Polyhedron(d.rank, [Halfspace(h.normal, h.offset * q) for h in p.region.halfspaces]),
        )
        for p in d.pieces
    )
    return ToricLogData(
        d.rank, d.components, d.walls, pieces, d.strata, d.base_component, d.global_sign
    )


def _swept_message(d):
    """The InfiniteSupport message read off the full sweep: the least
    unbounded cell in sign-vector order with a nonzero signed indicator,
    which ``reduced_multiplicity`` evaluates at the cell's witness p / q as
    the lattice point p of the data dilated by q.  Also returns how many
    unbounded cells fail."""
    failing = []
    for cell, (p, q) in arrangement_cells_with_points(indexcalc._facet_hyperplanes(d)):
        if not cell.bounded:
            s = reduced_multiplicity(_dilated(d, q), p)
            if s:
                failing.append(f"signed indicator is {s} on unbounded cell {cell.sign_vector}")
    return failing[0], len(failing)


# Each has several unbounded cells with a nonzero signed indicator, and facets
# in both orientations of a hyperplane.
INFINITE = {
    "rank2": _two_sided(
        2, [((1, 0), 0), ((0, 1), -1)], [((1, 0), 2), ((0, -1), -4)]
    ),
    "rank2-diagonal": _two_sided(
        2, [((1, 0), 0), ((1, 1), 0)], [((1, 0), 1), ((-1, -1), -3), ((0, 1), -2)]
    ),
    "rank3": _two_sided(
        3,
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
        [((1, 0, 0), 1), ((0, 1, 0), 0), ((0, 0, -1), -2)],
    ),
}


class TestInfiniteSupportMessage:
    @pytest.mark.parametrize("case", sorted(INFINITE))
    def test_single_job(self, tmp_path, capsys, case):
        d = INFINITE[case]
        expected, failing = _swept_message(d)
        assert failing >= 2
        code, out = run_json(tmp_path, capsys, "quantize", {"kind": "toric", "payload": d.to_jsonable()})
        assert code == 4
        assert out["error"] == {"type": "InfiniteSupport", "message": expected}

    @pytest.mark.parametrize("case", sorted(INFINITE))
    def test_batch_entry(self, tmp_path, capsys, case):
        d = INFINITE[case]
        expected, _ = _swept_message(d)
        config = {"kind": "toric", "payload": d.to_jsonable(), "fixed_terms": []}
        (tmp_path / "a_good.json").write_text(dumps(S2_CONFIG))
        (tmp_path / "b_infinite.json").write_text(dumps(config))
        code = main(["qr-check", "--batch", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 4
        assert [(r["file"], r["exit_code"]) for r in out["results"]] == [
            ("a_good.json", 0), ("b_infinite.json", 4)
        ]
        assert out["results"][1]["error"] == {"type": "InfiniteSupport", "message": expected}


class TestQRCheckCommand:
    def test_s2_auto_terms(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "qr-check", S2_CONFIG)
        assert code == 0
        assert payload["agree"] is True

    def test_delzant_auto_terms(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "qr-check", square_config(2))
        assert code == 0
        assert payload["agree"] is True

    def test_tampered_terms_exit_5(self, tmp_path, capsys):
        cfg = dict(S2_CONFIG)
        cfg["fixed_terms"] = [
            {"sign": 1, "mu": [0], "weights": [[1]]},
            {"sign": -1, "mu": [4], "weights": [[1]]},
        ]
        code, payload = run_json(tmp_path, capsys, "qr-check", cfg)
        assert code == 5
        assert payload["agree"] is False
        diff = [
            row
            for row in payload["per_weight_table"]
            if row["lattice"] != row["fixed_point"]
        ]
        assert [row["weight"] for row in diff] == [[3]]

    def test_fixed_point_quotient_is_capped(self, tmp_path, capsys):
        # sum t^k for 0 <= k < 3000000: a quotient far past the cap of 1000 terms.
        cfg = {
            **S2_CONFIG,
            "fixed_terms": [
                {"sign": 1, "mu": [0], "weights": [[1]]},
                {"sign": -1, "mu": [3000000], "weights": [[1]]},
            ],
        }
        start = time.perf_counter()
        code, payload = run_json(tmp_path, capsys, "qr-check", cfg, "--box-cap", "1000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert payload == {
            "error": {
                "type": "SizeLimit",
                "message": "rational_to_laurent: quotient exceeds cap 1000 terms",
            }
        }

    def test_no_partial_quotient_past_the_default_cap(self, tmp_path, capsys):
        # (1 - t^M) / prod_{k=1..5}(1 - t^k) with M = 1.5 * 10^8: every
        # binomial alone leaves M/k > 10^7 terms, so none is divided.
        ws = [[k] for k in range(1, 6)]
        cfg = {
            **S2_CONFIG,
            "fixed_terms": [
                {"sign": 1, "mu": [0], "weights": ws},
                {"sign": -1, "mu": [150000000], "weights": ws},
            ],
        }
        start = time.perf_counter()
        code, payload = run_json(tmp_path, capsys, "qr-check", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert payload == {
            "error": {
                "type": "SizeLimit",
                "message": "rational_to_laurent: quotient exceeds cap 10000000 terms",
            }
        }

    def test_fixed_point_numerator_is_capped(self, tmp_path, capsys):
        start = time.perf_counter()
        code, payload = run_json(tmp_path, capsys, "qr-check", WIDE_DENOMINATOR_CONFIG,
                                 "--box-cap", "1000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert payload == {"error": NUMERATOR_OVER_CAP}

    def test_fixed_point_numerator_is_capped_in_batch(self, tmp_path, capsys):
        (tmp_path / "a_good.json").write_text(dumps(square_config(1)))
        (tmp_path / "b_wide.json").write_text(dumps(WIDE_DENOMINATOR_CONFIG))
        start = time.perf_counter()
        code = main(["qr-check", "--batch", str(tmp_path), "--box-cap", "1000"])
        assert time.perf_counter() - start < 1.0
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [(r["file"], r["exit_code"]) for r in out["results"]] == [
            ("a_good.json", 0), ("b_wide.json", 2)
        ]
        assert out["results"][1]["error"] == NUMERATOR_OVER_CAP

    def test_delzant_decodes_its_polyhedron_once(self, tmp_path, capsys, monkeypatch):
        decoded = []
        decode = Polyhedron.from_jsonable.__func__

        def counting(cls, obj):
            decoded.append(obj)
            return decode(cls, obj)

        monkeypatch.setattr(Polyhedron, "from_jsonable", classmethod(counting))
        assert run(tmp_path, "qr-check", square_config(2)) == 0
        assert len(decoded) == 1

    def test_delzant_repeats_no_polyhedral_work(self, tmp_path, capsys, monkeypatch):
        # On the square [0, 2]^2 (3x3 lattice points), FM runs once for delzant's
        # EmptyPiece check and once for validate's report; the vertex cones
        # carry the integer vertices, so none is rebuilt from Fractions; and
        # the vertex cones and the arrangement vertex box solve 6 systems each.
        # Rows are made primitive once per halfspace as it is decoded (4) and
        # once per Delzant edge (8); the facet rows are not rebuilt as
        # halfspaces.
        calls = dict.fromkeys(("_fm_feasible", "_integer_point", "_solve", "_primitive"), 0)
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(polyhedra, name, None)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(polyhedra, name, counting, raising=False)
        assert run(tmp_path, "qr-check", square_config(2)) == 0
        assert calls == {"_fm_feasible": 2, "_integer_point": 0, "_solve": 12, "_primitive": 12}

    def test_toric_kind_needs_terms(self, tmp_path, capsys):
        cfg = {
            "kind": "toric",
            "payload": json.loads(dumps(NOT_PROPER_CONFIG["payload"])),
        }
        cfg["payload"]["strata"] = [["w1"], ["w2"]]
        cfg["payload"]["pieces"] = []
        assert run(tmp_path, "qr-check", cfg) == 3

    def test_batch_mode(self, tmp_path, capsys):
        good = dict(S2_CONFIG)
        bad = {
            **S2_CONFIG,
            "fixed_terms": [
                {"sign": 1, "mu": [0], "weights": [[1]]},
                {"sign": -1, "mu": [4], "weights": [[1]]},
            ],
        }
        (tmp_path / "a_good.json").write_text(dumps(good))
        (tmp_path / "b_bad.json").write_text(dumps(bad))
        (tmp_path / "c_broken.json").write_text("{nope")
        code = main(["qr-check", "--batch", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 5
        assert out["overall_exit"] == 5
        by_file = {r["file"]: r for r in out["results"]}
        assert by_file["a_good.json"]["exit_code"] == 0
        assert by_file["b_bad.json"]["exit_code"] == 5
        assert by_file["c_broken.json"]["exit_code"] == 3


# Rank-2 fixed-point sums that qr_check decides wrongly, because it compares
# the two routes only after specializing along one one-parameter subgroup.
# Both jobs use the point {0} in rank 2.  These tests pin the sound verdicts
# and fail until agreement is decided without specialization.
POINT_2D = {
    "rank": 2,
    "halfspaces": [
        {"normal": ["1/1", "0/1"], "offset": "0/1"},
        {"normal": ["-1/1", "0/1"], "offset": "0/1"},
        {"normal": ["0/1", "1/1"], "offset": "0/1"},
        {"normal": ["0/1", "-1/1"], "offset": "0/1"},
    ],
}
# +t^(3,-1): xi = (1, 3) sends it to t^0, so the projections match.
SHIFTED_POINT_CONFIG = {
    "kind": "delzant",
    "payload": POINT_2D,
    "fixed_terms": [{"sign": 1, "mu": [3, -1], "weights": []}],
}
# t^0/(1-t1) - t^(0,1)/(1-t1) is not a finite character.
NOT_FINITE_POINT_CONFIG = {
    "kind": "delzant",
    "payload": POINT_2D,
    "fixed_terms": [
        {"sign": 1, "mu": [0, 0], "weights": [[1, 0]]},
        {"sign": -1, "mu": [0, 1], "weights": [[1, 0]]},
    ],
}
specialization_unsound = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rank >= 2 agreement is decided on one specialization",
)


@specialization_unsound
class TestSpecializationRepros:
    def test_shifted_point_single(self, tmp_path, capsys):
        code, out = run_json(tmp_path, capsys, "qr-check", SHIFTED_POINT_CONFIG)
        assert (code, out["agree"]) == (5, False)

    def test_shifted_point_batch(self, tmp_path, capsys):
        (tmp_path / "job.json").write_text(dumps(SHIFTED_POINT_CONFIG))
        code = main(["qr-check", "--batch", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 5
        assert out["results"] == [{"file": "job.json", "exit_code": 5, "agree": False}]

    def test_not_finite_single(self, tmp_path, capsys):
        code, out = run_json(tmp_path, capsys, "qr-check", NOT_FINITE_POINT_CONFIG)
        assert code == 4
        assert out["error"]["type"] == "NotFinite"

    def test_not_finite_batch(self, tmp_path, capsys):
        (tmp_path / "job.json").write_text(dumps(NOT_FINITE_POINT_CONFIG))
        code = main(["qr-check", "--batch", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 4
        [entry] = out["results"]
        assert entry["exit_code"] == 4
        assert entry["error"]["type"] == "NotFinite"


class TestMincouplingCommand:
    def test_degree_one_window(self, tmp_path, capsys):
        cfg = {
            "kind": "mincoupling",
            "payload": {
                "base_degree": 1,
                "fibre": {
                    "rank": 1,
                    "terms": [
                        {"weight": [0], "mult": 1},
                        {"weight": [1], "mult": 1},
                    ],
                },
            },
        }
        code, payload = run_json(tmp_path, capsys, "mincoupling", cfg)
        assert code == 0
        assert payload["terms"] == [{"j": 1, "mult": 1}, {"j": 2, "mult": 1}]

    def test_empty_fibre(self, tmp_path, capsys):
        cfg = {"kind": "mincoupling", "payload": {"base_degree": 1, "fibre": {"rank": 1, "terms": []}}}
        code, payload = run_json(tmp_path, capsys, "mincoupling", cfg)
        assert code == 0
        assert payload["terms"] == []

    def test_vanishing_line_bundle(self, tmp_path, capsys):
        cfg = {
            "kind": "mincoupling",
            "payload": {
                "base_degree": 1,
                "fibre": {"rank": 1, "terms": [{"weight": [-2], "mult": 1}]},
            },
        }
        code, payload = run_json(tmp_path, capsys, "mincoupling", cfg)
        assert code == 0
        assert payload["terms"] == []

    def test_wrong_kind_exit_3(self, tmp_path, capsys):
        assert run(tmp_path, "mincoupling", S2_CONFIG) == 3


class TestPrequantCommand:
    def test_s2_parameters(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, capsys, "prequant", S2_CONFIG)
        assert code == 0
        assert payload["prequantizable"] is True
        assert payload["s2_params"]["n"] == 3
        assert payload["s2_params"]["a"] == "-0.905148253645"

    def test_half_integer_segment(self, tmp_path, capsys):
        cfg = {
            "kind": "delzant",
            "payload": {
                "rank": 1,
                "halfspaces": [
                    {"normal": ["1/1"], "offset": "1/2"},
                    {"normal": ["-1/1"], "offset": "-2/1"},
                ],
            },
        }
        code, payload = run_json(tmp_path, capsys, "prequant", cfg)
        assert code == 0
        assert payload["prequantizable"] is False

    def test_symmetric_family_a_zero(self, tmp_path, capsys):
        cfg = {"kind": "s2_family", "payload": {"n1": 2, "n2": 2}}
        code, payload = run_json(tmp_path, capsys, "prequant", cfg)
        assert code == 0
        assert float(payload["s2_params"]["a"]) == 0.0


class TestOutputContract:
    def test_default_format_is_json(self, tmp_path, capsys):
        run(tmp_path, "quantize", S2_CONFIG)
        out = capsys.readouterr().out
        json.loads(out)  # the whole stdout is one JSON document

    def test_both_format_has_fenced_json(self, tmp_path, capsys):
        run(tmp_path, "quantize", S2_CONFIG, "--format", "both")
        out = capsys.readouterr().out
        assert "```json" in out
        fenced = out.split("```json")[1].split("```")[0]
        assert json.loads(fenced)["terms"]

    def test_table_format(self, tmp_path, capsys):
        run(tmp_path, "quantize", S2_CONFIG, "--format", "table")
        out = capsys.readouterr().out
        assert "multiplicity" in out
        assert "dimension: 3" in out

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        code = run(tmp_path, "quantize", S2_CONFIG, "--quiet")
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_byte_stable_output(self, tmp_path, capsys):
        run(tmp_path, "qr-check", S2_CONFIG)
        first = capsys.readouterr().out
        run(tmp_path, "qr-check", S2_CONFIG)
        second = capsys.readouterr().out
        assert first == second

    def test_quantize_and_qr_check_report_same_lattice_character(self, tmp_path, capsys):
        for cfg in (S2_CONFIG, square_config(2)):
            _, quantized = run_json(tmp_path, capsys, "quantize", cfg)
            _, checked = run_json(tmp_path, capsys, "qr-check", cfg)
            assert checked["lattice_char"] == quantized

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(dumps(S2_CONFIG)))
        assert main(["quantize", "--stdin"]) == 0

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        def no_parser(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr("argparse.ArgumentParser", no_parser)
        assert run(tmp_path, "quantize", S2_CONFIG) == 0
        with pytest.raises(SystemExit):
            main(["quantize", "--format", "xml"])

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_closed_stdout_keeps_exit_code(self, tmp_path, batch):
        """``logq ... | head``: the reader closes stdout before logq writes.
        No traceback, and the job's own exit code (5, disagreement)."""
        cfg = {**S2_CONFIG, "fixed_terms": [{"sign": 1, "mu": [0], "weights": []}]}
        (tmp_path / "job.json").write_text(dumps(cfg))
        where = ["--batch", str(tmp_path)] if batch else ["--config", str(tmp_path / "job.json")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "logq.cli", "qr-check", *where],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 5
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_unwritable_stdout_exits_one(self, tmp_path, batch):
        """A write error other than a broken pipe: one line on stderr, no
        traceback, exit 1 (output could not be written)."""
        (tmp_path / "job.json").write_text(dumps(S2_CONFIG))
        where = ["--batch", str(tmp_path)] if batch else ["--config", str(tmp_path / "job.json")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "logq.cli", "qr-check", *where],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr.startswith("logq: cannot write output: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_format_from_config_options(self, tmp_path, capsys):
        cfg = {**S2_CONFIG, "options": {"output_format": "table"}}
        run(tmp_path, "quantize", cfg)
        out = capsys.readouterr().out
        assert "dimension: 3" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


# ---------------------------------------------------------------------------
# Fuzzed configs: every input ends in a documented exit code and one JSON
# document on stdout, never in an exception.

def _square_terms():
    """Brion vertex terms of the unit square [0, 1]^2."""
    return [
        {"sign": 1, "mu": [x, y], "weights": [[1 - 2 * x, 0], [0, 1 - 2 * y]]}
        for x in (0, 1) for y in (0, 1)
    ]


FUZZ_BASES = [
    {**S2_CONFIG, "fixed_terms": [
        {"sign": 1, "mu": [0], "weights": [[1]]},
        {"sign": -1, "mu": [3], "weights": [[1]]},
    ]},
    {"kind": "toric", "payload": s2_toric_payload(), "fixed_terms": [
        {"sign": 1, "mu": [0], "weights": [[1]]},
        {"sign": -1, "mu": [3], "weights": [[1]]},
    ]},
    {"kind": "toric", "payload": {
        "rank": 2, "components": ["C"], "walls": [],
        "pieces": [{"component": "C", "region": square_config(1)["payload"]}],
        "strata": [], "base_component": "C", "global_sign": 1,
    }, "fixed_terms": _square_terms()},
    square_config(1),
    {"kind": "mincoupling", "payload": {"base_degree": 1, "fibre": {
        "rank": 1, "terms": [{"weight": [0], "mult": 1}, {"weight": [1], "mult": 2}]}}},
]


def _ints(digits):
    """Integers m * 10^k, |m| < 1000, with k spread evenly over 0..digits."""
    return st.builds(
        lambda m, k: m * 10**k, st.integers(-999, 999), st.sampled_from(range(digits + 1))
    )


FUZZ_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _ints(20),
    _ints(400).map(lambda n: f"int:{n}"),
    st.builds(lambda p, q: f"{p}/{q}", _ints(20), st.integers(-3, 3)),
    st.just("1/0"),
    st.text(max_size=4),
)
FUZZ_VALUES = st.one_of(
    FUZZ_SCALARS,
    st.lists(FUZZ_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), FUZZ_SCALARS, max_size=3),
)


def _positions(node, prefix=()):
    """(key path, is a scalar) for every position below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,), not isinstance(child, (dict, list))
        yield from _positions(child, prefix + (key,))


def fuzzed_config(data):
    """A valid base config with one or two positions replaced.  Half the
    replacements put a scalar where a scalar was, which most often keeps the
    config decodable and so reaches the commands."""
    config = json.loads(dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(data.draw(st.integers(1, 2))):
        positions = list(_positions(config))
        if data.draw(st.booleans()):
            path = data.draw(st.sampled_from([p for p, scalar in positions if scalar]))
            value = data.draw(FUZZ_SCALARS)
        else:
            path = data.draw(st.sampled_from([p for p, _ in positions]))
            value = data.draw(FUZZ_VALUES)
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return config


class TestFuzzedConfigs:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_documented(self, command, data):
        config = fuzzed_config(data)
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(dumps(config))), \
                redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([command, "--stdin", "--box-cap", "10000"])
        assert code in (0, 2, 3, 4, 5)
        json.loads(out.getvalue())
