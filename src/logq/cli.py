"""Command-line front end.

One self-describing JSON job per invocation, read from --config PATH or
stdin.  Exit codes are a stable contract: 0 success/agreement, 2 validation
failure, 3 malformed input, 4 infinite or non-finite character sum, 5
two-route disagreement.  There is no randomness anywhere; output is
byte-stable across runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import indexcalc, polyhedra, toricmodel
from .charring import Character
from .errors import InfiniteSupport, LogqError, MalformedConfig, NotFinite, RankMismatch
from .indexcalc import FixedPointTerm
from .jsonio import _Record, _int_text, decode_int, dumps
from .polyhedra import Polyhedron
from .toricmodel import ToricLogData

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MALFORMED = 3
EXIT_INFINITE = 4
EXIT_MISMATCH = 5

KINDS = ("toric", "s2_family", "delzant", "mincoupling")
TORIC_KINDS = ("toric", "s2_family", "delzant")


class JobConfig(_Record):
    """A decoded job: kind, decoded payload, optional fixed-point terms.

    ``payload`` is a ToricLogData for "toric", a Polyhedron for "delzant",
    the pair (n1, n2) for "s2_family" and (base_degree, fibre character) for
    "mincoupling".
    """

    kind: str
    payload: ToricLogData | Polyhedron | tuple[int, int] | tuple[int, Character]
    fixed_terms: list[FixedPointTerm] | None
    options: dict


def _exit_code_for(exc: LogqError) -> int:
    if isinstance(exc, (InfiniteSupport, NotFinite)):
        return EXIT_INFINITE
    if isinstance(exc, (MalformedConfig, RankMismatch)):
        return EXIT_MALFORMED
    return EXIT_VALIDATION


def load_config(text: str) -> JobConfig:
    """Parse a job configuration and decode its payload once; MalformedConfig
    on any defect."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedConfig(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedConfig("config must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise MalformedConfig(f"kind must be one of {list(KINDS)}, got {kind!r}")
    raw = obj.get("payload")
    if not isinstance(raw, dict):
        raise MalformedConfig("payload must be a JSON object")
    fixed_terms = None
    if obj.get("fixed_terms") is not None:
        if not isinstance(obj["fixed_terms"], list):
            raise MalformedConfig("fixed_terms must be a list")
        try:
            fixed_terms = [FixedPointTerm.from_jsonable(t) for t in obj["fixed_terms"]]
        except (LogqError, ValueError, TypeError, KeyError) as exc:
            raise MalformedConfig(f"bad fixed_terms: {exc}") from exc
    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise MalformedConfig("options must be a JSON object")
    try:
        payload = _decode_payload(kind, raw)
    except (LogqError, ValueError, TypeError, KeyError) as exc:
        raise MalformedConfig(f"bad {kind} payload: {exc}") from exc
    return JobConfig(kind=kind, payload=payload, fixed_terms=fixed_terms, options=options)


def _decode_payload(kind: str, raw: dict):
    if kind == "toric":
        return ToricLogData.from_jsonable(raw)
    if kind == "delzant":
        return Polyhedron.from_jsonable(raw)
    if kind == "s2_family":
        return decode_int(raw["n1"]), decode_int(raw["n2"])
    base_degree = decode_int(raw["base_degree"])
    fibre = Character.from_jsonable(raw["fibre"])
    if fibre.rank != 1:
        raise ValueError("fibre character must have rank 1")
    return base_degree, fibre


def _toric_data(config: JobConfig) -> ToricLogData:
    if config.kind == "toric":
        return config.payload
    if config.kind == "s2_family":
        return toricmodel.s2_family(*config.payload)[0]
    if config.kind == "delzant":
        return toricmodel.delzant(config.payload)
    raise MalformedConfig(f"kind {config.kind!r} does not describe a toric space")


def _derive_terms(config: JobConfig) -> list[FixedPointTerm]:
    if config.fixed_terms is not None:
        return config.fixed_terms
    if config.kind == "s2_family":
        return indexcalc.fixed_terms_s2(*config.payload)
    if config.kind == "delzant":
        return indexcalc.fixed_terms_delzant(config.payload)
    raise MalformedConfig("toric jobs need explicit fixed_terms for the qr-check")


def _box_cap(config: JobConfig, args) -> int:
    if args.box_cap is not None:
        return args.box_cap
    if "box_cap" in config.options:
        try:
            return decode_int(config.options["box_cap"])
        except ValueError as exc:
            raise MalformedConfig(f"bad options.box_cap: {exc}") from exc
    return polyhedra.BOX_VOLUME_CAP


# ---------------------------------------------------------------------------
# Command bodies: each returns (payload dict, human table lines, exit code).


def cmd_validate(config: JobConfig, args):
    report = toricmodel.validate(_toric_data(config))
    lines = ["check        status  detail"]
    for c in report.checks:
        lines.append(f"{c.name:<12} {'pass' if c.passed else 'FAIL':<7} {c.detail}")
    return report.to_jsonable(), lines, EXIT_OK if report.ok else EXIT_VALIDATION


def _weight_text(w) -> str:
    """``str(list(w))``, with SizeLimit for an integer too long to print."""
    return "[" + ", ".join(map(_int_text, w)) + "]"


def _character_lines(char: Character) -> list[str]:
    lines = ["weight            multiplicity"]
    for w in char.support():
        lines.append(f"{_weight_text(w):<18} {_int_text(char.terms[w]):>4}")
    lines.append(f"dimension: {_int_text(char.dimension())}")
    return lines


def cmd_quantize(config: JobConfig, args):
    char = indexcalc.quantize_lattice(_toric_data(config), box_cap=_box_cap(config, args))
    return char.to_jsonable(), _character_lines(char), EXIT_OK


def cmd_qr_check(config: JobConfig, args):
    data = _toric_data(config)
    terms = _derive_terms(config)
    report = indexcalc.qr_check(data, terms, box_cap=_box_cap(config, args))
    lines = [f"agree: {report.agree}", "weight            lattice  fixed-point  reduced"]
    for w, a, b, c in report.per_weight_table:
        lines.append(
            f"{_weight_text(w):<18} {_int_text(a):>7}  {_int_text(b):>11}  {_int_text(c):>7}"
        )
    return report.to_jsonable(), lines, EXIT_OK if report.agree else EXIT_MISMATCH


def cmd_mincoupling(config: JobConfig, args):
    if config.kind != "mincoupling":
        raise MalformedConfig("mincoupling command needs a mincoupling job")
    result = indexcalc.mincoupling_index(*config.payload)
    lines = ["highest weight   multiplicity"]
    for j, m in sorted(result.mults.items()):
        lines.append(f"V_{_int_text(j):<14} {_int_text(m):>4}")
    return result.to_jsonable(), lines, EXIT_OK


def cmd_prequant(config: JobConfig, args):
    if config.kind not in TORIC_KINDS:
        raise MalformedConfig("prequant command needs a toric-like job")
    if config.kind == "s2_family":
        data, params = toricmodel.s2_family(*config.payload)
    else:
        data, params = _toric_data(config), None
    verdict = toricmodel.prequant_check(data)
    payload: dict = {"kind": config.kind, "prequantizable": verdict}
    lines = [f"prequantizable: {verdict}"]
    if params is not None:
        payload["s2_params"] = {
            "n1": params.n1,
            "n2": params.n2,
            "n": params.n,
            "a": f"{params.a:.12f}",
            "a_prime": f"{params.a_prime:.12f}",
        }
        lines.append(f"n  = {params.n}")
        lines.append(f"a  = {params.a:.12f}")
        lines.append(f"a' = {params.a_prime:.12f}")
    return payload, lines, EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "quantize": cmd_quantize,
    "qr-check": cmd_qr_check,
    "mincoupling": cmd_mincoupling,
    "prequant": cmd_prequant,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logq",
        description="Exact quantization of toric log symplectic data by signed "
        "lattice counting and fixed-point summation.",
    )
    parser.add_argument("command", choices=COMMANDS)
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--config", type=Path, help="path to a JSON job config")
    src.add_argument("--stdin", action="store_true", help="read the job config from stdin")
    parser.add_argument(
        "--format",
        choices=("json", "table", "both"),
        default=None,
        help="output format (default json)",
    )
    parser.add_argument("--box-cap", type=int, default=None, help="lattice box volume cap")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout")
    parser.add_argument(
        "--batch",
        type=Path,
        default=None,
        help="qr-check only: run every *.json config in a directory",
    )
    return parser


_PARSER = build_parser()


def _read_config(path: Path | None) -> JobConfig:
    """Read one job config from ``path``, or from stdin when it is None, and
    decode it with :func:`load_config`; MalformedConfig on any defect."""
    try:
        text = sys.stdin.read() if path is None else path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedConfig(f"cannot read config {path or 'from stdin'}: {exc}") from exc
    return load_config(text)


def _out(text: str) -> None:
    try:
        print(text, flush=True)
    except OSError as exc:
        # Later writes and the flush at exit go to devnull, so no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # ``logq ... | head``: the job's own code
            print(f"logq: cannot write output: {exc}", file=sys.stderr)
            sys.exit(1)


def _emit(args, config_options: dict, payload: dict, lines: list[str]) -> None:
    if args.quiet:
        return
    fmt = args.format or config_options.get("output_format") or "json"
    if fmt not in ("json", "table", "both"):
        raise MalformedConfig(f"bad output format {fmt!r}")
    if fmt == "json":
        lines = [dumps(payload)]
    elif fmt == "both":
        lines = [*lines, "```json", dumps(payload), "```"]
    _out("\n".join(lines))


def _run_batch(args) -> int:
    directory: Path = args.batch
    if not directory.is_dir():
        raise MalformedConfig(f"batch path {directory} is not a directory")
    results = []
    worst = EXIT_OK
    for path in sorted(directory.glob("*.json")):
        entry: dict = {"file": path.name}
        try:
            config = _read_config(path)
            payload, _, code = COMMANDS[args.command](config, args)
            entry["exit_code"] = code
            entry["agree"] = payload.get("agree")
        except LogqError as exc:
            code = _exit_code_for(exc)
            entry["exit_code"] = code
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        results.append(entry)
        worst = max(worst, code)
    if not args.quiet:
        _out(dumps({"results": results, "overall_exit": worst}))
    return worst


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.batch is not None and args.command != "qr-check":
        _PARSER.error("--batch is only valid with qr-check")
    try:
        if args.batch is not None:
            return _run_batch(args)
        if not args.stdin and args.config is None:
            raise MalformedConfig("no job config given; use --config PATH or --stdin")
        config = _read_config(args.config)
        payload, lines, code = COMMANDS[args.command](config, args)
        _emit(args, config.options, payload, lines)
        return code
    except LogqError as exc:
        code = _exit_code_for(exc)
        if not args.quiet:
            _out(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        print(f"logq: {exc}", file=sys.stderr)
        return code


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
