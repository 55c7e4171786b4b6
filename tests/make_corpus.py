"""Regenerate the digests of the byte-stable output corpus (test_corpus.py).

    python tests/make_corpus.py             # digests of the frozen configs
    python tests/make_corpus.py --freeze 11 # first re-freeze the configs of seed 11

``--freeze`` rewrites ``data/corpus/configs.json`` from the benchmark's job
generators (``bench/jobs.py``, which does not import logq): every job of the
seed's ``cli_batch``, ``lattice_ladder`` and ``welded_sweep`` workloads, and
the known-defect repros.  Without it only ``data/corpus/digests.json`` is
rewritten, from the output of the code in ``src/``.  A config whose load
error quotes the text of an exception raised outside the package (Python's
own message) gets its exit code and error type in place of digests.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from logq import cli  # noqa: E402
from logq.errors import LogqError, MalformedConfig  # noqa: E402
from test_corpus import COMMANDS, CORPUS, FORMATS, config_text, digest, outputs  # noqa: E402


def freeze(seed: int) -> None:
    sys.path.insert(0, str(HERE.parent / "bench"))
    import jobs as jobgen

    configs = []
    for workload in ("cli_batch", "lattice_ladder", "welded_sweep"):
        configs += [(workload, job) for job in jobgen.WORKLOADS[workload](seed)]
    configs += [("defects", job) for job in jobgen.known_defects()]
    out = []
    for workload, job in configs:
        key = "text" if isinstance(job["config"], str) else "config"
        out.append({"id": job["id"], "workload": workload, key: job["config"]})
    CORPUS.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(job) for job in out)
    (CORPUS / "configs.json").write_text(f"[\n{lines}\n]\n")


def python_text_error(text: str):
    """The error type when loading ``text`` fails with a message that quotes
    an exception raised outside the package, else None."""
    try:
        cli.load_config(text)
    except MalformedConfig as exc:
        cause = exc.__cause__
        if cause is None or isinstance(cause, LogqError):
            return None
        tb = cause.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        package = Path(cli.__file__).parent
        if Path(tb.tb_frame.f_code.co_filename).resolve().parent != package.resolve():
            return type(exc).__name__
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--freeze", type=int, metavar="SEED", help="re-freeze the configs first")
    args = parser.parse_args()
    if args.freeze is not None:
        freeze(args.freeze)
    jobs = json.loads((CORPUS / "configs.json").read_text())
    loose = {}
    for job in jobs:
        error = python_text_error(config_text(job))
        if error is not None:
            loose[job["id"]] = error
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, code, stdout, stderr in outputs(jobs, loose, Path(tmp)):
            job_id = name.split()[0]
            if job_id in loose:
                digests[name] = {"exit": code, "error": loose[job_id]}
            else:
                digests[name] = digest(code, stdout, stderr)
    (CORPUS / "digests.json").write_text(json.dumps(digests, indent=0) + "\n")
    print(f"{len(jobs)} configs x {len(COMMANDS)} commands x {len(FORMATS)} formats, "
          f"{len(digests)} entries, {len(loose)} configs checked by exit code and type")


if __name__ == "__main__":
    main()
