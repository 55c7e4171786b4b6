"""Byte-stable output over a frozen corpus of jobs.

``data/corpus/configs.json`` holds the job configs of one seed of each
benchmark workload (``cli_batch``, ``lattice_ladder``, ``welded_sweep``) and
the known-defect repros, frozen as data so that no change to ``bench/`` can
move this test.  ``data/corpus/digests.json`` holds, for every config under
every command in the ``json`` and ``both`` formats, the sha256 of its exit
code, stdout and stderr, and one digest of the ``qr-check --batch`` run over
the ``cli_batch`` configs.  The test re-runs every job in process through
``cli.main`` and names the first entry whose output differs.

Some configs fail to load with a message that quotes Python's own exception
text (a JSON decode error, raised outside the package), which may change
between Python versions.  Those entries are checked by exit code and error
type only, and their messages are masked in the batch output before it is
hashed.  A changed digest is a change of the output contract: regenerate the
digests with ``python tests/make_corpus.py`` and list every changed entry.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from logq import cli

CORPUS = Path(__file__).with_name("data") / "corpus"
COMMANDS = tuple(cli.COMMANDS)
FORMATS = ("json", "both")
MASK = '"<Python exception text>"'


def config_text(job) -> str:
    return job["text"] if "text" in job else json.dumps(job["config"])


def run_cli(argv, stdin_text=""):
    """cli.main in process: (exit code, stdout, stderr).  An exception that
    escapes is recorded as its type, not raised."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        code = f"escaped {type(exc).__name__}"
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(code, stdout: str, stderr: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}\0{stderr}".encode()).hexdigest()


def outputs(jobs, loose, batch_root: Path):
    """Every run of ``jobs`` as (entry name, exit code, stdout, stderr):
    each job under each command and format, then, for ``cli_batch`` jobs,
    one ``qr-check --batch`` run over them, as the benchmark makes.
    ``loose`` names the configs whose messages quote Python text; their
    batch messages are masked."""
    for job in jobs:
        text = config_text(job)
        for command in COMMANDS:
            for fmt in FORMATS:
                name = f"{job['id']} {command} {fmt}"
                yield (name, *run_cli([command, "--stdin", "--format", fmt], text))
    batch = [job for job in jobs if job["workload"] == "cli_batch"]
    if batch:
        for job in batch:
            (batch_root / f"{job['id']}.json").write_text(config_text(job))
        code, stdout, stderr = run_cli(["qr-check", "--batch", str(batch_root)])
        for entry in json.loads(stdout)["results"] if stdout else []:
            if entry["file"][: -len(".json")] in loose:
                stdout = stdout.replace(json.dumps(entry["error"]["message"]), MASK)
        yield "batch cli_batch", code, stdout, stderr


@functools.lru_cache(maxsize=None)
def load():
    """The frozen configs, the expected entries and the loosely checked ids."""
    jobs = json.loads((CORPUS / "configs.json").read_text())
    expected = json.loads((CORPUS / "digests.json").read_text())
    loose = {name.split()[0] for name, want in expected.items() if isinstance(want, dict)}
    return jobs, expected, loose


@pytest.mark.parametrize("workload", ["cli_batch", "defects", "lattice_ladder", "welded_sweep"])
def test_every_output_matches_its_digest(workload, tmp_path):
    all_jobs, expected, loose = load()
    jobs = [job for job in all_jobs if job["workload"] == workload]
    assert jobs
    seen = 0
    for name, code, stdout, stderr in outputs(jobs, loose, tmp_path):
        want = expected[name]
        seen += 1
        if isinstance(want, dict):
            try:
                error = json.loads(stdout)["error"]["type"]
            except (ValueError, KeyError, TypeError):
                error = None
            got = {"exit": code, "error": error}
            assert got == want and stderr.startswith("logq: "), (
                f"first differing entry: {name}: {got}, expected {want}"
            )
        else:
            assert digest(code, stdout, stderr) == want, (
                f"first differing entry: {name}: exit {code}\n{stdout}{stderr}"
            )
    assert seen == len(COMMANDS) * len(FORMATS) * len(jobs) + (workload == "cli_batch")
