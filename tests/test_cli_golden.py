"""The golden CLI corpus: each case of ``cli_golden.json`` runs through
``homlab.cli.main(args=..., prog_name="homlab")``, the call the installed
``homlab`` script makes, and must give its recorded exit code, the SHA-256 of
its stdout, and, where the library refused the input, its exact ``error:``
line.  A parser usage error is pinned only by exit 2 and a non-empty stderr,
since its wording belongs to the argument parser.  All cases run in one fresh
interpreter, with every input file written to a temporary directory first;
``{tmp}`` in an argument or an error line stands for that directory."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import homlab

CORPUS = Path(__file__).with_name("cli_golden.json")

# Runs every argument list of the JSON file argv[1] in turn with stdout and
# stderr captured, and prints one {code, stdout, stderr} result per list.
_DRIVER = """
import io, json, sys
from homlab.cli import main
real_stdout, real_stderr = sys.stdout, sys.stderr
results = []
for args in json.load(open(sys.argv[1])):
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        main(args=args, prog_name="homlab")
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout, sys.stderr = real_stdout, real_stderr
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, real_stdout)
"""


def run_corpus(files: dict, argvs: list, tmp: Path) -> list[dict]:
    """Write ``files`` into ``tmp`` and run each argument list, with ``{tmp}``
    replaced by that directory, in one fresh interpreter."""
    for name, text in files.items():
        (tmp / name).write_text(text)
    listing = tmp / "argv.json"
    listing.write_text(json.dumps([[a.replace("{tmp}", str(tmp)) for a in args]
                                   for args in argvs]))
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _DRIVER, str(listing)], capture_output=True,
                          text=True, timeout=120, env=env, cwd=tmp)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_outputs_match_the_golden_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    cases = corpus["cases"]
    results = run_corpus(corpus["files"], [case["args"] for case in cases], tmp_path)
    for case, got in zip(cases, results, strict=True):
        what = " ".join(case["args"])
        assert got["code"] == case["code"], (what, got)
        assert digest(got["stdout"]) == case["stdout"], (what, got)
        stderr = got["stderr"].replace(str(tmp_path), "{tmp}")
        if case.get("usage"):
            assert stderr, what
        elif "error" in case:
            assert stderr.splitlines() == [case["error"]], (what, got)
        else:
            assert stderr == "", (what, got)
        if "file" in case:
            written = (tmp_path / case["file"]["name"]).read_text()
            assert digest(written) == case["file"]["sha256"], what
