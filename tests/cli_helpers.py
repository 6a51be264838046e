"""Runs ``homlab.cli.main`` in process with captured streams, for the tests."""

import contextlib
import io
from dataclasses import dataclass

from homlab.cli import main


@dataclass
class Result:
    """One CLI call.  ``exception`` is the non-zero ``SystemExit`` the call
    ended with, or any other exception it raised (which counts as exit 1)."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def invoke(args) -> Result:
    """Run ``homlab`` with the argument list ``args``."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), prog_name="homlab")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
