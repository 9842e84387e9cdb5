"""Run one conjlab CLI invocation with spans around each layer's public functions.

    python bench/traced_cli.py SPANS.json <conjlab argv...>

Stdout and the exit code are the CLI's own.  The spans and the time
taken by a fresh ``import conjlab.cli`` go to SPANS.json when the
invocation ends.
"""

import time

_t0 = time.perf_counter()
import conjlab.cli  # noqa: E402  (timed: the import is the first thing measured)

_import_s = time.perf_counter() - _t0

import sys  # noqa: E402

from spans import Recorder, install  # noqa: E402


def main(out: str, argv: list[str]) -> int:
    rec = Recorder()
    install(rec)
    span = rec.open("cli.main")
    try:
        return conjlab.cli.main(argv)
    finally:
        rec.close(span)
        sys.stdout.flush()
        rec.dump(out, import_s=_import_s, conjlab_file=conjlab.cli.__file__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
