"""Fresh processes the benchmark starts.

    python3 bench/child.py setup WORKLOAD [--smoke]
        Time, in this new process, importing the package from the checkout's
        src/ and filling the caches WORKLOAD's timed part uses; print seconds.

    python3 bench/child.py cli DUMP ARGS...
        Run `sml ARGS` with span tracing and write the spans and the
        canonical_key cache counts to DUMP. Exits with sml's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import spectralminors

    if Path(spectralminors.__file__).resolve().parent != SRC / "spectralminors":
        raise SystemExit(f"spectralminors imported from {spectralminors.__file__}, not {SRC}")
    return spectralminors


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        import workloads

        setup = workloads.WORKLOADS[argv[1]].setup
        t0 = perf_counter()
        sm = _import_package()
        setup(sm, "--smoke" in argv[2:])
        print(repr(perf_counter() - t0))
        return 0
    if argv[:1] == ["cli"]:
        import spans

        dump, args = Path(argv[1]), argv[2:]
        _import_package()
        import spectralminors.cli as cli

        tracer = spans.Tracer()
        tracer.install()
        key = tracer.originals["canon.canonical_key"]
        before = key.cache_info()
        try:
            return cli.main(args)
        finally:
            after = key.cache_info()
            tracer.uninstall()
            dump.write_text(json.dumps({
                "trace": tracer.dump(),
                "cache": [after.hits - before.hits, after.misses - before.misses],
            }), encoding="ascii")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
