"""Fresh-process probe for traced runs: import chern3.cli, then one main().

    python -X importtime bench/probe.py <chern3 arguments>

Prints one JSON line with the import time, the time of the first
``chern3.cli.main`` call and its output; the importtime report on stderr
gives the jsonschema share.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
import chern3.cli  # noqa: E402

imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = chern3.cli.main(sys.argv[1:])
done = time.perf_counter()
print(json.dumps({
    "import_ms": 1000.0 * (imported - start),
    "first_main_ms": 1000.0 * (done - imported),
    "code": code,
    "output": out.getvalue(),
}))
