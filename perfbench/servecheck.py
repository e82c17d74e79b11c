"""Local reference for the serve workload's output checks.

Usage: ``python3 perfbench/servecheck.py IN.json STORE_DIR > OUT.json``

``IN.json`` holds ``{"payloads": [...], "render": [indices]}``. Prints
the number of distinct simulations the payloads need (by canonical
cache key) and, for each index in ``render``, the text the local
``ServeRequest.render()`` produces in a fresh store. It renders with
the batch kernel, which the kernel-equivalence gate holds float-for-float
equal to the walk, so the check is quick and independent of the
service's execution path.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    in_path, store = argv
    from repro.cpu.kernel import set_default_kernel
    from repro.exec import cache as result_cache
    from repro.serve.schema import build_request

    with open(in_path) as handle:
        spec = json.load(handle)
    result_cache.configure(cache_dir=store)
    set_default_kernel("batch")
    requests = [build_request(payload) for payload in spec["payloads"]]
    keys = {job.cache_key() for request in requests for job in request.jobs()}
    renders = {str(index): requests[index].render() for index in spec["render"]}
    json.dump({"unique_sims": len(keys), "renders": renders}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
