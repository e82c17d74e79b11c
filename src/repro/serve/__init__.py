"""``repro serve``: a long-running evaluation service over HTTP/JSON.

:mod:`repro.serve.schema` normalizes requests and derives their
canonical coalescing keys; :mod:`repro.serve.service` is the asyncio
server (warm path, request coalescer, one-fold-at-a-time batcher);
:mod:`repro.serve.client` is the stdlib thin client behind the CLI's
``--server URL`` mode. See ``docs/serving.md``.
"""

from repro.serve.schema import (  # noqa: F401
    KINDS,
    SERVE_SCHEMA,
    RequestError,
    ServeRequest,
    build_request,
    payload_from_args,
)
