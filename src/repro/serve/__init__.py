"""Mechanism-as-a-service: admission control + dynamic micro-batching.

The batched Phase I–IV engine (:mod:`repro.mechanism.batch_run`) pays
off when one caller holds a whole population; this package earns the
same amortization for *many independent callers*, the way ML inference
servers micro-batch.  ``python -m repro serve start`` runs a TCP
JSON-lines front-end whose dispatcher coalesces concurrent scalar
requests into stacked ``run_chain_batch``/``run_star_batch`` calls —
with the hard guarantee that every response is bitwise-equal to the
solo scalar run the caller would have performed locally.  Tree requests
are served too (scalar DLS-T per row, counted under
``mechanism.scalar_fallbacks``); ``--workers N`` puts a process pool
behind the dispatcher without bending a single byte of any response or
counter fold; admission is weighted-fair across tenants (deficit
round-robin, priority-aware within a tenant).

Modules
-------
- :mod:`repro.serve.request` — wire types, batch keys, validation.
- :mod:`repro.serve.engine` — solo recipe + stacked group execution.
- :mod:`repro.serve.admission` — the weighted-fair reject-on-overflow queue.
- :mod:`repro.serve.dispatcher` — flush policies and the batching loop.
- :mod:`repro.serve.pool` — worker processes executing flush groups.
- :mod:`repro.serve.service` — the asyncio TCP server.
- :mod:`repro.serve.client` — load generator with local bitwise verify.
"""

from repro.serve.admission import AdmissionError, AdmissionQueue
from repro.serve.dispatcher import Dispatcher, FlushPolicy
from repro.serve.engine import run_group_rows, solo_summary
from repro.serve.pool import WorkerPool
from repro.serve.request import MechanismRequest, MechanismResponse, RequestError
from repro.serve.service import MechanismService

__all__ = [
    "AdmissionError",
    "AdmissionQueue",
    "Dispatcher",
    "FlushPolicy",
    "MechanismRequest",
    "MechanismResponse",
    "MechanismService",
    "RequestError",
    "WorkerPool",
    "run_group_rows",
    "solo_summary",
]
