"""The lifetime-query service.

A long-lived, in-process server for the paper's core question -- the
battery-lifetime distribution of a stochastic workload -- built for
fleets of near-identical queries: results are stored by audited scenario
fingerprint, concurrent identical requests coalesce onto one solve, and
a warm :class:`~repro.engine.workspace.SolveWorkspace` amortises
uniformised matrices and Poisson tables across requests.

* :mod:`repro.service.query` -- :class:`~repro.service.query.LifetimeQuery`,
  one request and its fingerprint;
* :mod:`repro.service.server` --
  :class:`~repro.service.server.LifetimeService`, the store, the
  coalescing and the responses.

The public names are reached through :mod:`repro.api`
(``repro.api.serve``); ``tools/repro_serve.py`` wraps the service in a
JSONL / HTTP front.
"""
