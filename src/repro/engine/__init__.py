"""The unified lifetime-solver engine.

One question -- *what is the distribution of the battery lifetime under
this stochastic workload?* -- can be answered by several interchangeable
machineries: the exact occupation-time algorithm, the paper's discretised
Markov reward model solved by uniformisation, and Monte-Carlo simulation.
This sub-package puts all of them behind a single interface.  Its public
names are reached through :mod:`repro.api`; the modules are:

* :mod:`repro.engine.problem` / :mod:`repro.engine.result` -- the
  question (:class:`~repro.engine.problem.LifetimeProblem`) and the
  uniform answer (:class:`~repro.engine.result.LifetimeResult`);
* :mod:`repro.engine.registry` / :mod:`repro.engine.solvers` -- the fixed
  solver table (``analytic``, ``mrm-uniformization``, ``monte-carlo`` and
  the ``auto`` dispatcher);
* :mod:`repro.engine.batch` / :mod:`repro.engine.workspace` -- batched
  scenarios with shared chain builds, propagators and Poisson windows;
* :mod:`repro.engine.sweep` / :mod:`repro.engine.executor` /
  :mod:`repro.engine.faults` -- process-parallel, fingerprint-cached,
  resumable sweeps;
* :mod:`repro.engine.base` -- the solver protocol and the engine errors.

The package itself binds no names: import them from :mod:`repro.api` or
from their defining module.
"""
