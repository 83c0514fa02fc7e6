"""Reference implementations the library is checked against.

Each oracle computes a quantity the library also computes, by a simpler or
independent method that only the tests run:

* :mod:`oracles.trajectory` -- the per-trajectory Monte-Carlo simulation of
  one KiBaM battery, the reference of the vectorised engine;
* :mod:`oracles.transient` -- the dense matrix-exponential transient and
  the time-integrated state probabilities;
* :mod:`oracles.discretisation` -- the explicit reward-discretisation
  scheme of Section 5 of the paper;
* :mod:`oracles.kibamrm` -- the continuous reward rates of the KiBaMRM
  (Section 4.2), which every transition of the expanded CTMC discretises.
"""
