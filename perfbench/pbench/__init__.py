"""Helpers for the repository benchmark (``perfbench/run.py``).

The package is stdlib + numpy only.  Modules:

* :mod:`pbench.loadgen` - seeded arrival schedules, percentiles and the
  open-loop HTTP load generator;
* :mod:`pbench.payloads` - the seeded request payloads of each workload;
* :mod:`pbench.server` - starting, probing and stopping ``repro serve``;
* :mod:`pbench.checks` - output and accounting checks;
* :mod:`pbench.launcher` - the traced server launcher (span recorder);
* :mod:`pbench.layers` - per-layer metrics computed from recorded spans.
"""
