"""The project rule catalog; importing this package registers every rule.

Families and their stable finding ids:

* ``lock-order`` — :mod:`repro.analysis.rules.lock_order`
  (``lock-order/cycle``, ``lock-order/self-deadlock``,
  ``lock-order/blocking-call``)
* ``checkpoint`` — :mod:`repro.analysis.rules.checkpoint`
  (``checkpoint/missing-attr``)
* ``determinism`` — :mod:`repro.analysis.rules.determinism`
  (``determinism/unseeded-random``, ``determinism/wall-clock``)
* ``boundary`` — :mod:`repro.analysis.rules.boundary`
  (``boundary/json-nan``, ``boundary/metric-name``)
* ``unused`` — :mod:`repro.analysis.rules.unused` (``unused/symbol``)
"""

from repro.analysis.rules import boundary, checkpoint, determinism, lock_order, unused

__all__ = ["boundary", "checkpoint", "determinism", "lock_order", "unused"]
