"""Runtime machinery shared by the tuner, the service and ``api``.

* :mod:`~repro.runtime.atomic_file` — the one durable-write idiom
  (flock, pid-tagged temp + fsync + rename, stale-temp sweep,
  quarantine);
* :mod:`~repro.runtime.faults` — the structured fault taxonomy and the
  deterministic fault-injection harness (``REPRO_FAULTS``);
* :mod:`~repro.runtime.workers` — :class:`HardenedPool`, which also
  carries trace spans across the process boundary it owns;
* :mod:`~repro.runtime.store` — the content-addressed
  :class:`ArtifactStore`.

Layering: ``runtime`` imports only ``snitch`` and ``obs``; ``tune``
imports ``runtime``; ``service`` imports ``runtime`` and ``tune``;
nothing below imports upward (a tier-1 test walks the import graph).
Nothing is imported here: ``api`` needs only the store and must not
pay for ``multiprocessing`` at start-up.
"""
